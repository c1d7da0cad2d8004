/**
 * @file
 * Fundamental scalar types and identifiers used across the simulator.
 */

#ifndef MCMGPU_COMMON_TYPES_HH
#define MCMGPU_COMMON_TYPES_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace mcmgpu {

/** Simulated time, measured in GPU core cycles (1 GHz baseline clock). */
using Cycle = uint64_t;

/** A byte address in the GPU global (virtual == physical size) space. */
using Addr = uint64_t;

/** Identifier of a GPU module (GPM) within a package, or GPU in a board. */
using ModuleId = uint32_t;

/** Identifier of an SM, global across the whole logical GPU. */
using SmId = uint32_t;

/** Identifier of a memory partition (one local DRAM stack per module). */
using PartitionId = uint32_t;

/** Linear index of a co-operative thread array within a kernel grid. */
using CtaId = uint32_t;

/** Linear index of a warp within a CTA. */
using WarpId = uint32_t;

/** Sentinel for "no module"/"invalid module". */
inline constexpr ModuleId kInvalidModule = ~0u;

/** Largest representable cycle; used as "never". */
inline constexpr Cycle kCycleMax = ~0ull;

/**
 * The words that spell a T on the command line, in the result-cache key
 * and in reports, indexed by value. Numeric and string types have none;
 * each word type specializes this next to its declaration.
 */
template <class T>
inline constexpr std::array<const char *, 0> kWords{};
template <>
inline constexpr std::array kWords<bool>{"false", "true"};

/** The word that spells @p v (see kWords). */
template <class T>
const char *
wordOf(T v)
{
    return kWords<T>.at(static_cast<size_t>(v));
}

} // namespace mcmgpu

#endif // MCMGPU_COMMON_TYPES_HH
