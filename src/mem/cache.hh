/**
 * @file
 * Set-associative cache tag model with LRU replacement, dirty tracking,
 * and hit-under-fill (MSHR-style merging of outstanding misses).
 *
 * Used for the per-SM L1, the GPM-side L1.5 (paper section 5.1) and the
 * memory-side L2. Timing is supplied by the caller: lookup() classifies
 * the access, the caller resolves the downstream path, then fill()
 * installs the line with its arrival time so later accesses that race
 * the fill observe the in-flight latency instead of re-fetching.
 *
 * Hot-path layout: everything lookup() and fill() touch lives inside
 * the Way entry itself. In-flight fills are not a side map keyed by
 * line address (a hash probe per access, plus insert/erase/rehash
 * traffic per fill) but a (ready, tracked) pair in the way — the
 * tracked flag reproduces the old map's membership semantics exactly,
 * including the amortized reap that retires long-complete records.
 * Whole-cache invalidation is an epoch bump: a way is live only when
 * its epoch matches the cache's, so the software-coherence flush at
 * every kernel boundary is O(1) instead of a sweep over every tag.
 */

#ifndef MCMGPU_MEM_CACHE_HH
#define MCMGPU_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace mcmgpu {

/** Outcome of a tag lookup. */
enum class CacheOutcome
{
    Hit,        //!< line present and fill already complete
    HitPending, //!< line present but still in flight; ready at `ready`
    Miss,       //!< line absent
};

/** Result bundle for Cache::lookup(). */
struct CacheLookup
{
    CacheOutcome outcome = CacheOutcome::Miss;
    Cycle ready = 0; //!< valid for HitPending: when the line arrives
};

/** Victim description returned by Cache::fill(). */
struct CacheVictim
{
    bool valid = false;
    bool dirty = false;
    Addr line_addr = 0;
};

/**
 * Tag-state model of one cache level. A cache with zero capacity is
 * "disabled": lookups always miss and fills are ignored, so callers can
 * keep a uniform code path.
 */
class Cache
{
  public:
    /**
     * @param geo        capacity/associativity/line/latency
     * @param name       stats prefix
     * @param write_back if true stores mark lines dirty and evictions of
     *                   dirty lines must be written downstream; if false
     *                   the cache is write-through (never holds dirt)
     */
    Cache(const CacheGeometry &geo, const std::string &name,
          bool write_back);

    bool enabled() const { return num_sets_ > 0; }
    uint32_t lineBytes() const { return geo_.line_bytes; }
    Cycle hitLatency() const { return geo_.hit_latency; }

    /**
     * Probe the tags for the line containing @p addr at time @p now and
     * update replacement state on a hit. Stores on a write-back cache
     * mark the line dirty.
     */
    CacheLookup lookup(Addr addr, bool is_store, Cycle now);

    /**
     * Install the line containing @p addr; it becomes usable at @p ready.
     * @return victim information (caller writes back dirty victims).
     */
    CacheVictim fill(Addr addr, bool is_store, Cycle ready);

    /**
     * Host-side hint, no simulated effect: warm every host cache line
     * of the tag set @p addr maps to, so a lookup() or fill() issued a
     * little later does not stall on it. Callers with two caches to
     * probe in sequence prefetch both up front and overlap the misses.
     * A disabled cache does nothing.
     */
    void
    prefetch(Addr addr) const
    {
        if (!enabled())
            return;
        const Way *set =
            &ways_[static_cast<size_t>(setIndex(lineAddr(addr))) *
                   ways_per_set_];
        // Round down to a host line so a set that straddles one more
        // line than its size suggests is still covered end to end.
        const uintptr_t end =
            reinterpret_cast<uintptr_t>(set + ways_per_set_);
        for (uintptr_t p = reinterpret_cast<uintptr_t>(set) &
                           ~uintptr_t(kHostLine - 1);
             p < end; p += kHostLine)
            __builtin_prefetch(reinterpret_cast<const void *>(p));
    }

    /** Drop every line (software-coherence flush at kernel boundaries). */
    void invalidateAll();

    /** Number of currently valid lines (for tests/occupancy checks). */
    uint64_t validLines() const;

    double
    hitRate() const
    {
        double total = hits_.value() + misses_.value();
        return total > 0.0 ? hits_.value() / total : 0.0;
    }

    /** Hits including hit-under-fill (cheap probe for samplers). */
    uint64_t
    hitsTotal() const
    {
        return static_cast<uint64_t>(hits_.value() +
                                     hits_pending_.value());
    }

    /** Misses so far (cheap probe for samplers). */
    uint64_t
    missesTotal() const
    {
        return static_cast<uint64_t>(misses_.value());
    }

    stats::Group &statsGroup() { return stats_; }
    const stats::Group &statsGroup() const { return stats_; }

  private:
    struct Way
    {
        Addr tag = 0;
        uint64_t last_use = 0;
        Cycle ready = 0;     //!< fill arrival time while tracked
        uint32_t epoch = 0;  //!< live only when equal to the cache epoch
        bool valid = false;
        bool dirty = false;
        /** An in-flight-fill record exists for this way (the analogue
         *  of membership in the old pending map). */
        bool tracked = false;
    };

    /** Host cache-line size the prefetch stride assumes. */
    static constexpr size_t kHostLine = 64;

    Addr lineAddr(Addr addr) const { return addr & ~line_mask_; }
    uint32_t setIndex(Addr line) const;
    bool live(const Way &w) const
    { return w.valid && w.epoch == epoch_; }
    void reapTracked(Cycle now);

    CacheGeometry geo_;
    bool write_back_;
    uint32_t num_sets_ = 0;
    uint32_t ways_per_set_ = 0;
    uint32_t set_mask_ = 0;      //!< num_sets_ - 1 when a power of two
    bool sets_pow2_ = false;
    uint32_t line_shift_ = 0;
    Addr line_mask_ = 0;
    uint64_t use_clock_ = 0;
    uint32_t epoch_ = 1;         //!< bumped by invalidateAll()
    std::vector<Way> ways_; // num_sets * geo.ways, set-major

    /** Ways with a live fill record; drives the amortized reap. */
    uint64_t tracked_count_ = 0;
    int64_t reap_countdown_ = 4096;
    /** Way indices that may carry a record (lazily compacted by the
     *  reap so a sweep visits candidates, not every tag). */
    std::vector<size_t> tracked_ways_;

    stats::Group stats_;
    stats::Scalar &hits_;
    stats::Scalar &misses_;
    stats::Scalar &hits_pending_;
    stats::Scalar &evictions_dirty_;
    stats::Scalar &invalidations_;
    /** Store-lookup outcomes, split out because write-through levels
     *  (L1, L1.5) probe on stores without allocating — the historical
     *  inline path dropped this result entirely. */
    stats::Scalar &write_hits_;
    stats::Scalar &write_misses_;
};

} // namespace mcmgpu

#endif // MCMGPU_MEM_CACHE_HH
