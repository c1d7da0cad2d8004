/**
 * @file
 * Split-transaction memory requests.
 *
 * A MemTxn is the unit of work flowing through the post-L1 memory
 * system: one L1-miss load or one write-through store, carrying its
 * address, size, source module, home partition and running timestamp
 * from the SM through the L1.5, the inter-module fabric, the home L2
 * slice and DRAM, and (for loads) back. Transactions are slab-allocated
 * by a TxnArena owned by the pipeline — issuing a memory access never
 * touches the global allocator — and recycled on completion.
 *
 * The path is expressed as MemStage implementations (L15Stage,
 * FabricStage, L2HomeStage, DramStage in mem/stages.hh). A stage
 * services the transaction's current phase at its current time,
 * advances `t`, and names the next phase. Under MemModel::Chain the
 * pipeline walks the phases synchronously inside launch() — the exact
 * call sequence of the historical inline implementation, so simulated
 * time, event counts and side-effect order on shared bandwidth servers
 * are bit-identical. Under MemModel::Staged each phase transition is a
 * calendar event, which makes occupancy observable and lets finite
 * remote MSHRs exert back-pressure.
 */

#ifndef MCMGPU_MEM_TXN_HH
#define MCMGPU_MEM_TXN_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/smallfn.hh"
#include "common/types.hh"

namespace mcmgpu {

struct MemTxn;

/** Completion continuation: the finished transaction and its done
 *  cycle (loads: data arrival at the SM; stores: home acceptance).
 *  The transaction reference is valid only for the duration of the
 *  call — the arena recycles it immediately after. */
using TxnDoneFn = SmallFnT<const MemTxn &, Cycle>;

/** Pipeline position of a transaction. */
enum class TxnPhase : uint8_t
{
    L15,      //!< GPM-side L1.5 probe (+ serial tag-check penalty)
    FabReq,   //!< request traversal of the inter-module fabric
    L2Lookup, //!< home L2 slice probe
    DramRead, //!< line fetch from the home DRAM partition
    L2Fill,   //!< line install + dirty-victim writeback
    FabResp,  //!< response traversal (loads only)
    Complete, //!< deliver data / acceptance to the SM
};

/** Printable stage names, for wordOf(). */
template <>
inline constexpr std::array kWords<TxnPhase>{
    "l15", "fab_req", "l2_lookup", "dram_read", "l2_fill", "fab_resp",
    "complete"};

/** One post-L1 memory request in flight. */
struct MemTxn
{
    Addr addr = 0;
    uint32_t bytes = 0;
    bool is_store = false;
    /** Home partition lives on a different module than the source. */
    bool remote = false;
    /** A caching L1.5 missed this load and will be filled on return. */
    bool l15_fill = false;
    /** Transaction holds one of its module's remote MSHRs (staged). */
    bool holds_mshr = false;
    /** Transaction went past the L1.5 into the pipeline (staged
     *  occupancy accounting). */
    bool in_pipeline = false;
    /** Holds a request-VC credit on the src->home direction (staged
     *  with fabric_vcs > 0). */
    bool holds_req_credit = false;
    /** Holds a response-VC credit on the home->src direction. */
    bool holds_resp_credit = false;

    ModuleId src = 0;        //!< issuing module
    ModuleId home_module = 0;
    PartitionId home = 0;    //!< home memory partition

    uint64_t id = 0;         //!< trace id, unique per pipeline
    Cycle issued = 0;        //!< launch time (SM issue)
    Cycle stall_start = 0;   //!< staged: when MSHR wait began
    Cycle t = 0;             //!< running pipeline time

    TxnPhase phase = TxnPhase::L15;
    TxnDoneFn done;          //!< completion continuation

    MemTxn *next = nullptr;  //!< arena freelist / MSHR or VC park link
};

/**
 * One pipeline stage: services a transaction's current phase at its
 * current time, advances txn.t, and returns the next phase. Stages
 * hold references to the machine components they time (caches, fabric,
 * DRAM, energy model); they never own them.
 *
 * The built-in pipeline calls its four concrete stages directly (no
 * virtual dispatch on the chain hot path); the interface exists so
 * extensions — write-back L1.5, fabric virtual channels, DRAM
 * read/write turnaround — can slot in without re-entangling the path
 * into one function.
 */
class MemStage
{
  public:
    virtual ~MemStage() = default;
    virtual const char *name() const = 0;
    virtual TxnPhase service(MemTxn &txn) = 0;
};

/**
 * Slab allocator for MemTxn. Transactions are recycled through a
 * freelist; blocks are never returned until destruction, so a MemTxn's
 * address is stable for its whole flight (staged events capture the
 * pointer).
 */
class TxnArena
{
  public:
    MemTxn &
    alloc()
    {
        if (free_ == nullptr)
            grow();
        MemTxn *t = free_;
        free_ = t->next;
        t->next = nullptr;
        return *t;
    }

    void
    release(MemTxn &t)
    {
        t.done.reset(); // drop the capture (e.g. a WarpRun reference)
        t.next = free_;
        free_ = &t;
    }

    /** Transactions ever carved (capacity high-water mark). */
    uint64_t capacity() const { return blocks_.size() * kBlockTxns; }

  private:
    static constexpr size_t kBlockTxns = 64;

    void
    grow()
    {
        blocks_.push_back(std::make_unique<MemTxn[]>(kBlockTxns));
        MemTxn *block = blocks_.back().get();
        for (size_t i = 0; i < kBlockTxns; ++i) {
            block[i].next = free_;
            free_ = &block[i];
        }
    }

    std::vector<std::unique_ptr<MemTxn[]>> blocks_;
    MemTxn *free_ = nullptr;
};

} // namespace mcmgpu

#endif // MCMGPU_MEM_TXN_HH
