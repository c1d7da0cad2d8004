/**
 * @file
 * Post-mortem flight recorder: a fixed-size ring of recent simulation
 * events.
 *
 * The recorder holds the last N events (txn phase transitions, VC
 * credit parks and handoffs, MSHR waits and handoffs) with their cycle
 * timestamps. Each ring slot is a fixed-size binary Record of the
 * event's raw fields; recording one is a few stores into a slot
 * allocated at construction, with no formatting and no allocation.
 * Text is built only when the ring is read (events() / dumpJson()),
 * which happens when a run ends in a failure status (Deadlock /
 * Stalled / Timeout): the Simulator then dumps the ring alongside the
 * typed error as <cfg>__<wl>.flight.json ("mcmgpu-flight/1").
 *
 * Like every obs component, the flight recorder is passive: it never
 * schedules events, touches timing state, or influences simulation
 * outcomes. Cycle counts are bit-identical with it on or off.
 */

#ifndef MCMGPU_OBS_FLIGHT_HH
#define MCMGPU_OBS_FLIGHT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.hh"

namespace mcmgpu {
namespace obs {

/** Diagnosis name of one VC credit pool, e.g. "vc0:gpm1->gpm3". */
std::string vcPoolName(uint32_t vc_slot, uint32_t src, uint32_t dst);

/** Diagnosis name of one module's remote-MSHR pool, e.g. "mshr:gpm2". */
std::string mshrPoolName(uint32_t gpm);

class FlightRecorder
{
  public:
    /** One retained event as text (what the dump shows). */
    struct Event
    {
        Cycle when = 0;     ///< simulation cycle of the transition
        uint64_t seq = 0;   ///< global record order (monotonic)
        std::string what;   ///< human-readable event description
    };

    /** What a ring slot describes; decides which Record fields hold. */
    enum class Kind : uint8_t
    {
        Phase,       ///< txn moved between pipeline phases
        MshrWait,    ///< txn queued on a full remote-MSHR pool
        VcPark,      ///< txn parked on a VC pool with no credit free
        VcHandoff,   ///< a freed VC credit passed to a parked txn
        MshrHandoff, ///< a freed MSHR passed to a queued txn
        Text,        ///< free-form text, kept beside the ring
    };

    /**
     * One ring slot. The record's seq is its position in the ring, so
     * it is not stored. Phase names are the static strings
     * wordOf() returns, held by pointer.
     */
    struct Record
    {
        Cycle when = 0;
        uint64_t txn = 0;            ///< txn id (all but Text)
        const char *from = nullptr;  ///< Phase: phase left
        const char *to = nullptr;    ///< Phase: phase entered
        /** Phase: issuing GPM; Vc*: pool source; Mshr*: pool's GPM. */
        uint32_t gpm = 0;
        union
        {
            uint32_t dst = 0;        ///< Phase: home GPM; Vc*: pool dest
            uint32_t in_use;         ///< MshrWait: entries in use
        };
        union
        {
            uint32_t vc_slot = 0;    ///< Vc*: VC slot of the pool
            uint32_t limit;          ///< MshrWait: pool size
        };
        Kind kind = Kind::Text;
        bool store = false;          ///< Phase: store (else load)
    };
    static_assert(std::is_trivially_copyable_v<Record>);
    static_assert(sizeof(Record) <= 48);

    explicit FlightRecorder(uint32_t capacity);

    void
    phase(Cycle when, uint64_t txn, bool store, uint32_t src,
          uint32_t home, const char *from, const char *to)
    {
        Record &r = claim(when, Kind::Phase, txn);
        r.store = store;
        r.gpm = src;
        r.dst = home;
        r.from = from;
        r.to = to;
    }

    void
    mshrWait(Cycle when, uint64_t txn, uint32_t gpm, uint32_t in_use,
             uint32_t limit)
    {
        Record &r = claim(when, Kind::MshrWait, txn);
        r.gpm = gpm;
        r.in_use = in_use;
        r.limit = limit;
    }

    void
    vcPark(Cycle when, uint64_t txn, uint32_t vc_slot, uint32_t src,
           uint32_t dst)
    {
        Record &r = claim(when, Kind::VcPark, txn);
        r.vc_slot = vc_slot;
        r.gpm = src;
        r.dst = dst;
    }

    void
    vcHandoff(Cycle when, uint64_t txn, uint32_t vc_slot, uint32_t src,
              uint32_t dst)
    {
        Record &r = claim(when, Kind::VcHandoff, txn);
        r.vc_slot = vc_slot;
        r.gpm = src;
        r.dst = dst;
    }

    void
    mshrHandoff(Cycle when, uint64_t txn, uint32_t gpm)
    {
        Record &r = claim(when, Kind::MshrHandoff, txn);
        r.gpm = gpm;
    }

    /** Append one free-form text event (allocates; not for hot paths). */
    void record(Cycle when, std::string what);

    /** Number of slots. */
    uint32_t capacity() const { return capacity_; }

    /** Events currently retained (<= capacity). */
    uint32_t size() const;

    /** Events recorded then overwritten because the ring was full. */
    uint64_t dropped() const;

    /** Total events ever recorded. */
    uint64_t total() const { return next_seq_; }

    /** Retained events, oldest first, formatted as text. */
    std::vector<Event> events() const;

    /**
     * Serialize as a "mcmgpu-flight/1" document. @p status is the
     * run's final status string and @p reason the typed failure
     * diagnostic (empty when the run finished normally — the
     * Simulator only dumps on failure, but tests may call directly).
     */
    void dumpJson(std::ostream &os, const std::string &status,
                  const std::string &reason) const;

  private:
    /** Take the next slot (overwriting the oldest once full). */
    Record &
    claim(Cycle when, Kind kind, uint64_t txn)
    {
        Record &r = ring_[head_];
        if (++head_ == capacity_)
            head_ = 0;
        ++next_seq_;
        r.when = when;
        r.kind = kind;
        r.txn = txn;
        return r;
    }

    /** The text of the record in @p slot. */
    std::string describe(uint32_t slot) const;

    uint32_t capacity_;
    uint32_t head_ = 0;  ///< next slot to write (next_seq_ % capacity_)
    std::vector<Record> ring_;
    /** Text of Kind::Text slots, by slot; sized on the first one. */
    std::vector<std::string> text_;
    uint64_t next_seq_ = 0;
};

} // namespace obs
} // namespace mcmgpu

#endif // MCMGPU_OBS_FLIGHT_HH
