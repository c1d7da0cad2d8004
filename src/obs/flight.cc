#include "obs/flight.hh"

#include "common/json.hh"

namespace mcmgpu {
namespace obs {

std::string
vcPoolName(uint32_t vc_slot, uint32_t src, uint32_t dst)
{
    return "vc" + std::to_string(vc_slot) + ":gpm" + std::to_string(src) +
           "->gpm" + std::to_string(dst);
}

std::string
mshrPoolName(uint32_t gpm)
{
    return "mshr:gpm" + std::to_string(gpm);
}

FlightRecorder::FlightRecorder(uint32_t capacity)
    : capacity_(capacity ? capacity : 1)
{
    ring_.resize(capacity_);
}

void
FlightRecorder::record(Cycle when, std::string what)
{
    if (text_.empty())
        text_.resize(capacity_);
    text_[head_] = std::move(what);
    claim(when, Kind::Text, 0);
}

uint32_t
FlightRecorder::size() const
{
    return next_seq_ < capacity_ ? static_cast<uint32_t>(next_seq_)
                                 : capacity_;
}

uint64_t
FlightRecorder::dropped() const
{
    return next_seq_ < capacity_ ? 0 : next_seq_ - capacity_;
}

std::string
FlightRecorder::describe(uint32_t slot) const
{
    const Record &r = ring_[slot];
    const std::string txn = "txn " + std::to_string(r.txn);
    switch (r.kind) {
      case Kind::Phase:
        return txn + (r.store ? " store" : " load") + " gpm" +
               std::to_string(r.gpm) + "->gpm" + std::to_string(r.dst) +
               ": " + r.from + " -> " + r.to;
      case Kind::MshrWait:
        return txn + " waiting on " + mshrPoolName(r.gpm) + " (" +
               std::to_string(r.in_use) + "/" + std::to_string(r.limit) +
               " in use)";
      case Kind::VcPark:
        return txn + " parked on " + vcPoolName(r.vc_slot, r.gpm, r.dst) +
               " (no credit free)";
      case Kind::VcHandoff:
        return "credit on " + vcPoolName(r.vc_slot, r.gpm, r.dst) +
               " handed to " + txn;
      case Kind::MshrHandoff:
        return mshrPoolName(r.gpm) + " handed to " + txn;
      case Kind::Text:
        break;
    }
    return text_[slot];
}

std::vector<FlightRecorder::Event>
FlightRecorder::events() const
{
    std::vector<Event> out;
    const uint32_t n = size();
    out.reserve(n);
    // Oldest retained event sits at next_seq_ % capacity_ once the
    // ring has wrapped; before that the ring is a plain prefix.
    const uint64_t first = next_seq_ - n;
    for (uint64_t s = first; s < next_seq_; ++s) {
        const uint32_t slot = static_cast<uint32_t>(s % capacity_);
        out.push_back({ring_[slot].when, s, describe(slot)});
    }
    return out;
}

void
FlightRecorder::dumpJson(std::ostream &os, const std::string &status,
                         const std::string &reason) const
{
    os << "{\n";
    os << "  \"schema\": \"mcmgpu-flight/1\",\n";
    os << "  \"status\": " << json::quoted(status) << ",\n";
    os << "  \"reason\": " << json::quoted(reason) << ",\n";
    os << "  \"capacity\": " << capacity_ << ",\n";
    os << "  \"recorded\": " << total() << ",\n";
    os << "  \"dropped\": " << dropped() << ",\n";
    os << "  \"events\": [";
    const std::vector<Event> evs = events();
    for (size_t i = 0; i < evs.size(); ++i) {
        os << (i ? ",\n    " : "\n    ");
        os << "{\"cycle\": " << evs[i].when
           << ", \"seq\": " << evs[i].seq
           << ", \"what\": " << json::quoted(evs[i].what) << "}";
    }
    os << (evs.empty() ? "]\n" : "\n  ]\n");
    os << "}\n";
}

} // namespace obs
} // namespace mcmgpu
