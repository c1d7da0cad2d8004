#include "noc/ring.hh"

#include <ostream>

#include "common/log.hh"
#include "topo/table_fabric.hh"

namespace mcmgpu {

Link
makeFaultedLink(std::string name, double gbps, Cycle hop_cycles,
                const FaultPlan *plan, ModuleId upstream, uint64_t salt)
{
    if (!plan) {
        Link l(gbps, hop_cycles);
        l.setName(std::move(name));
        return l;
    }
    Link l(gbps * plan->linkDerate(upstream), hop_cycles);
    l.setName(std::move(name));
    const double rate = plan->linkErrorRate(upstream);
    if (rate > 0.0) {
        l.setTransientErrors(rate, plan->link_retry_cycles,
                             splitmix64(plan->seed ^
                                        (salt * 8191ull + upstream)));
    }
    return l;
}

namespace {

void
dumpLinkLine(std::ostream &os, const std::string &name, const Link &l)
{
    os << "  " << name << ": rate " << l.rateBytesPerCycle()
       << " B/cy, carried " << l.bytesCarried() << " B, busy "
       << l.busyCycles() << " cy, errors " << l.transientErrors()
       << ", replay " << l.replayCycles() << " cy\n";
}

} // namespace

namespace {

topo::TopoParams
topoParams(const GpuConfig &cfg)
{
    topo::TopoParams p;
    p.num_modules = cfg.num_modules;
    p.link_gbps = cfg.link_gbps;
    p.link_hop_cycles = cfg.link_hop_cycles;
    p.pkg_link_gbps = cfg.pkg_link_gbps;
    p.pkg_link_hop_cycles = cfg.pkg_link_hop_cycles;
    p.board_level_links = cfg.board_level_links;
    return p;
}

} // namespace

std::unique_ptr<Fabric>
Fabric::create(const GpuConfig &cfg)
{
    // A single module needs no fabric at all, whatever the spec says.
    if (cfg.num_modules == 1)
        return std::make_unique<IdealFabric>();

    const FaultPlan *plan =
        cfg.fault.degradesLinks() ? &cfg.fault : nullptr;
    topo::TopologyDesc desc;
    std::string err;
    fatal_if(!topo::parseTopology(cfg.topology, desc, err),
             "--topology: ", err);
    if (desc.kind == topo::TopoKind::Ports) {
        return std::make_unique<PortsFabric>(cfg.num_modules, cfg.link_gbps,
                                             cfg.link_hop_cycles, plan);
    }
    return std::make_unique<topo::TableRoutedFabric>(desc, topoParams(cfg),
                                                     plan, cfg.route_policy);
}

RingFabric::RingFabric(uint32_t nodes, double gbps, Cycle hop_cycles,
                       const FaultPlan *plan)
    : nodes_(nodes)
{
    fatal_if(nodes < 2, "a ring needs at least two stops");
    fatal_if(gbps <= 0.0, "ring segments need positive bandwidth");
    // The configured link bandwidth is the aggregate of one physical
    // link (the paper's "768 GB/s per link"); each direction gets half.
    const double per_direction = gbps / 2.0;
    cw_.reserve(nodes);
    ccw_.reserve(nodes);
    for (uint32_t i = 0; i < nodes; ++i) {
        cw_.push_back(makeFaultedLink("ring.cw" + std::to_string(i),
                               per_direction, hop_cycles, plan, i, 1));
        ccw_.push_back(makeFaultedLink("ring.ccw" + std::to_string(i),
                                per_direction, hop_cycles, plan, i, 2));
    }
}

uint32_t
RingFabric::routeHops(ModuleId src, ModuleId dst) const
{
    uint32_t fwd = (dst + nodes_ - src) % nodes_;
    uint32_t bwd = nodes_ - fwd;
    return std::min(fwd, bwd);
}

FabricTransfer
RingFabric::send(ModuleId src, ModuleId dst, uint64_t bytes, Cycle now)
{
    panic_if(src >= nodes_ || dst >= nodes_,
             "ring stop out of range: ", src, " -> ", dst);
    if (src == dst)
        return {now, 0};

    injected_ += bytes;

    const uint32_t fwd = (dst + nodes_ - src) % nodes_;
    const uint32_t bwd = nodes_ - fwd;

    // Two-node rings have exactly one physical link pair; always use the
    // "clockwise" direction so bandwidth is not double-counted.
    bool clockwise;
    if (nodes_ == 2) {
        clockwise = true;
    } else if (fwd < bwd) {
        clockwise = true;
    } else if (bwd < fwd) {
        clockwise = false;
    } else {
        // Equal distance: alternate deterministically to balance load.
        clockwise = (route_toggle_++ & 1) == 0;
    }

    uint32_t hops = clockwise ? fwd : bwd;
    Cycle t = now;
    uint32_t at = src;
    for (uint32_t h = 0; h < hops; ++h) {
        if (clockwise) {
            t = cw_[at].traverse(t, bytes);
            at = (at + 1) % nodes_;
        } else {
            t = ccw_[at].traverse(t, bytes);
            at = (at + nodes_ - 1) % nodes_;
        }
    }
    return {t, hops};
}

uint64_t
RingFabric::linkBytes() const
{
    uint64_t sum = 0;
    for (const auto &l : cw_)
        sum += l.bytesCarried();
    for (const auto &l : ccw_)
        sum += l.bytesCarried();
    return sum;
}

uint64_t
RingFabric::transientErrors() const
{
    uint64_t sum = 0;
    for (const auto &l : cw_)
        sum += l.transientErrors();
    for (const auto &l : ccw_)
        sum += l.transientErrors();
    return sum;
}

void
RingFabric::dumpOccupancy(std::ostream &os) const
{
    for (uint32_t i = 0; i < nodes_; ++i) {
        dumpLinkLine(os, "ring.cw" + std::to_string(i), cw_[i]);
        dumpLinkLine(os, "ring.ccw" + std::to_string(i), ccw_[i]);
    }
}

void
RingFabric::visitLinks(const LinkVisitor &visit)
{
    for (uint32_t i = 0; i < nodes_; ++i) {
        visit("ring.cw" + std::to_string(i), cw_[i]);
        visit("ring.ccw" + std::to_string(i), ccw_[i]);
    }
}

MeshFabric::MeshFabric(uint32_t nodes, double gbps, Cycle hop_cycles,
                       const FaultPlan *plan)
    : nodes_(nodes)
{
    fatal_if(nodes < 2, "a mesh needs at least two nodes");
    fatal_if(gbps <= 0.0, "mesh links need positive bandwidth");

    // Most-square full grid (2x2 for four GPMs; a prime count
    // degenerates to a line). A full grid keeps XY routing total.
    rows_ = 1;
    for (uint32_t d = 1; d * d <= nodes; ++d) {
        if (nodes % d == 0)
            rows_ = d;
    }
    cols_ = nodes / rows_;

    const double per_direction = gbps / 2.0;
    link_of_.assign(static_cast<size_t>(nodes) * nodes, -1);
    for (uint32_t a = 0; a < nodes; ++a) {
        uint32_t ax = a % cols_, ay = a / cols_;
        for (uint32_t b = 0; b < nodes; ++b) {
            uint32_t bx = b % cols_, by = b / cols_;
            uint32_t dist = (ax > bx ? ax - bx : bx - ax) +
                            (ay > by ? ay - by : by - ay);
            if (dist == 1) {
                link_of_[static_cast<size_t>(a) * nodes + b] =
                    static_cast<int32_t>(links_.size());
                links_.push_back(makeFaultedLink(
                    "mesh." + std::to_string(a) + "->" + std::to_string(b),
                    per_direction, hop_cycles, plan, a, 3 + b));
            }
        }
    }
}

size_t
MeshFabric::linkIndex(uint32_t a, uint32_t b) const
{
    int32_t idx = link_of_[static_cast<size_t>(a) * nodes_ + b];
    panic_if(idx < 0, "mesh nodes ", a, " and ", b, " are not adjacent");
    return static_cast<size_t>(idx);
}

FabricTransfer
MeshFabric::send(ModuleId src, ModuleId dst, uint64_t bytes, Cycle now)
{
    panic_if(src >= nodes_ || dst >= nodes_,
             "mesh node out of range: ", src, " -> ", dst);
    if (src == dst)
        return {now, 0};
    injected_ += bytes;

    // Dimension-ordered routing: X first, then Y.
    uint32_t at = src;
    Cycle t = now;
    uint32_t hops = 0;
    auto step = [&](uint32_t next) {
        t = links_[linkIndex(at, next)].traverse(t, bytes);
        at = next;
        ++hops;
    };
    while (at % cols_ != dst % cols_)
        step(at % cols_ < dst % cols_ ? at + 1 : at - 1);
    while (at / cols_ != dst / cols_)
        step(at / cols_ < dst / cols_ ? at + cols_ : at - cols_);
    return {t, hops};
}

uint64_t
MeshFabric::linkBytes() const
{
    uint64_t sum = 0;
    for (const Link &l : links_)
        sum += l.bytesCarried();
    return sum;
}

uint64_t
MeshFabric::transientErrors() const
{
    uint64_t sum = 0;
    for (const Link &l : links_)
        sum += l.transientErrors();
    return sum;
}

void
MeshFabric::dumpOccupancy(std::ostream &os) const
{
    for (size_t i = 0; i < links_.size(); ++i)
        dumpLinkLine(os, "mesh.link" + std::to_string(i), links_[i]);
}

void
MeshFabric::visitLinks(const LinkVisitor &visit)
{
    // Name links by their endpoints rather than storage index so
    // timelines and traces stay readable ("mesh.0->1").
    for (uint32_t a = 0; a < nodes_; ++a) {
        for (uint32_t b = 0; b < nodes_; ++b) {
            int32_t idx = link_of_[static_cast<size_t>(a) * nodes_ + b];
            if (idx >= 0) {
                visit("mesh." + std::to_string(a) + "->" +
                          std::to_string(b),
                      links_[static_cast<size_t>(idx)]);
            }
        }
    }
}

PortsFabric::PortsFabric(uint32_t nodes, double gbps, Cycle hop_cycles,
                         const FaultPlan *plan)
{
    fatal_if(nodes < 2, "a port fabric needs at least two modules");
    fatal_if(gbps <= 0.0, "ports need positive bandwidth");
    egress_.reserve(nodes);
    ingress_.reserve(nodes);
    // As for the ring, the configured bandwidth is one link's aggregate:
    // each simplex port direction gets half.
    const double per_direction = gbps / 2.0;
    for (uint32_t i = 0; i < nodes; ++i) {
        // Split the hop latency across the two port traversals so one
        // send costs exactly hop_cycles of latency end to end.
        egress_.push_back(makeFaultedLink("ports.egress" + std::to_string(i),
                                   per_direction, hop_cycles / 2, plan, i,
                                   4));
        ingress_.push_back(makeFaultedLink("ports.ingress" + std::to_string(i),
                                    per_direction,
                                    hop_cycles - hop_cycles / 2, plan, i,
                                    5));
    }
}

FabricTransfer
PortsFabric::send(ModuleId src, ModuleId dst, uint64_t bytes, Cycle now)
{
    panic_if(src >= egress_.size() || dst >= ingress_.size(),
             "port fabric module out of range: ", src, " -> ", dst);
    if (src == dst)
        return {now, 0};
    injected_ += bytes;
    Cycle t = egress_[src].traverse(now, bytes);
    t = ingress_[dst].traverse(t, bytes);
    return {t, 1};
}

uint64_t
PortsFabric::linkBytes() const
{
    uint64_t sum = 0;
    for (const auto &l : egress_)
        sum += l.bytesCarried();
    return sum; // ingress carries the same bytes; count each message once
}

uint64_t
PortsFabric::transientErrors() const
{
    uint64_t sum = 0;
    for (const auto &l : egress_)
        sum += l.transientErrors();
    for (const auto &l : ingress_)
        sum += l.transientErrors();
    return sum;
}

void
PortsFabric::dumpOccupancy(std::ostream &os) const
{
    for (size_t i = 0; i < egress_.size(); ++i) {
        dumpLinkLine(os, "ports.egress" + std::to_string(i), egress_[i]);
        dumpLinkLine(os, "ports.ingress" + std::to_string(i), ingress_[i]);
    }
}

void
PortsFabric::visitLinks(const LinkVisitor &visit)
{
    for (size_t i = 0; i < egress_.size(); ++i) {
        visit("ports.egress" + std::to_string(i), egress_[i]);
        visit("ports.ingress" + std::to_string(i), ingress_[i]);
    }
}

} // namespace mcmgpu
