#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace faasflow::net {

namespace {

/** Flows this close to done (bytes) are considered complete; guards
 *  against floating-point residue stalling the completion event. */
constexpr double kDrainEpsilon = 0.5;

}  // namespace

/**
 * The flow's absolute ETA in µs given `remaining` materialised at
 * `now_us`. Rounded *up* to the next microsecond: truncation would leave
 * a sub-epsilon residue and respawn a zero-delay wakeup forever.
 */
static int64_t
etaUsOf(const double remaining, const double rate, const int64_t now_us)
{
    if (remaining <= kDrainEpsilon)
        return now_us;
    return now_us + static_cast<int64_t>(std::ceil(remaining / rate * 1e6));
}

Network::Network(sim::Simulator& sim) : Network(sim, Config{}) {}

Network::Network(sim::Simulator& sim, Config config)
    : sim_(sim), config_(config)
{
}

NodeId
Network::addNode(std::string name, double egress_bw, double ingress_bw)
{
    if (egress_bw <= 0.0 || ingress_bw <= 0.0)
        fatal("net: node '%s' needs positive NIC bandwidth", name.c_str());
    Node node;
    node.name = std::move(name);
    node.egress_bw = egress_bw;
    node.ingress_bw = ingress_bw;
    nodes_.push_back(std::move(node));
    return static_cast<NodeId>(nodes_.size() - 1);
}

void
Network::checkNode(NodeId id) const
{
    if (id < 0 || static_cast<size_t>(id) >= nodes_.size())
        panic("net: invalid node id %d", id);
}

const std::string&
Network::nodeName(NodeId id) const
{
    checkNode(id);
    return nodes_[static_cast<size_t>(id)].name;
}

void
Network::setNicBandwidth(NodeId id, double egress_bw, double ingress_bw)
{
    checkNode(id);
    if (egress_bw <= 0.0 || ingress_bw <= 0.0)
        fatal("net: NIC bandwidth must stay positive");
    Node& node = nodes_[static_cast<size_t>(id)];
    node.egress_bw = egress_bw;
    node.ingress_bw = ingress_bw;
    // Only the components touching this node's NICs can change.
    recomputeAffected(egressNic(id), ingressNic(id));
}

void
Network::setLinkUp(NodeId id, bool up)
{
    checkNode(id);
    Node& node = nodes_[static_cast<size_t>(id)];
    if (node.link_up == up)
        return;
    node.link_up = up;
    const SimTime now = sim_.now();
    if (trace_) {
        trace_->instant("fault", up ? "link-up" : "link-down",
                        static_cast<int>(obs::TraceTrack::Net), now);
    }

    if (!up) {
        // Stall every class crossing the node: charge progress at the old
        // rate first, then pin to zero. The surviving classes in the
        // stalled classes' components inherit the freed bandwidth.
        std::vector<int> seeds;
        const auto stallList = [&](const std::vector<uint32_t>& list) {
            for (const uint32_t cls : list) {
                PairClass& c = classes_[cls];
                if (c.stalled)
                    continue;
                advanceMembers(c, now.micros());
                c.rate = 0.0;
                c.stalled = true;
                if (c.wake.valid()) {
                    sim_.cancel(c.wake);
                    c.wake = {};
                }
                seeds.push_back(egressNic(c.src));
                seeds.push_back(ingressNic(c.dst));
            }
        };
        stallList(node.out_classes);
        stallList(node.in_classes);
        ++mark_epoch_;
        for (const int seed : seeds) {
            if (nicMark(seed) != mark_epoch_)
                recomputeComponentFrom(seed);
        }
        maybeVerify();
        return;
    }

    // Link healed: revive classes whose *both* endpoints are up again;
    // their flows resume where they left off.
    const auto reviveList = [&](const std::vector<uint32_t>& list) {
        for (const uint32_t cls : list) {
            PairClass& c = classes_[cls];
            if (c.stalled && nodes_[static_cast<size_t>(c.src)].link_up &&
                nodes_[static_cast<size_t>(c.dst)].link_up) {
                c.stalled = false;
                advanceMembers(c, now.micros());  // at rate 0: touch only
            }
        }
    };
    reviveList(node.out_classes);
    reviveList(node.in_classes);
    recomputeAffected(egressNic(id), ingressNic(id));
}

bool
Network::linkUp(NodeId id) const
{
    checkNode(id);
    return nodes_[static_cast<size_t>(id)].link_up;
}

void
Network::sendMessage(NodeId src, NodeId dst, int64_t bytes,
                     std::function<void()> on_delivered)
{
    checkNode(src);
    checkNode(dst);
    auto& sn = nodes_[static_cast<size_t>(src)];
    sn.stats.messages_sent++;
    sn.stats.bytes_sent += bytes;
    nodes_[static_cast<size_t>(dst)].stats.bytes_received += bytes;
    attemptSend(src, dst, bytes, std::move(on_delivered), 0);
}

void
Network::attemptSend(NodeId src, NodeId dst, int64_t bytes,
                     std::function<void()> on_delivered, int attempt)
{
    Node& sn = nodes_[static_cast<size_t>(src)];
    Node& dn = nodes_[static_cast<size_t>(dst)];
    if (src != dst && (!sn.link_up || !dn.link_up)) {
        // The sender only learns of the loss from its retransmission
        // timer: wait one (exponentially backed-off) timeout, try again.
        // Closed form timeout * backoff^attempt, saturating at the cap
        // (ldexp is the exact bit-shift path for the default 2x backoff).
        sn.stats.messages_resent++;
        SimTime wait = config_.resend_timeout;
        if (attempt > 0) {
            const double base = static_cast<double>(wait.micros());
            const double cap =
                static_cast<double>(config_.resend_cap.micros());
            const double scaled =
                config_.resend_backoff == 2.0
                    ? std::ldexp(base, attempt)
                    : base * std::pow(config_.resend_backoff,
                                      static_cast<double>(attempt));
            wait = scaled >= cap
                       ? config_.resend_cap
                       : SimTime::micros(static_cast<int64_t>(scaled));
        }
        sim_.schedule(wait, [this, src, dst, bytes, attempt,
                             cb = std::move(on_delivered)]() mutable {
            attemptSend(src, dst, bytes, std::move(cb), attempt + 1);
        });
        return;
    }
    const SimTime base =
        (src == dst) ? config_.loopback_latency : config_.hop_latency;
    const SimTime serialisation =
        SimTime::seconds(static_cast<double>(bytes) / config_.message_bandwidth);
    sim_.schedule(base + serialisation, std::move(on_delivered));
}

FlowId
Network::startFlow(NodeId src, NodeId dst, int64_t bytes,
                   std::function<void(SimTime)> on_complete)
{
    checkNode(src);
    checkNode(dst);
    if (src == dst)
        panic("net: same-node bulk flow (use local storage instead)");
    if (bytes < 0)
        panic("net: negative flow size");

    Node& sn = nodes_[static_cast<size_t>(src)];
    Node& dn = nodes_[static_cast<size_t>(dst)];
    sn.stats.flows_started++;
    sn.stats.bytes_sent += bytes;
    dn.stats.bytes_received += bytes;

    uint32_t slot;
    if (!flow_free_.empty()) {
        slot = flow_free_.back();
        flow_free_.pop_back();
    } else {
        slot = static_cast<uint32_t>(flows_.size());
        flows_.emplace_back();
    }
    const uint32_t cls = classOf(src, dst);
    PairClass& c = classes_[cls];
    const SimTime now = sim_.now();
    Flow& flow = flows_[slot];
    flow.id = FlowId{(static_cast<uint64_t>(slot) << 32) | flow.gen};
    flow.active = true;
    flow.cls = cls;
    flow.member = static_cast<uint32_t>(c.size());
    flow.seq = next_flow_seq_++;
    flow.bytes = bytes;
    flow.start = now;
    flow.on_complete = std::move(on_complete);
    flow.trace_span = 0;
    if (trace_ && trace_->enabled()) {
        flow.trace_span = trace_->openSpan(
            "xfer", strFormat("%s->%s", sn.name.c_str(), dn.name.c_str()),
            static_cast<int>(obs::TraceTrack::Net), now, 0,
            strFormat("%lld B", static_cast<long long>(bytes)));
    }
    ++active_flow_count_;
    ++sn.out_flows;
    ++dn.in_flows;
    if (c.size() == 0) {
        // The pair becomes active: it joins both NIC lists and, like a
        // new flow, starts from rate 0. It is stalled exactly while an
        // endpoint's link is down.
        c.out_pos = static_cast<uint32_t>(sn.out_classes.size());
        sn.out_classes.push_back(cls);
        c.in_pos = static_cast<uint32_t>(dn.in_classes.size());
        dn.in_classes.push_back(cls);
        c.rate = 0.0;
        c.settled = 0;
        c.stalled = !sn.link_up || !dn.link_up;
    }
    c.remaining.push_back(static_cast<double>(bytes));
    c.touch_us.push_back(now.micros());
    c.eta_us.push_back(0);
    c.slot.push_back(slot);
    const FlowId id = flow.id;

    if (c.stalled) {
        // Born stalled: takes no share, so no other rate can change.
        maybeVerify();
        return id;
    }

    if (sn.out_flows == 1 && dn.in_flows == 1) {
        // Fast path: an uncontended egress/ingress NIC pair forms its
        // own component — every other allocation is untouched by
        // construction.
        c.rate = std::min(sn.egress_bw, dn.ingress_bw);
        c.eta_us[0] = etaUsOf(c.remaining[0], c.rate, now.micros());
        c.settled = 1;
        armWake(cls, c.eta_us[0]);
        maybeVerify();
        return id;
    }

    // The new flow joins its src-egress and dst-ingress NICs into one
    // component, so a single seed covers it.
    recomputeAffected(egressNic(src));
    return id;
}

uint32_t
Network::classOf(NodeId src, NodeId dst)
{
    const uint64_t key = (static_cast<uint64_t>(src) << 32) |
                         static_cast<uint32_t>(dst);
    const auto [it, inserted] = class_of_.try_emplace(
        key, static_cast<uint32_t>(classes_.size()));
    if (inserted) {
        PairClass& c = classes_.emplace_back();
        c.src = src;
        c.dst = dst;
    }
    return it->second;
}

Network::Flow*
Network::findFlow(uint64_t packed)
{
    const uint32_t slot = static_cast<uint32_t>(packed >> 32);
    const uint32_t gen = static_cast<uint32_t>(packed);
    if (slot >= flows_.size())
        return nullptr;
    Flow& flow = flows_[slot];
    if (!flow.active || flow.gen != gen)
        return nullptr;
    return &flow;
}

const Network::Flow*
Network::findFlow(uint64_t packed) const
{
    return const_cast<Network*>(this)->findFlow(packed);
}

void
Network::releaseFlow(Flow& flow)
{
    flow.on_complete = nullptr;
    flow.active = false;
    if (++flow.gen == 0)  // keep FlowId 0 invalid across wraparound
        flow.gen = 1;
    flow_free_.push_back(static_cast<uint32_t>(flow.id.value >> 32));
    --active_flow_count_;
}

size_t
Network::nodeActiveFlows(NodeId id) const
{
    checkNode(id);
    const Node& node = nodes_[static_cast<size_t>(id)];
    return node.out_flows + node.in_flows;
}

double
Network::egressBandwidth(NodeId id) const
{
    checkNode(id);
    return nodes_[static_cast<size_t>(id)].egress_bw;
}

double
Network::ingressBandwidth(NodeId id) const
{
    checkNode(id);
    return nodes_[static_cast<size_t>(id)].ingress_bw;
}

double
Network::flowRate(FlowId id) const
{
    const Flow* flow = findFlow(id.value);
    return flow == nullptr ? 0.0 : classes_[flow->cls].rate;
}

const NicStats&
Network::stats(NodeId id) const
{
    checkNode(id);
    return nodes_[static_cast<size_t>(id)].stats;
}

void
Network::advanceMembers(PairClass& c, int64_t now_us)
{
    if (c.touched_us == now_us)
        return;  // every member was charged at this instant already
    if (c.rate > 0.0) {
        // Members mostly share their last touch, so the elapsed time and
        // the charge are worked out once per run of equal touches (the
        // same operations on the same values as per member).
        int64_t last = now_us;
        double charge = 0.0;
        for (size_t j = 0; j < c.size(); ++j) {
            const int64_t touch = c.touch_us[j];
            if (touch >= now_us)
                continue;  // no time elapsed: nothing to charge
            if (touch != last) {
                last = touch;
                charge = c.rate * (SimTime::micros(now_us) -
                                   SimTime::micros(touch))
                                      .secondsF();
            }
            c.remaining[j] = std::max(0.0, c.remaining[j] - charge);
        }
    }
    std::fill(c.touch_us.begin(), c.touch_us.end(), now_us);
    c.touched_us = now_us;
}

void
Network::collectComponent(int seed, std::vector<uint32_t>& out)
{
    uint64_t& seed_mark = nicMark(seed);
    if (seed_mark == mark_epoch_)
        return;
    seed_mark = mark_epoch_;
    bfs_stack_.clear();
    bfs_stack_.push_back(seed);
    while (!bfs_stack_.empty()) {
        const int nic = bfs_stack_.back();
        bfs_stack_.pop_back();
        Node& node = nodes_[static_cast<size_t>(nic >> 1)];
        const bool ingress = (nic & 1) != 0;
        for (const uint32_t cls :
             ingress ? node.in_classes : node.out_classes) {
            PairClass& c = classes_[cls];
            if (c.stalled || c.mark == mark_epoch_)
                continue;
            c.mark = mark_epoch_;
            out.push_back(cls);
            // Each class joins exactly two directional NICs: its source's
            // egress and its destination's ingress.
            const int peer = ingress ? egressNic(c.src) : ingressNic(c.dst);
            uint64_t& peer_mark = nicMark(peer);
            if (peer_mark != mark_epoch_) {
                peer_mark = mark_epoch_;
                bfs_stack_.push_back(peer);
            }
        }
    }
    // No canonical sort needed: waterFillRates is order-independent by
    // construction (see the round subtraction there), so any discovery
    // order yields bit-identical rates — the determinism half of the
    // incremental scheme.
}

void
Network::waterFillRates(const std::vector<FillItem>& items,
                        std::vector<double>& rates)
{
    // Progressive filling: repeatedly saturate the NIC capacity whose
    // fair share is smallest, freezing its flows at that rate. Restricted
    // to one component, whose allocation is independent of the rest of
    // the network by construction.
    const size_t n = items.size();
    rates.assign(n, 0.0);

    // Gather the component's NICs into the dense scratch table (wf_nodes_)
    // and translate each item's endpoints to slot indices once up front:
    // the filling rounds below then touch only small contiguous arrays,
    // never the fat Node records.
    ++scratch_epoch_;
    wf_nodes_.clear();
    wf_src_slot_.resize(n);
    wf_dst_slot_.resize(n);
    const auto slotOf = [this](NodeId id) -> uint32_t {
        Node& node = nodes_[static_cast<size_t>(id)];
        if (node.scratch_mark != scratch_epoch_) {
            node.scratch_mark = scratch_epoch_;
            node.scratch_slot = static_cast<uint32_t>(wf_nodes_.size());
            wf_nodes_.push_back(WfNode{node.egress_bw, node.ingress_bw});
        }
        return node.scratch_slot;
    };
    for (size_t i = 0; i < n; ++i) {
        const uint32_t ss = slotOf(items[i].src);
        const uint32_t ds = slotOf(items[i].dst);
        wf_src_slot_[i] = ss;
        wf_dst_slot_[i] = ds;
        wf_nodes_[ss].eg_cnt += items[i].count;
        wf_nodes_[ds].in_cnt += items[i].count;
    }

    // Indices into items/rates still unfrozen (member buffers: the
    // water-fill runs on every flow event, so no per-call allocation).
    auto& unfrozen = wf_unfrozen_;
    auto& still = wf_still_;
    auto& frozen_now = wf_frozen_;
    unfrozen.resize(n);
    for (size_t i = 0; i < n; ++i)
        unfrozen[i] = i;

    while (!unfrozen.empty()) {
        // Compute each NIC's fair share once per round (one division per
        // NIC, reused for every item below) and take the global minimum.
        double best_share = std::numeric_limits<double>::infinity();
        for (WfNode& wn : wf_nodes_) {
            if (wn.eg_cnt > 0) {
                wn.eg_share = wn.eg_left / wn.eg_cnt;
                best_share = std::min(best_share, wn.eg_share);
            }
            if (wn.in_cnt > 0) {
                wn.in_share = wn.in_left / wn.in_cnt;
                best_share = std::min(best_share, wn.in_share);
            }
        }
        assert(best_share < std::numeric_limits<double>::infinity());

        still.clear();
        frozen_now.clear();
        // A small tolerance keeps ties (equal shares) in one round.
        const double freeze_below = best_share + (best_share * 1e-12 + 1e-9);
        for (const size_t i : unfrozen) {
            if (wf_nodes_[wf_src_slot_[i]].eg_share <= freeze_below ||
                wf_nodes_[wf_dst_slot_[i]].in_share <= freeze_below) {
                rates[i] = best_share;
                frozen_now.push_back(i);
            } else {
                still.push_back(i);
            }
        }
        // Every flow frozen this round freezes at the same best_share, so
        // each node's capacity drops by count*best_share — a single
        // multiply instead of a chain of subtractions. This makes the
        // whole fill independent of iteration order and of how flows are
        // grouped into items (min, division and integer counts are all
        // order-free), which is what lets the incremental recompute fill
        // pair classes, skip any canonical sorting, and still bit-match
        // the flow-by-flow oracle.
        for (const size_t i : frozen_now) {
            wf_nodes_[wf_src_slot_[i]].eg_froze += items[i].count;
            wf_nodes_[wf_dst_slot_[i]].in_froze += items[i].count;
        }
        for (const size_t i : frozen_now) {
            WfNode& sn = wf_nodes_[wf_src_slot_[i]];
            WfNode& dn = wf_nodes_[wf_dst_slot_[i]];
            if (sn.eg_froze > 0) {
                sn.eg_left =
                    std::max(0.0, sn.eg_left - sn.eg_froze * best_share);
                sn.eg_cnt -= sn.eg_froze;
                sn.eg_froze = 0;
            }
            if (dn.in_froze > 0) {
                dn.in_left =
                    std::max(0.0, dn.in_left - dn.in_froze * best_share);
                dn.in_cnt -= dn.in_froze;
                dn.in_froze = 0;
            }
        }
        if (frozen_now.empty())
            panic("net: progressive filling failed to converge");
        unfrozen.swap(still);
    }
}

void
Network::recomputeComponentFrom(int seed)
{
    comp_.clear();
    collectComponent(seed, comp_);
    applyRates(comp_);
}

void
Network::applyRates(const std::vector<uint32_t>& comp)
{
    if (comp.empty())
        return;
    fill_items_.clear();
    for (const uint32_t cls : comp) {
        const PairClass& c = classes_[cls];
        fill_items_.push_back(
            FillItem{c.src, c.dst, static_cast<int>(c.size())});
    }
    waterFillRates(fill_items_, fill_rates_);
    const int64_t now_us = sim_.now().micros();

    // Apply the allocation and re-arm the component's wakeup: one event
    // at the earliest member ETA serves the whole component, so a
    // recompute costs at most one cancel+schedule — not one per flow.
    // `owner` is whichever class carried the previous wakeup (two can
    // appear transiently when components merge).
    PairClass* owner = nullptr;
    uint32_t carrier = 0;
    int64_t when = std::numeric_limits<int64_t>::max();
    for (size_t i = 0; i < comp.size(); ++i) {
        PairClass& c = classes_[comp[i]];
        if (c.wake.valid()) {
            if (owner == nullptr) {
                owner = &c;
            } else {
                sim_.cancel(c.wake);
                c.wake = {};
            }
        }
        size_t stale = c.settled;
        if (c.rate != fill_rates_[i]) {
            // Rate changed: charge progress at the *old* rate, then every
            // stored ETA is stale. An unchanged rate means unchanged
            // trajectories: only members that joined since the last fill
            // (at this very instant, so nothing to charge) need an ETA.
            advanceMembers(c, now_us);
            c.rate = fill_rates_[i];
            stale = 0;
        }
        int64_t class_min = std::numeric_limits<int64_t>::max();
        for (size_t j = 0; j < stale; ++j)
            class_min = std::min(class_min, c.eta_us[j]);
        for (size_t j = stale; j < c.size(); ++j) {
            c.eta_us[j] = etaUsOf(c.remaining[j], c.rate, now_us);
            class_min = std::min(class_min, c.eta_us[j]);
        }
        c.settled = static_cast<uint32_t>(c.size());
        if (class_min < when) {
            when = class_min;
            carrier = comp[i];
        }
    }

    if (owner != nullptr) {
        if (owner->wake_us == when)
            return;  // the pending wakeup already fires at the right time
        sim_.cancel(owner->wake);
        owner->wake = {};
    }
    armWake(carrier, when);
}

void
Network::armWake(uint32_t cls, int64_t when_us)
{
    PairClass& c = classes_[cls];
    c.wake_us = when_us;
    c.wake = sim_.scheduleAt(SimTime::micros(when_us),
                             [this, cls] { onWake(cls); });
}

void
Network::recomputeAffected(int nic_a, int nic_b)
{
    ++mark_epoch_;
    recomputeComponentFrom(nic_a);
    if (nic_b >= 0 && nicMark(nic_b) != mark_epoch_)
        recomputeComponentFrom(nic_b);
    maybeVerify();
}

void
Network::detachClass(uint32_t cls)
{
    PairClass& c = classes_[cls];
    // Swap-remove from both NIC lists, fixing the moved class's position
    // (an out list only holds classes sourced at the node, so the moved
    // class's position field is unambiguous).
    std::vector<uint32_t>& out = nodes_[static_cast<size_t>(c.src)].out_classes;
    out[c.out_pos] = out.back();
    classes_[out[c.out_pos]].out_pos = c.out_pos;
    out.pop_back();
    std::vector<uint32_t>& in = nodes_[static_cast<size_t>(c.dst)].in_classes;
    in[c.in_pos] = in.back();
    classes_[in[c.in_pos]].in_pos = c.in_pos;
    in.pop_back();
    if (c.wake.valid()) {
        sim_.cancel(c.wake);
        c.wake = {};
    }
}

void
Network::onWake(uint32_t cls)
{
    PairClass& fired = classes_[cls];
    assert(fired.size() > 0 && !fired.stalled);
    fired.wake = {};  // this event was the component's wakeup
    const SimTime now = sim_.now();
    const int64_t now_us = now.micros();

    // The wakeup covers the whole component: advance every member and
    // split off the drained ones. Batching the drain is what makes a
    // fan-out of equal flows complete in O(component), not O(component²).
    ++mark_epoch_;
    comp_.clear();
    // The class's src-egress NIC always carries it, so seeding there
    // collects its whole component, the class included.
    collectComponent(egressNic(fired.src), comp_);

    struct Done
    {
        uint64_t seq;
        uint32_t slot;
        NodeId src;
        NodeId dst;
        int64_t bytes;
        SimTime elapsed;
        std::function<void(SimTime)> cb;
    };
    std::vector<Done> done;
    survivors_.clear();
    for (const uint32_t k : comp_) {
        PairClass& c = classes_[k];
        advanceMembers(c, now_us);
        // Drained members leave; survivors close ranks in start order,
        // and each moved one's slab record learns its new index.
        size_t kept = 0;
        for (size_t j = 0; j < c.size(); ++j) {
            const uint32_t slot = c.slot[j];
            if (c.remaining[j] > kDrainEpsilon) {
                if (kept != j) {
                    c.remaining[kept] = c.remaining[j];
                    c.touch_us[kept] = c.touch_us[j];
                    c.eta_us[kept] = c.eta_us[j];
                    c.slot[kept] = slot;
                    flows_[slot].member = static_cast<uint32_t>(kept);
                }
                ++kept;
                continue;
            }
            Flow& f = flows_[slot];
            if (trace_)
                trace_->closeSpan(f.trace_span, now);
            done.push_back(Done{f.seq, slot, c.src, c.dst, f.bytes,
                                now - f.start, std::move(f.on_complete)});
        }
        if (kept < c.size()) {
            c.remaining.resize(kept);
            c.touch_us.resize(kept);
            c.eta_us.resize(kept);
            c.slot.resize(kept);
            c.settled = static_cast<uint32_t>(kept);
        }
        if (kept > 0)
            survivors_.push_back(k);
        else
            detachClass(k);
    }

    if (done.empty()) {
        // Woken early (floating-point ceil residue, or a wakeup kept
        // from before a rate change): nothing drained, rates are still
        // valid — just re-arm at the true earliest ETA. Stale stored
        // ETAs (<= now) are recomputed from the freshly advanced
        // remaining, so the new wakeup is strictly in the future.
        uint32_t carrier = 0;
        int64_t when = std::numeric_limits<int64_t>::max();
        for (const uint32_t k : comp_) {
            PairClass& c = classes_[k];
            for (size_t j = 0; j < c.size(); ++j) {
                if (c.eta_us[j] <= now_us)
                    c.eta_us[j] = etaUsOf(c.remaining[j], c.rate, now_us);
            }
            const int64_t class_min =
                *std::min_element(c.eta_us.begin(), c.eta_us.end());
            if (class_min < when) {
                when = class_min;
                carrier = k;
            }
        }
        armWake(carrier, when);
        return;
    }

    // Canonical completion order: ascending start order (batches are
    // small, and slab slot reuse makes raw ids non-monotone).
    std::sort(done.begin(), done.end(),
              [](const Done& a, const Done& b) { return a.seq < b.seq; });
    for (const Done& d : done) {
        --nodes_[static_cast<size_t>(d.src)].out_flows;
        --nodes_[static_cast<size_t>(d.dst)].in_flows;
        releaseFlow(flows_[d.slot]);
    }

    if (!survivors_.empty()) {
        // Star fast path: if every surviving class shares one *directed*
        // NIC — the same source egress or the same destination ingress —
        // they are still a single component, so reuse the collected set
        // instead of re-walking the graph. This is the common shape
        // (many workers fetching from, or saving to, one storage hub).
        // A node that merely appears as src of some classes and dst of
        // others does NOT qualify: its egress and ingress are separate
        // vertices and the two class sets are separate components.
        NodeId all_src = classes_[survivors_[0]].src;
        NodeId all_dst = classes_[survivors_[0]].dst;
        for (const uint32_t k : survivors_) {
            if (all_src >= 0 && classes_[k].src != all_src)
                all_src = -1;
            if (all_dst >= 0 && classes_[k].dst != all_dst)
                all_dst = -1;
            if (all_src < 0 && all_dst < 0)
                break;
        }
        if (all_src >= 0 || all_dst >= 0) {
            applyRates(survivors_);
        } else {
            // The drained flows may have split the component; re-seed
            // from every touched NIC that still carries flows.
            ++mark_epoch_;
            for (const Done& d : done) {
                Node& sn = nodes_[static_cast<size_t>(d.src)];
                if (sn.mark_eg != mark_epoch_ && sn.out_flows > 0)
                    recomputeComponentFrom(egressNic(d.src));
                Node& dn = nodes_[static_cast<size_t>(d.dst)];
                if (dn.mark_in != mark_epoch_ && dn.in_flows > 0)
                    recomputeComponentFrom(ingressNic(d.dst));
            }
        }
    }
    maybeVerify();

    // Fire last, in start order: callbacks may start new flows
    // reentrantly.
    for (Done& d : done) {
        if (flow_observer_)
            flow_observer_(d.src, d.dst, d.bytes, d.elapsed);
        if (d.cb)
            d.cb(d.elapsed);
    }
}

bool
Network::ratesMatchFullRecompute()
{
    // Oracle, independent of the pair classes: rebuild every component
    // from scratch, flow by flow (a union-find over directional NICs),
    // water-fill each one with one item per flow, and compare bitwise
    // against the rate each flow's class holds.
    std::vector<size_t> parent(nodes_.size() * 2);
    std::iota(parent.begin(), parent.end(), size_t{0});
    const auto root = [&parent](int nic) {
        size_t v = static_cast<size_t>(nic);
        while (parent[v] != v)
            v = parent[v] = parent[parent[v]];
        return v;
    };
    std::vector<uint32_t> live;
    for (uint32_t slot = 0; slot < flows_.size(); ++slot) {
        const Flow& flow = flows_[slot];
        if (!flow.active)
            continue;
        const PairClass& c = classes_[flow.cls];
        if (flow.member >= c.size() || c.slot[flow.member] != slot)
            return false;
        const bool stalled = !nodes_[static_cast<size_t>(c.src)].link_up ||
                             !nodes_[static_cast<size_t>(c.dst)].link_up;
        if (stalled != c.stalled)
            return false;
        if (stalled) {
            if (c.rate != 0.0)
                return false;
            continue;
        }
        parent[root(egressNic(c.src))] = root(ingressNic(c.dst));
        live.push_back(slot);
    }

    // Group the live flows by component, then fill each component.
    std::vector<std::pair<size_t, uint32_t>> by_comp;
    by_comp.reserve(live.size());
    for (const uint32_t slot : live) {
        const PairClass& c = classes_[flows_[slot].cls];
        by_comp.emplace_back(root(egressNic(c.src)), slot);
    }
    std::sort(by_comp.begin(), by_comp.end());
    std::vector<FillItem> items;
    std::vector<double> rates;
    for (size_t begin = 0; begin < by_comp.size();) {
        size_t end = begin;
        items.clear();
        for (; end < by_comp.size() && by_comp[end].first ==
                                           by_comp[begin].first;
             ++end) {
            const PairClass& c = classes_[flows_[by_comp[end].second].cls];
            items.push_back(FillItem{c.src, c.dst, 1});
        }
        waterFillRates(items, rates);
        for (size_t i = begin; i < end; ++i) {
            if (classes_[flows_[by_comp[i].second].cls].rate !=
                rates[i - begin]) {
                return false;
            }
        }
        begin = end;
    }
    return true;
}

void
Network::maybeVerify()
{
    if (!config_.verify_rates)
        return;
    if (!ratesMatchFullRecompute())
        panic("net: incremental rates diverged from full max-min recompute");
}

}  // namespace faasflow::net
