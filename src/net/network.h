#ifndef FAASFLOW_NET_NETWORK_H_
#define FAASFLOW_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sim_time.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace faasflow::net {

/** Index of a node attached to the network. */
using NodeId = int;

/** Handle for an in-flight bulk transfer. Opaque: internally packs a
 *  slab slot and a generation, like sim::EventId. */
struct FlowId
{
    uint64_t value = 0;
    bool valid() const { return value != 0; }
    bool operator==(const FlowId&) const = default;
};

/** Per-node traffic counters, for bandwidth-utilisation reporting. */
struct NicStats
{
    int64_t bytes_sent = 0;
    int64_t bytes_received = 0;
    uint64_t messages_sent = 0;
    uint64_t flows_started = 0;
    /** Send attempts deferred because a link on the path was down. */
    uint64_t messages_resent = 0;
};

/**
 * Flow-level network model of a cluster on a non-blocking switch.
 *
 * Each node has an ingress and an egress NIC capacity; every bulk Flow is
 * allocated a rate by progressive filling (max-min fairness) across all
 * NIC capacities it traverses, so transfer latencies react to contention
 * exactly as the paper's wondershaper experiments do.
 *
 * Under max-min with equal weights, all flows between one (src, dst)
 * node pair always get one rate. The allocator therefore works on *pair
 * classes*: the active flows of a pair, counted with a multiplicity.
 * Each class keeps its members' progress (remaining bytes, last touch,
 * own ETA) in struct-of-arrays form and advances it flow by flow, with
 * the same arithmetic at the same instants as a per-flow allocator.
 *
 * The allocator is *incremental*: classes connected through shared NIC
 * capacities form components, and a flow add/complete/link flip only
 * re-runs water-filling over the affected component(s) — classes in
 * other components keep their frozen rates untouched. Components are
 * built over *directional* NICs (a node's egress and ingress are separate
 * capacities, so an outbound and an inbound flow at the same node do not
 * contend and land in separate components — e.g. saves and fetches
 * against a storage hub). Each component is an independent max-min
 * problem, and the fill uses only integer counts and `count × share`
 * subtractions, so filling classes gives bit-identical rates to filling
 * flows; a debug-mode oracle that rebuilds components and fills them
 * flow by flow proves it on every update (Config::verify_rates). One
 * wakeup event per component, carried by one of its classes, fires at
 * the earliest member ETA, so an event touches O(its component), not
 * O(all flows).
 *
 * Small control-plane messages (task assignments, state updates) are
 * modelled with a fixed per-hop latency plus an unshared serialisation
 * term; they represent single TCP round trips and are too small to move
 * the fair-share allocation.
 */
class Network
{
  public:
    struct Config
    {
        /** One-way latency of a cross-node control message. */
        SimTime hop_latency = SimTime::millis(0.5);
        /** Latency of a loopback (same-node) message. */
        SimTime loopback_latency = SimTime::micros(30);
        /** Serialisation bandwidth applied to control messages. */
        double message_bandwidth = 1e9;  // bytes/s

        /** TCP-style retransmission of control messages across a dead
         *  link: the first retry fires after `resend_timeout`, each
         *  further one backs off by `resend_backoff` up to `resend_cap`.
         *  Messages are never dropped — the engines rely on exactly-once
         *  eventual delivery (duplicates are handled by epoch checks). */
        SimTime resend_timeout = SimTime::millis(200);
        double resend_backoff = 2.0;
        SimTime resend_cap = SimTime::seconds(2);

        /**
         * Cross-checks every incremental rate update against a full
         * max-min recompute over all flows and panics on divergence.
         * Defaults on in assert-enabled (Debug/Sanitize) builds so the
         * whole test suite doubles as an oracle; keep off in Release.
         */
        bool verify_rates =
#ifndef NDEBUG
            true;
#else
            false;
#endif
    };

    explicit Network(sim::Simulator& sim);
    Network(sim::Simulator& sim, Config config);

    /**
     * Attaches a node.
     * @param name human-readable label for stats output
     * @param egress_bw NIC egress capacity, bytes/s
     * @param ingress_bw NIC ingress capacity, bytes/s
     */
    NodeId addNode(std::string name, double egress_bw, double ingress_bw);

    size_t nodeCount() const { return nodes_.size(); }
    const std::string& nodeName(NodeId id) const;

    /** Re-points a node's NIC capacities (wondershaper stand-in). Active
     *  flows are re-allocated immediately. */
    void setNicBandwidth(NodeId id, double egress_bw, double ingress_bw);

    /**
     * Takes a node's link down (or back up) — the fault-injection
     * primitive. While down, bulk flows crossing the node stall at rate
     * zero (they resume where they left off when the link heals) and
     * control messages to/from the node are retried with timeout/backoff
     * until the link is up again.
     */
    void setLinkUp(NodeId id, bool up);
    bool linkUp(NodeId id) const;

    /**
     * Sends a small control message; `on_delivered` fires after the hop
     * latency (loopback latency when src == dst) plus serialisation time.
     */
    void sendMessage(NodeId src, NodeId dst, int64_t bytes,
                     std::function<void()> on_delivered);

    /**
     * Starts a bulk data transfer sharing NIC bandwidth with all other
     * flows. `on_complete` receives the transfer's total elapsed time.
     * A same-node (src == dst) flow is not meaningful here — local data
     * movement bypasses the network via FaaStore — and is rejected.
     */
    FlowId startFlow(NodeId src, NodeId dst, int64_t bytes,
                     std::function<void(SimTime elapsed)> on_complete);

    /** Number of currently active bulk flows. */
    size_t activeFlows() const { return active_flow_count_; }

    /** Active bulk flows touching `id` (either NIC), stalled ones
     *  included — the queue-depth gauge of a hub node (the storage
     *  server). */
    size_t nodeActiveFlows(NodeId id) const;

    double egressBandwidth(NodeId id) const;
    double ingressBandwidth(NodeId id) const;

    /** Attaches the activity recorder: every bulk flow becomes an "xfer"
     *  span on the network track, link flips become fault instants. */
    void setTrace(obs::TraceRecorder* trace) { trace_ = trace; }

    /** Observer fired once per completed bulk flow — the online
     *  profiler's transfer hook. Observes only; it runs after the
     *  completion callbacks' rate updates are settled and must not
     *  start flows itself. */
    using FlowObserver =
        std::function<void(NodeId src, NodeId dst, int64_t bytes,
                           SimTime elapsed)>;
    void setFlowObserver(FlowObserver observer)
    {
        flow_observer_ = std::move(observer);
    }

    /** Current allocated rate of a flow in bytes/s; 0 if finished. */
    double flowRate(FlowId id) const;

    const NicStats& stats(NodeId id) const;

    /**
     * Test/debug oracle: rebuilds every component from scratch, flow by
     * flow and independently of the pair classes, recomputes its max-min
     * allocation with one fill item per flow, and compares it bitwise
     * against the incrementally maintained rates. True when they match
     * exactly.
     */
    bool ratesMatchFullRecompute();

  private:
    /** Slab-resident flow record: identity and completion data. Progress
     *  lives in the flow's pair class, at index `member`. */
    struct Flow
    {
        FlowId id;
        uint32_t gen = 1;         ///< bumped on retire; packed into FlowId
        bool active = false;      ///< slab slot currently holds a flow
        uint32_t cls = 0;         ///< index into classes_
        uint32_t member = 0;      ///< index in the class's member arrays
        uint64_t seq = 0;         ///< monotone start order (canonical
                                  ///< completion-callback ordering)
        uint64_t trace_span = 0;  ///< open "xfer" span while tracing
        int64_t bytes = 0;        ///< total size (flow-observer report)
        SimTime start;
        std::function<void(SimTime)> on_complete;
    };

    /**
     * The active flows of one (src, dst) pair. They share one rate, and
     * an outage at either endpoint stalls them all. Member progress is
     * kept per flow so it advances exactly as a lone flow's would.
     */
    struct PairClass
    {
        NodeId src = 0;
        NodeId dst = 0;
        double rate = 0.0;     ///< bytes/s per member, from the last fill
        bool stalled = false;  ///< an endpoint's link is down: rate 0
        uint64_t mark = 0;     ///< component-walk visit epoch
        uint32_t out_pos = 0;  ///< index in the src node's out_classes
        uint32_t in_pos = 0;   ///< index in the dst node's in_classes
        /** The component's wakeup, when this class carries it, and the
         *  µs it fires at. */
        sim::EventId wake;
        int64_t wake_us = 0;
        /** Members [0, settled) have an ETA at the current rate; later
         *  ones joined since the last fill. */
        uint32_t settled = 0;
        /** Every member was last charged at this µs. Members join with
         *  a touch of now, so a stale value never equals a later now. */
        int64_t touched_us = -1;
        // Member arrays, one entry per active flow of the pair.
        std::vector<double> remaining;  ///< bytes left at `touch_us`
        std::vector<int64_t> touch_us;  ///< when `remaining` was charged
        /** Own absolute ETA in µs; exact while `rate` is unchanged. */
        std::vector<int64_t> eta_us;
        std::vector<uint32_t> slot;     ///< the member's flow slab slot

        size_t size() const { return slot.size(); }
    };

    struct Node
    {
        std::string name;
        double egress_bw;
        double ingress_bw;
        NicStats stats;
        bool link_up = true;
        std::vector<uint32_t> out_classes;  ///< non-empty, sourced here
        std::vector<uint32_t> in_classes;   ///< non-empty, sinking here
        size_t out_flows = 0;  ///< flows sourced here, stalled included
        size_t in_flows = 0;   ///< flows sinking here, stalled included
        uint64_t mark_eg = 0;      ///< egress-NIC component-walk epoch
        uint64_t mark_in = 0;      ///< ingress-NIC component-walk epoch
        uint64_t scratch_mark = 0; ///< water-filling scratch epoch
        uint32_t scratch_slot = 0; ///< index into wf_nodes_ while current
    };

    /** Directional NIC handle: a component-graph vertex. */
    static int egressNic(NodeId id) { return id << 1; }
    static int ingressNic(NodeId id) { return (id << 1) | 1; }

    /** One water-filling input: `count` flows from `src` to `dst`. */
    struct FillItem
    {
        NodeId src;
        NodeId dst;
        int count;
    };

    /** Dense per-component water-filling scratch: one cache line per
     *  touched node instead of pointer-chasing the fat Node records. */
    struct WfNode
    {
        double eg_left;
        double in_left;
        double eg_share = 0.0;  ///< per-round cached left/cnt
        double in_share = 0.0;
        int eg_cnt = 0;
        int in_cnt = 0;
        int eg_froze = 0;  ///< flows frozen at this NIC this round
        int in_froze = 0;
    };

    sim::Simulator& sim_;
    Config config_;
    std::vector<Node> nodes_;
    obs::TraceRecorder* trace_ = nullptr;
    FlowObserver flow_observer_;

    /** Flow slab: slots are reused via a free list and invalidated by a
     *  generation bump, so starting/completing a flow never allocates or
     *  hashes once the slab is warm. */
    std::vector<Flow> flows_;
    std::vector<uint32_t> flow_free_;
    size_t active_flow_count_ = 0;
    uint64_t next_flow_seq_ = 1;
    /** Every pair class ever used; an emptied class stays for reuse. */
    std::vector<PairClass> classes_;
    std::unordered_map<uint64_t, uint32_t> class_of_;  ///< (src, dst) key
    uint64_t mark_epoch_ = 0;
    uint64_t scratch_epoch_ = 0;

    // Reused buffers for the hot component walk (no per-event allocation
    // once warm).
    std::vector<uint32_t> comp_;  ///< of class indices
    std::vector<uint32_t> survivors_;
    std::vector<FillItem> fill_items_;
    std::vector<double> fill_rates_;
    std::vector<int> bfs_stack_;  ///< of directional NIC handles
    std::vector<WfNode> wf_nodes_;
    std::vector<uint32_t> wf_src_slot_;
    std::vector<uint32_t> wf_dst_slot_;
    std::vector<size_t> wf_unfrozen_;
    std::vector<size_t> wf_still_;
    std::vector<size_t> wf_frozen_;

    void checkNode(NodeId id) const;

    /** One send attempt; defers with backoff while a link is down. */
    void attemptSend(NodeId src, NodeId dst, int64_t bytes,
                     std::function<void()> on_delivered, int attempt);

    /** The class of (src, dst), created empty on first use. */
    uint32_t classOf(NodeId src, NodeId dst);

    /** Looks up a live flow by packed id; nullptr if retired/stale. */
    Flow* findFlow(uint64_t packed);
    const Flow* findFlow(uint64_t packed) const;

    /** Returns the flow's slot to the free list and stales its id. */
    void releaseFlow(Flow& flow);

    /** Charges elapsed time since each member's last touch at the
     *  class's current rate. */
    static void advanceMembers(PairClass& c, int64_t now_us);

    uint64_t&
    nicMark(int nic)
    {
        Node& node = nodes_[static_cast<size_t>(nic >> 1)];
        return (nic & 1) ? node.mark_in : node.mark_eg;
    }

    /**
     * Collects the connected component of active, unstalled classes
     * reachable from the directional NIC `seed` into `out` (discovery
     * order — water-filling is order-independent), under the current
     * mark_epoch_. No-op for NICs already visited this epoch.
     */
    void collectComponent(int seed, std::vector<uint32_t>& out);

    /**
     * Pure progressive filling (max-min) over one component. Writes each
     * item's per-flow rate into `rates`, aligned with `items`. Mutates
     * only node scratch fields.
     */
    void waterFillRates(const std::vector<FillItem>& items,
                        std::vector<double>& rates);

    /** Re-runs water-filling over the component(s) of the seed NICs and
     *  applies the new rates (advancing progress, rescheduling ETAs). */
    void recomputeAffected(int nic_a, int nic_b = -1);
    void recomputeComponentFrom(int seed);

    /** Water-fills `comp` (one connected component of classes), applies
     *  the new rates and re-arms the component's single wakeup at the
     *  earliest member ETA. */
    void applyRates(const std::vector<uint32_t>& comp);

    /** Schedules the component's wakeup at `when_us`, carried by `cls`. */
    void armWake(uint32_t cls, int64_t when_us);

    /** Takes an emptied class off its nodes' lists and drops any wakeup
     *  it still carries. */
    void detachClass(uint32_t cls);

    /** The component's wakeup, carried by class `cls`: advances every
     *  member, retires the drained ones and refills the survivors. */
    void onWake(uint32_t cls);

    void maybeVerify();
};

}  // namespace faasflow::net

#endif  // FAASFLOW_NET_NETWORK_H_
