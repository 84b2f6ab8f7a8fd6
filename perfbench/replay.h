#ifndef FAASFLOW_PERFBENCH_REPLAY_H_
#define FAASFLOW_PERFBENCH_REPLAY_H_

#include <cstdint>

#include "net/network.h"
#include "obs/trace.h"
#include "spans.h"

namespace perfbench {

struct ReplayResult
{
    uint64_t flows = 0;
    /** Flows whose replayed completion microsecond differs from the
     *  recorded one. */
    uint64_t mismatches = 0;
    size_t peak_active_flows = 0;
};

/**
 * Replays the bulk traffic of a traced run through a standalone
 * sim::Simulator + net::Network: the topology is rebuilt from the
 * recorded network's node names and NIC capacities, and every recorded
 * "xfer" span's flow is started, in recorded order, at its recorded start
 * microsecond, with one pending start event at a time. Control messages
 * are not replayed. The network simulation runs inside a "net.replay"
 * span, so its host time is the network layer's share of the run.
 */
ReplayResult replayFlows(const faasflow::net::Network& recorded,
                         const faasflow::obs::TraceRecorder& trace,
                         SpanLog& spans, int run);

}  // namespace perfbench

#endif  // FAASFLOW_PERFBENCH_REPLAY_H_
