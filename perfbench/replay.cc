#include "replay.h"

#include <algorithm>
#include <charconv>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/simulator.h"

namespace perfbench {

using namespace faasflow;

namespace {

struct RecordedFlow
{
    net::NodeId src = 0;
    net::NodeId dst = 0;
    int64_t bytes = 0;
    int64_t start_us = 0;
    int64_t end_us = 0;
};

}  // namespace

ReplayResult
replayFlows(const net::Network& recorded, const obs::TraceRecorder& trace,
            SpanLog& spans, int run)
{
    std::unordered_map<std::string, net::NodeId> ids;
    for (size_t i = 0; i < recorded.nodeCount(); ++i) {
        const auto id = static_cast<net::NodeId>(i);
        ids.emplace(recorded.nodeName(id), id);
    }

    // Network::startFlow records each flow as an "xfer" span named
    // "<src>-><dst>" with the detail "<bytes> B". A span that cannot be
    // replayed (still open, or naming an unknown node) is a mismatch.
    ReplayResult result;
    std::vector<RecordedFlow> flows;
    for (const obs::TraceRecorder::Event& event : trace.events()) {
        if (trace.str(event.category) != "xfer")
            continue;
        ++result.flows;
        const std::string& name = trace.str(event.name);
        const size_t arrow = name.find("->");
        const auto src = ids.find(name.substr(0, arrow));
        const auto dst = arrow == std::string::npos
                             ? ids.end()
                             : ids.find(name.substr(arrow + 2));
        RecordedFlow flow;
        const auto parsed = std::from_chars(
            event.detail.data(), event.detail.data() + event.detail.size(),
            flow.bytes);
        if (event.dur_us < 0 || src == ids.end() || dst == ids.end() ||
            parsed.ec != std::errc()) {
            ++result.mismatches;
            continue;
        }
        flow.src = src->second;
        flow.dst = dst->second;
        flow.start_us = event.start_us;
        flow.end_us = event.start_us + event.dur_us;
        flows.push_back(flow);
    }

    SpanScope span(spans, "net.replay", run);
    sim::Simulator sim;
    net::Network net(sim);
    for (size_t i = 0; i < recorded.nodeCount(); ++i) {
        const auto id = static_cast<net::NodeId>(i);
        net.addNode(recorded.nodeName(id), recorded.egressBandwidth(id),
                    recorded.ingressBandwidth(id));
    }

    // Flows that started in the same microsecond started back to back in
    // the recorded run, so one event starts all of them.
    size_t next = 0;
    std::function<void()> start_due = [&] {
        const int64_t now = sim.now().micros();
        while (next < flows.size() && flows[next].start_us <= now) {
            const RecordedFlow& flow = flows[next++];
            net.startFlow(flow.src, flow.dst, flow.bytes,
                          [&sim, &result, end = flow.end_us](SimTime) {
                              if (sim.now().micros() != end)
                                  ++result.mismatches;
                          });
            result.peak_active_flows =
                std::max(result.peak_active_flows, net.activeFlows());
        }
        if (next < flows.size()) {
            sim.scheduleAt(SimTime::micros(flows[next].start_us),
                           [&start_due] { start_due(); });
        }
    };
    if (!flows.empty()) {
        sim.scheduleAt(SimTime::micros(flows.front().start_us),
                       [&start_due] { start_due(); });
    }
    sim.run();
    return result;
}

}  // namespace perfbench
