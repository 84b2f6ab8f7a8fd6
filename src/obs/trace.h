#ifndef FAASFLOW_OBS_TRACE_H_
#define FAASFLOW_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/sim_time.h"
#include "common/string_util.h"
#include "json/json.h"

namespace faasflow::obs {

/**
 * Identifier of a recorded span. Ids are dense and start at 1; 0 means
 * "no span" (used for absent parents and for every call made while
 * recording is disabled, so call sites need no enabled() branches of
 * their own).
 */
using SpanId = uint64_t;

/** Well-known trace tracks (Chrome-trace tid values). */
enum class TraceTrack : int {
    Client = 0,    ///< invocation lifecycle on the client/master side
    Master = 1,    ///< MasterSP central engine activity
    Storage = 2,   ///< remote store / progress log on the storage node
    Net = 3,       ///< bulk network transfers and link state
    WorkerBase = 8  ///< worker w maps to track WorkerBase + w
};

/**
 * Records simulation activity as a *causal span tree* and exports it in
 * the Chrome trace-event format (load the output in chrome://tracing or
 * https://ui.perfetto.dev).
 *
 * Every span carries an id and an optional parent id, so an invocation
 * forms a tree: the invocation span (client track) parents its node
 * spans (worker/master tracks), which parent their phase spans (wait,
 * coldstart, fetch, exec, save). Cross-span causality that is not
 * containment — DAG data/control dependencies, storage hops — is
 * recorded as flow (arrow) events between span ids.
 *
 * Spans whose end is known at record time use span(); long-lived spans
 * (a node run, a crash outage window) use openSpan()/closeSpan().
 * Category and name strings are interned: repeated labels cost one hash
 * lookup, no allocation, so tracing does not distort the simulation hot
 * paths. Recording is off by default and costs one branch per site when
 * disabled; the simulator is single-threaded so no locking is needed.
 */
class TraceRecorder
{
  public:
    void enable() { enabled_ = true; }
    void disable() { enabled_ = false; }
    bool enabled() const { return enabled_; }

    /**
     * Records a completed span.
     * @param category grouping tag ("node", "fetch", "save", "exec", ...)
     * @param name human label, e.g. the DAG node name
     * @param track lane in the viewer (use worker index + WorkerBase)
     * @param start span begin (simulated time)
     * @param end span end; must be >= start
     * @param detail optional free-form annotation shown in the viewer
     * @param parent enclosing/causing span id (0 = root)
     * @return the new span's id (0 while disabled)
     */
    SpanId span(std::string_view category, std::string_view name, int track,
                SimTime start, SimTime end, std::string_view detail = {},
                SpanId parent = 0);

    /** Records a zero-duration marker. */
    SpanId instant(std::string_view category, std::string_view name,
                   int track, SimTime at, SpanId parent = 0);

    /**
     * Opens a span whose end is not yet known; the id is live
     * immediately, so children and flows can reference it while the
     * operation is still in flight. Close with closeSpan(); spans still
     * open at export time are emitted as running to the last recorded
     * timestamp.
     */
    SpanId openSpan(std::string_view category, std::string_view name,
                    int track, SimTime start, SpanId parent = 0,
                    std::string_view detail = {});

    /** Closes an open span; replaces its detail when one is given. */
    void closeSpan(SpanId id, SimTime end, std::string_view detail = {});

    /**
     * Closes every still-open span on `track` at `at` with `detail` —
     * the worker-crash path: runs in flight on the dead node stop
     * exactly at the crash instant, annotated as such.
     */
    void closeOpenSpans(int track, SimTime at, std::string_view detail);

    /**
     * Records a flow (arrow) event between two spans. `at_from`/`at_to`
     * are the arrow's endpoints in time (at_from <= at_to).
     */
    void flow(std::string_view category, SpanId from, SpanId to,
              SimTime at_from, SimTime at_to);

    /** Flow whose tail sits at the source span's end (its start while
     *  still open), clamped to `at_to`. */
    void flow(std::string_view category, SpanId from, SpanId to,
              SimTime at_to);

    /** End of a recorded span (start for open spans); zero() for 0. */
    SimTime spanEnd(SpanId id) const;

    size_t eventCount() const { return events_.size(); }
    size_t flowCount() const { return flows_.size(); }
    void clear();

    /** Chrome trace-event JSON ({"traceEvents": [...]}) with pid/tid
     *  metadata, span/parent args and flow (s/f) event pairs. */
    json::Value toChromeTrace() const;

    /** Serialised Chrome trace. */
    std::string toChromeTraceText() const;

    /** One recorded event; the span id of events_[i] is i + 1. */
    struct Event
    {
        uint32_t category;  ///< interned-string index
        uint32_t name;      ///< interned-string index
        int track;
        int64_t start_us;
        int64_t dur_us;  ///< >= 0 complete, kInstant, or kOpen
        SpanId parent;
        std::string detail;
    };
    struct Flow
    {
        uint32_t category;  ///< interned-string index
        SpanId from;
        SpanId to;
        int64_t from_us;
        int64_t to_us;
    };
    static constexpr int64_t kInstant = -1;
    static constexpr int64_t kOpen = -2;

    const std::vector<Event>& events() const { return events_; }
    const std::vector<Flow>& flows() const { return flows_; }
    const std::string& str(uint32_t index) const { return strings_[index]; }

    /** Human label of a track under the default pid/tid scheme. */
    static std::string trackName(int track);

  private:
    bool enabled_ = false;
    size_t open_count_ = 0;
    std::vector<Event> events_;
    std::vector<Flow> flows_;
    std::vector<std::string> strings_;
    std::unordered_map<std::string, uint32_t, StringHash, std::equal_to<>>
        intern_;

    uint32_t intern(std::string_view s);
    /** Latest timestamp across all recorded events/flows (export clamp
     *  for still-open spans). */
    int64_t lastTimestamp() const;
};

}  // namespace faasflow::obs

#endif  // FAASFLOW_OBS_TRACE_H_
