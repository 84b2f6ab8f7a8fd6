#include "obs/trace.h"

#include <algorithm>

#include "common/logging.h"

namespace faasflow::obs {

uint32_t
TraceRecorder::intern(std::string_view s)
{
    const auto it = intern_.find(s);
    if (it != intern_.end())
        return it->second;
    const auto index = static_cast<uint32_t>(strings_.size());
    strings_.emplace_back(s);
    intern_.emplace(strings_.back(), index);
    return index;
}

SpanId
TraceRecorder::span(std::string_view category, std::string_view name,
                    int track, SimTime start, SimTime end,
                    std::string_view detail, SpanId parent)
{
    if (!enabled_)
        return 0;
    if (end < start)
        panic("trace span '%.*s' ends before it starts",
              static_cast<int>(name.size()), name.data());
    events_.push_back(Event{intern(category), intern(name), track,
                            start.micros(), (end - start).micros(), parent,
                            std::string(detail)});
    return events_.size();
}

SpanId
TraceRecorder::instant(std::string_view category, std::string_view name,
                       int track, SimTime at, SpanId parent)
{
    if (!enabled_)
        return 0;
    events_.push_back(Event{intern(category), intern(name), track,
                            at.micros(), kInstant, parent, {}});
    return events_.size();
}

SpanId
TraceRecorder::openSpan(std::string_view category, std::string_view name,
                        int track, SimTime start, SpanId parent,
                        std::string_view detail)
{
    if (!enabled_)
        return 0;
    events_.push_back(Event{intern(category), intern(name), track,
                            start.micros(), kOpen, parent,
                            std::string(detail)});
    ++open_count_;
    return events_.size();
}

void
TraceRecorder::closeSpan(SpanId id, SimTime end, std::string_view detail)
{
    if (id == 0 || id > events_.size())
        return;
    Event& event = events_[id - 1];
    if (event.dur_us != kOpen)
        return;  // already closed (e.g. by a crash sweep)
    if (end.micros() < event.start_us)
        panic("trace span '%s' closes before it opened",
              strings_[event.name].c_str());
    event.dur_us = end.micros() - event.start_us;
    if (!detail.empty())
        event.detail = detail;
    --open_count_;
}

void
TraceRecorder::closeOpenSpans(int track, SimTime at, std::string_view detail)
{
    if (open_count_ == 0)
        return;
    for (size_t i = 0; i < events_.size(); ++i) {
        if (events_[i].dur_us == kOpen && events_[i].track == track)
            closeSpan(i + 1, std::max(at, SimTime::micros(
                                              events_[i].start_us)),
                      detail);
    }
}

void
TraceRecorder::flow(std::string_view category, SpanId from, SpanId to,
                    SimTime at_from, SimTime at_to)
{
    if (!enabled_ || from == 0 || to == 0)
        return;
    if (at_to < at_from)
        at_from = at_to;
    flows_.push_back(Flow{intern(category), from, to, at_from.micros(),
                          at_to.micros()});
}

void
TraceRecorder::flow(std::string_view category, SpanId from, SpanId to,
                    SimTime at_to)
{
    if (!enabled_ || from == 0 || to == 0)
        return;
    flow(category, from, to, std::min(spanEnd(from), at_to), at_to);
}

SimTime
TraceRecorder::spanEnd(SpanId id) const
{
    if (id == 0 || id > events_.size())
        return SimTime::zero();
    const Event& event = events_[id - 1];
    if (event.dur_us >= 0)
        return SimTime::micros(event.start_us + event.dur_us);
    return SimTime::micros(event.start_us);
}

void
TraceRecorder::clear()
{
    events_.clear();
    flows_.clear();
    strings_.clear();
    intern_.clear();
    open_count_ = 0;
}

int64_t
TraceRecorder::lastTimestamp() const
{
    int64_t last = 0;
    for (const Event& event : events_)
        last = std::max(last, event.start_us +
                                  std::max<int64_t>(event.dur_us, 0));
    for (const Flow& flow : flows_)
        last = std::max(last, flow.to_us);
    return last;
}

std::string
TraceRecorder::trackName(int track)
{
    switch (track) {
    case static_cast<int>(TraceTrack::Client): return "client";
    case static_cast<int>(TraceTrack::Master): return "master";
    case static_cast<int>(TraceTrack::Storage): return "storage";
    case static_cast<int>(TraceTrack::Net): return "network";
    default:
        if (track >= static_cast<int>(TraceTrack::WorkerBase)) {
            return strFormat(
                "worker %d",
                track - static_cast<int>(TraceTrack::WorkerBase));
        }
        return strFormat("track %d", track);
    }
}

json::Value
TraceRecorder::toChromeTrace() const
{
    json::Value trace_events = json::Value::array();

    // pid/tid metadata: one process, one named thread per used track.
    std::vector<int> tracks;
    for (const Event& event : events_)
        tracks.push_back(event.track);
    std::sort(tracks.begin(), tracks.end());
    tracks.erase(std::unique(tracks.begin(), tracks.end()), tracks.end());
    {
        json::Value meta = json::Value::object();
        meta.set("name", "process_name");
        meta.set("ph", "M");
        meta.set("pid", int64_t{1});
        meta.set("tid", int64_t{0});
        json::Value args = json::Value::object();
        args.set("name", "faasflow-sim");
        meta.set("args", std::move(args));
        trace_events.push(std::move(meta));
    }
    for (const int track : tracks) {
        json::Value meta = json::Value::object();
        meta.set("name", "thread_name");
        meta.set("ph", "M");
        meta.set("pid", int64_t{1});
        meta.set("tid", int64_t{track});
        json::Value args = json::Value::object();
        args.set("name", trackName(track));
        meta.set("args", std::move(args));
        trace_events.push(std::move(meta));
        json::Value sort = json::Value::object();
        sort.set("name", "thread_sort_index");
        sort.set("ph", "M");
        sort.set("pid", int64_t{1});
        sort.set("tid", int64_t{track});
        json::Value sargs = json::Value::object();
        sargs.set("sort_index", int64_t{track});
        sort.set("args", std::move(sargs));
        trace_events.push(std::move(sort));
    }

    const int64_t last_ts = lastTimestamp();
    for (size_t i = 0; i < events_.size(); ++i) {
        const Event& event = events_[i];
        json::Value e = json::Value::object();
        e.set("name", strings_[event.name]);
        e.set("cat", strings_[event.category]);
        const bool instant = event.dur_us == kInstant;
        e.set("ph", instant ? "i" : "X");
        e.set("ts", event.start_us);
        if (!instant) {
            // Still-open spans (crash mid-run, simulation cut short) run
            // to the last recorded timestamp.
            e.set("dur", event.dur_us >= 0
                             ? event.dur_us
                             : std::max<int64_t>(last_ts - event.start_us,
                                                 0));
        } else {
            e.set("s", "t");  // thread-scoped instant
        }
        e.set("pid", int64_t{1});
        e.set("tid", int64_t{event.track});
        json::Value args = json::Value::object();
        args.set("span", static_cast<int64_t>(i + 1));
        if (event.parent != 0)
            args.set("parent", static_cast<int64_t>(event.parent));
        if (!event.detail.empty())
            args.set("detail", event.detail);
        if (event.dur_us == kOpen)
            args.set("unclosed", true);
        e.set("args", std::move(args));
        trace_events.push(std::move(e));
    }

    for (size_t i = 0; i < flows_.size(); ++i) {
        const Flow& flow = flows_[i];
        const Event& from = events_[flow.from - 1];
        const Event& to = events_[flow.to - 1];
        json::Value s = json::Value::object();
        s.set("name", strings_[flow.category]);
        s.set("cat", strings_[flow.category]);
        s.set("ph", "s");
        s.set("id", static_cast<int64_t>(i + 1));
        s.set("ts", flow.from_us);
        s.set("pid", int64_t{1});
        s.set("tid", int64_t{from.track});
        json::Value sargs = json::Value::object();
        sargs.set("from", static_cast<int64_t>(flow.from));
        sargs.set("to", static_cast<int64_t>(flow.to));
        s.set("args", std::move(sargs));
        trace_events.push(std::move(s));
        json::Value f = json::Value::object();
        f.set("name", strings_[flow.category]);
        f.set("cat", strings_[flow.category]);
        f.set("ph", "f");
        f.set("bp", "e");  // bind to enclosing slice at the arrow head
        f.set("id", static_cast<int64_t>(i + 1));
        f.set("ts", flow.to_us);
        f.set("pid", int64_t{1});
        f.set("tid", int64_t{to.track});
        json::Value fargs = json::Value::object();
        fargs.set("from", static_cast<int64_t>(flow.from));
        fargs.set("to", static_cast<int64_t>(flow.to));
        f.set("args", std::move(fargs));
        trace_events.push(std::move(f));
    }

    json::Value doc = json::Value::object();
    doc.set("traceEvents", std::move(trace_events));
    doc.set("displayTimeUnit", "ms");
    return doc;
}

std::string
TraceRecorder::toChromeTraceText() const
{
    return toChromeTrace().dump(1);
}

}  // namespace faasflow::obs
