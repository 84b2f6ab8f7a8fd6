#ifndef FAASFLOW_PERFBENCH_SPANS_H_
#define FAASFLOW_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/**
 * Host-time spans the benchmark records around every public call it makes
 * into the simulator (DAG build, System construction, deploy, warm-up,
 * repartition, run, replay, attribution, export). Each span carries its
 * name, start, end, parent and the id of the benchmark run (one simulated
 * window) it belongs to. Spans stay in memory; the caller writes them out
 * once, at exit. Per-layer host times are sums over one run's spans.
 */
class SpanLog
{
  public:
    /** Span ids are dense and start at 1; 0 means "no parent". */
    using Id = size_t;

    struct Span
    {
        std::string name;
        int run = 0;
        Id parent = 0;
        int64_t start_ns = 0;
        int64_t end_ns = -1;  ///< -1 while open
    };

    /** Opens a span under the innermost open one. */
    Id
    open(std::string name, int run)
    {
        const Id parent = stack_.empty() ? 0 : stack_.back();
        spans_.push_back(Span{std::move(name), run, parent, nowNs(), -1});
        stack_.push_back(spans_.size());
        return spans_.size();
    }

    /** Closes the innermost open span; returns its duration in seconds. */
    double
    close()
    {
        Span& span = spans_[stack_.back() - 1];
        stack_.pop_back();
        span.end_ns = nowNs();
        return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }

    /** Summed duration (s) of the closed spans called `name` in `run`. */
    double
    seconds(int run, std::string_view name) const
    {
        int64_t total = 0;
        for (const Span& span : spans_) {
            if (span.run == run && span.end_ns >= 0 && span.name == name)
                total += span.end_ns - span.start_ns;
        }
        return static_cast<double>(total) * 1e-9;
    }

    const std::vector<Span>& spans() const { return spans_; }

  private:
    using Clock = std::chrono::steady_clock;

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<Id> stack_;

    int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }
};

/** Records one span for the lifetime of the scope. */
class SpanScope
{
  public:
    SpanScope(SpanLog& log, std::string name, int run) : log_(log)
    {
        log_.open(std::move(name), run);
    }
    ~SpanScope()
    {
        if (!closed_)
            log_.close();
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    /** Ends the span early; returns its duration in seconds. */
    double
    close()
    {
        closed_ = true;
        return log_.close();
    }

  private:
    SpanLog& log_;
    bool closed_ = false;
};

}  // namespace perfbench

#endif  // FAASFLOW_PERFBENCH_SPANS_H_
