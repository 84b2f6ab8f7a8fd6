#include "obs/telemetry.h"

#include <map>

#include "common/string_util.h"

namespace faasflow::obs {
namespace {

/**
 * Gauge values are mostly small integers (core counts, queue depths) or
 * utilization ratios; %.10g prints both without float noise and is
 * stable across runs, which the determinism test relies on.
 */
std::string
formatValue(double v)
{
    return strFormat("%.10g", v);
}

}  // namespace

void
TelemetrySampler::registerGauge(std::string name, std::string labels,
                                GaugeFn fn)
{
    gauges_.push_back(Gauge{std::move(name), std::move(labels),
                            std::move(fn)});
}

void
TelemetrySampler::registerExposition(std::function<std::string()> provider)
{
    expositions_.push_back(std::move(provider));
}

void
TelemetrySampler::start(sim::Simulator& sim)
{
    active_ = true;
    tick(sim);
}

void
TelemetrySampler::tick(sim::Simulator& sim)
{
    if (!active_)
        return;
    Sample sample;
    sample.t_us = sim.now().micros();
    sample.values.reserve(gauges_.size());
    for (const Gauge& gauge : gauges_)
        sample.values.push_back(gauge.fn());
    samples_.push_back(std::move(sample));
    // Only re-arm while the simulation has other work queued; a sampler
    // must never keep a drained simulation spinning until the horizon.
    // The tick is a background event, so another periodic tick pending
    // beside it does not count as work.
    if (sim.pendingEvents() > 0)
        sim.scheduleBackground(interval_, [this, &sim] { tick(sim); });
    else
        active_ = false;
}

std::string
TelemetrySampler::toPrometheusText() const
{
    std::string out;
    if (samples_.empty()) {
        for (const auto& provider : expositions_)
            out += provider();
        return out;
    }
    const Sample& last = samples_.back();
    // Group gauges into metric families so each # TYPE line appears
    // once, as the exposition format requires.
    std::map<std::string, std::vector<size_t>> families;
    for (size_t i = 0; i < gauges_.size(); ++i)
        families[gauges_[i].name].push_back(i);
    const int64_t ts_ms = last.t_us / 1000;
    for (const auto& [name, members] : families) {
        out += strFormat("# TYPE %s gauge\n", name.c_str());
        for (const size_t i : members) {
            if (gauges_[i].labels.empty()) {
                out += strFormat("%s %s %lld\n", name.c_str(),
                                 formatValue(last.values[i]).c_str(),
                                 static_cast<long long>(ts_ms));
            } else {
                out += strFormat("%s{%s} %s %lld\n", name.c_str(),
                                 gauges_[i].labels.c_str(),
                                 formatValue(last.values[i]).c_str(),
                                 static_cast<long long>(ts_ms));
            }
        }
    }
    for (const auto& provider : expositions_)
        out += provider();
    return out;
}

std::string
TelemetrySampler::toCsv() const
{
    std::string out = "t_us,metric,labels,value\n";
    // Change-compressed: after the first sample a gauge only re-appears
    // when its value moves, so long idle tails (e.g. the 600 s container
    // keep-alive drain) cost nothing. Readers forward-fill per series.
    std::vector<double> prev;
    for (const Sample& sample : samples_) {
        for (size_t i = 0; i < gauges_.size(); ++i) {
            if (i < prev.size() && prev[i] == sample.values[i])
                continue;
            out += strFormat("%lld,%s,%s,%s\n",
                             static_cast<long long>(sample.t_us),
                             gauges_[i].name.c_str(),
                             gauges_[i].labels.c_str(),
                             formatValue(sample.values[i]).c_str());
        }
        prev = sample.values;
    }
    return out;
}

void
TelemetrySampler::clear()
{
    active_ = false;
    gauges_.clear();
    samples_.clear();
    expositions_.clear();
}

}  // namespace faasflow::obs
