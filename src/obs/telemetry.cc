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
    const int64_t t_us = sim.now().micros();
    // A gauge registered after earlier ticks has no previous value, so
    // its first reading is a change like every gauge's on the first tick.
    const size_t known = latest_.size();
    latest_.resize(gauges_.size());
    for (size_t i = 0; i < gauges_.size(); ++i) {
        const double value = gauges_[i].fn();
        if (i < known && latest_[i] == value)
            continue;
        latest_[i] = value;
        changes_.push_back(Change{t_us, i, value});
    }
    last_t_us_ = t_us;
    ++ticks_;
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
    if (ticks_ == 0) {
        for (const auto& provider : expositions_)
            out += provider();
        return out;
    }
    // Group gauges into metric families so each # TYPE line appears
    // once, as the exposition format requires.
    std::map<std::string, std::vector<size_t>> families;
    for (size_t i = 0; i < gauges_.size(); ++i)
        families[gauges_[i].name].push_back(i);
    const int64_t ts_ms = last_t_us_ / 1000;
    for (const auto& [name, members] : families) {
        out += strFormat("# TYPE %s gauge\n", name.c_str());
        for (const size_t i : members) {
            if (gauges_[i].labels.empty()) {
                out += strFormat("%s %s %lld\n", name.c_str(),
                                 formatValue(latest_[i]).c_str(),
                                 static_cast<long long>(ts_ms));
            } else {
                out += strFormat("%s{%s} %s %lld\n", name.c_str(),
                                 gauges_[i].labels.c_str(),
                                 formatValue(latest_[i]).c_str(),
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
    for (const Change& change : changes_) {
        const Gauge& gauge = gauges_[change.gauge];
        out += strFormat("%lld,%s,%s,%s\n",
                         static_cast<long long>(change.t_us),
                         gauge.name.c_str(), gauge.labels.c_str(),
                         formatValue(change.value).c_str());
    }
    return out;
}

void
TelemetrySampler::clear()
{
    active_ = false;
    gauges_.clear();
    changes_.clear();
    latest_.clear();
    last_t_us_ = 0;
    ticks_ = 0;
    expositions_.clear();
}

}  // namespace faasflow::obs
