#ifndef FAASFLOW_OBS_TELEMETRY_H_
#define FAASFLOW_OBS_TELEMETRY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "sim/simulator.h"

namespace faasflow::obs {

/**
 * Per-node resource telemetry: named gauges sampled on a fixed
 * simulated-time cadence.
 *
 * Components register gauge closures (core occupancy, memory in use,
 * container-pool warm counts, NIC utilization, storage queue depth...);
 * start() samples all of them immediately and then re-samples every
 * interval() for as long as the simulation still has work queued. The
 * sampler never keeps an otherwise-drained simulation alive: a tick that
 * finds no foreground event pending records its sample and stops. Its
 * re-arm is a background event (Simulator::scheduleBackground), so it
 * never counts as work for another periodic tick either.
 *
 * Sampling only *reads* simulation state, so enabling telemetry cannot
 * change simulation results — identical seeds produce identical sample
 * series (tested).
 *
 * The series is kept change-compressed in memory: each tick appends a
 * change only for the gauges whose value moved since the previous tick
 * (every gauge on the first), and the latest value of each gauge is kept
 * beside that list. Long idle stretches, such as the container
 * keep-alive tail, therefore cost a tick count and nothing else.
 *
 * Export formats: Prometheus text exposition (one gauge family per
 * metric name, labels preserved, last-sample values with millisecond
 * timestamps) and long-format CSV (t_us,metric,labels,value — one row
 * per recorded change).
 */
class TelemetrySampler
{
  public:
    using GaugeFn = std::function<double()>;

    /**
     * Registers a gauge. Call before start().
     * @param name Prometheus metric name, e.g. "faasflow_cores_in_use"
     * @param labels label set without braces, e.g. "node=\"w0\""
     * @param fn read-only closure returning the current value
     */
    void registerGauge(std::string name, std::string labels, GaugeFn fn);

    void setInterval(SimTime interval) { interval_ = interval; }
    SimTime interval() const { return interval_; }

    /** Starts sampling on `sim`; samples once immediately. */
    void start(sim::Simulator& sim);

    /** Stops future ticks (already-recorded samples are kept). */
    void stop() { active_ = false; }
    bool active() const { return active_; }

    size_t gaugeCount() const { return gauges_.size(); }

    /** Ticks sampled so far (each reads every gauge). */
    size_t ticks() const { return ticks_; }

    /**
     * Registers an extra exposition provider: a closure returning
     * ready-made Prometheus text (its own # TYPE lines included),
     * appended after the gauge families in toPrometheusText(). Lets
     * label-dimensioned series with dynamic key sets — profile and SLO
     * summaries — ride the same exporter as the fixed gauges.
     */
    void registerExposition(std::function<std::string()> provider);

    /** Prometheus text exposition of the most recent sample. */
    std::string toPrometheusText() const;

    /** Full series as change-compressed long-format CSV: one row per
     *  recorded change, i.e. a gauge row when its value differs from the
     *  previous tick (always on the first); readers forward-fill per
     *  series. */
    std::string toCsv() const;

    void clear();

  private:
    struct Gauge
    {
        std::string name;
        std::string labels;
        GaugeFn fn;
    };

    /** One gauge's value at one tick where it moved. */
    struct Change
    {
        int64_t t_us;
        size_t gauge;
        double value;
    };

    SimTime interval_ = SimTime::millis(10);
    bool active_ = false;
    std::vector<Gauge> gauges_;
    std::vector<Change> changes_;
    /** Each gauge's value at the most recent tick. */
    std::vector<double> latest_;
    int64_t last_t_us_ = 0;
    size_t ticks_ = 0;
    std::vector<std::function<std::string()>> expositions_;

    void tick(sim::Simulator& sim);
};

}  // namespace faasflow::obs

#endif  // FAASFLOW_OBS_TELEMETRY_H_
