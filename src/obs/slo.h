#ifndef FAASFLOW_OBS_SLO_H_
#define FAASFLOW_OBS_SLO_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_time.h"
#include "json/json.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace faasflow::obs {

/**
 * Per-tenant service-level objective: an end-to-end deadline plus a
 * deadline-miss budget, with the multi-window burn-rate parameters the
 * monitor alerts on. Parsed from the WDL `slo:` block (workflow layer
 * owns the parse; System converts it into this struct).
 */
struct SloSpec
{
    /** Per-invocation end-to-end deadline; completions (and timeouts)
     *  slower than this count as misses. */
    SimTime deadline = SimTime::seconds(1);

    /** Advisory p99 target reported in SLO tables (not alerted on). */
    SimTime target_p99 = SimTime::zero();

    /** Allowed long-run deadline-miss fraction (the error budget). */
    double miss_budget = 0.01;

    /** Burn-rate windows: the alert needs both the fast and the slow
     *  window to burn, which suppresses blips without sleeping through
     *  sustained breaches (the classic multi-window burn-rate rule). */
    SimTime short_window = SimTime::seconds(1);
    SimTime long_window = SimTime::seconds(10);

    /** Alert fires when both windows' burn rate >= fire_burn, clears
     *  when both drop below clear_burn (fire > clear = hysteresis). */
    double fire_burn = 2.0;
    double clear_burn = 1.0;
};

/**
 * Multi-window, burn-rate SLO monitor over per-tenant completion
 * events.
 *
 * Burn rate = (window deadline-miss fraction) / miss_budget: burn 1.0
 * consumes the budget exactly at the sustainable rate, burn >= fire_burn
 * across *both* windows opens an alert. Alerts are recorded as spans on
 * the Client track of the trace tree ("slo_alert" category), so they
 * show up in the same viewer timeline as the invocations that caused
 * them and validate under trace_model::validateSpanTree.
 *
 * Sim-inert like the rest of obs/: the monitor only reacts to
 * completion callbacks and never schedules events; windows advance
 * lazily on the simulated clock.
 */
class SloMonitor
{
  public:
    struct TenantStatus
    {
        std::string tenant;
        SloSpec spec;
        uint64_t total = 0;        ///< lifetime completions
        uint64_t missed = 0;       ///< lifetime deadline misses
        double short_burn = 0.0;   ///< burn rate over the short window
        double long_burn = 0.0;    ///< burn rate over the long window
        bool alerting = false;
        uint64_t alerts_fired = 0;
    };

    explicit SloMonitor(TraceRecorder* trace = nullptr) : trace_(trace) {}

    /** Registers (or replaces) a tenant's SLO. Tenants without a spec
     *  are not monitored. */
    void setSpec(std::string_view tenant, const SloSpec& spec);

    const SloSpec* spec(std::string_view tenant) const;

    /**
     * One invocation finished (or timed out) for `tenant` with
     * end-to-end latency `e2e`. Evaluates the miss against the tenant's
     * deadline, advances both burn windows and fires/clears the alert
     * span. `forced_miss` marks timeouts, which always burn budget.
     */
    void recordCompletion(std::string_view tenant, SimTime now,
                          SimTime e2e, bool forced_miss = false);

    /** Closes any still-open alert spans (end of run). */
    void finish(SimTime now);

    /** Deterministic snapshot, tenants in name order. */
    std::vector<TenantStatus> snapshot(SimTime now) const;

    /** SLO table for the profile dump ("slo" key, see faasflow_top). */
    json::Value toJson(SimTime now) const;

    /** faasflow_slo_* gauges (appended to the telemetry exposition). */
    std::string toPrometheusText(SimTime now) const;

    uint64_t alertsFired() const { return alerts_fired_; }
    uint64_t alertsActive() const;
    size_t tenantCount() const { return tenants_.size(); }

  private:
    struct TenantState
    {
        SloSpec spec;
        RollingWindow short_window;
        RollingWindow long_window;
        uint64_t total = 0;
        uint64_t missed = 0;
        bool alerting = false;
        uint64_t alerts_fired = 0;
        SpanId alert_span = 0;
    };

    TraceRecorder* trace_ = nullptr;
    std::map<std::string, TenantState> tenants_;
    uint64_t alerts_fired_ = 0;

    /** Burn rate of one window ring at `now` (0 on empty windows). */
    static double burnRate(const RollingWindow& window, SimTime now,
                           double miss_budget);
    void evaluate(const std::string& tenant, TenantState& state,
                  SimTime now);
};

}  // namespace faasflow::obs

#endif  // FAASFLOW_OBS_SLO_H_
