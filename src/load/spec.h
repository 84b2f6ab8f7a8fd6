#ifndef FAASFLOW_LOAD_SPEC_H_
#define FAASFLOW_LOAD_SPEC_H_

#include <string>
#include <vector>

#include "common/sim_time.h"
#include "json/json.h"

namespace faasflow::load {

/** Arrival-process families the open-loop driver can generate. */
enum class ArrivalKind {
    Poisson,      ///< memoryless arrivals at a constant mean rate
    Bursty,       ///< on/off modulated Poisson (exponential phase lengths)
    DiurnalRamp,  ///< sinusoidal rate between base and peak (thinning)
    Histogram,    ///< trace replay: piecewise-constant per-bin rates
};

/**
 * One tenant's arrival process. Rates are arrivals per minute, matching
 * the §5.4 open-loop client; phase and period lengths are wall
 * (simulated) time. Only the fields of the selected kind are read.
 */
struct ArrivalSpec
{
    ArrivalKind kind = ArrivalKind::Poisson;

    /** Mean rate (Poisson), on-phase rate (Bursty), peak rate (Ramp). */
    double rate_per_min = 60.0;

    // Bursty: exponential on/off phase durations; the off phase arrives
    // at off_rate_per_min (0 = silent between bursts).
    SimTime on_mean = SimTime::seconds(2);
    SimTime off_mean = SimTime::seconds(8);
    double off_rate_per_min = 0.0;

    // DiurnalRamp: rate(t) = base + (rate - base)·(1 − cos(2πt/period))/2,
    // i.e. one trough-to-peak-to-trough cycle every `period`.
    SimTime period = SimTime::seconds(60);
    double base_rate_per_min = 0.0;

    // Histogram (trace replay): bin i spans [i·bin, (i+1)·bin) after the
    // process's first observation and arrives Poisson at
    // bin_rates_per_min[i]. With repeat=false a drained histogram emits
    // no further arrivals (SimTime::max() sentinel — the driver's
    // horizon check discards it); with repeat=true the bins loop.
    // For Histogram, rate_per_min is derived (the peak bin rate) so
    // autoscaling heuristics keyed on it stay meaningful.
    SimTime bin = SimTime::seconds(60);
    std::vector<double> bin_rates_per_min;
    bool repeat = false;
};

/**
 * Per-tenant admission policy (token-bucket rate limit + queue-depth
 * backpressure). Zeros disable the corresponding gate. A tenant with no
 * admission block is admitted unconditionally.
 */
struct AdmissionSpec
{
    bool enabled = false;
    double rate_per_s = 0.0;     ///< token refill rate; 0 = unlimited
    double burst = 1.0;          ///< bucket capacity in tokens
    int max_in_flight = 0;       ///< admitted-but-unfinished cap; 0 = off
    bool defer = false;          ///< defer (FIFO) instead of shedding
    int max_deferred = 4096;     ///< defer-queue cap; overflow sheds
};

/** A weighted workflow in a tenant's mix. */
struct MixEntry
{
    std::string workflow;
    double weight = 1.0;
};

struct TenantSpec
{
    std::string name;
    ArrivalSpec arrival;
    AdmissionSpec admission;

    /** Workflow mix; empty means "the document's own workflow". */
    std::vector<MixEntry> mix;
};

/**
 * Parsed top-level `load:` block of a WDL document: the multi-tenant
 * open-loop scenario driving `faasflow_run --load`.
 *
 *   load:
 *     horizon_ms: 30000        # arrivals stop here; the run then drains
 *     autoscale: true          # reactive warm-pool scaling (default off)
 *     tenants:
 *       - name: interactive
 *         arrival: {process: poisson, rate_per_min: 120}
 *         admission: {rate_per_s: 3, burst: 6, max_in_flight: 32,
 *                     policy: shed}
 *       - name: batch
 *         arrival: {process: bursty, rate_per_min: 600,
 *                   on_ms: 1000, off_ms: 4000}
 *         admission: {policy: defer, rate_per_s: 2}
 *       - name: diurnal
 *         arrival: {process: ramp, rate_per_min: 240,
 *                   base_rate_per_min: 10, period_ms: 20000}
 *       - name: replayed                 # trace replay
 *         arrival: {process: histogram, bin_ms: 60000,
 *                   rates_per_min: [12, 80, 240, 30], repeat: false}
 */
struct LoadSpec
{
    bool present = false;  ///< the document has a `load:` block
    SimTime horizon = SimTime::seconds(30);
    bool autoscale = false;
    std::vector<TenantSpec> tenants;
    std::string error;  ///< empty on success

    bool ok() const { return error.empty(); }
};

/** Extracts and validates the `load:` block of a parsed WDL document
 *  (absent block -> present=false, ok). */
LoadSpec parseLoadSpec(const json::Value& doc);

}  // namespace faasflow::load

#endif  // FAASFLOW_LOAD_SPEC_H_
