#ifndef FAASFLOW_LOAD_SATURATION_H_
#define FAASFLOW_LOAD_SATURATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"

namespace faasflow::load {

/**
 * The multi-tenant saturation scenario: three tenants with different
 * arrival processes over the three small real-world benchmarks, swept
 * across offered-load multipliers with admission control off and on.
 *
 * The scenario is shared by bench/load_saturation (which emits
 * BENCH_load.json) and the determinism golden test (which asserts the
 * emitted JSON is byte-identical across repeated runs and campaign
 * thread counts) — one definition, two consumers.
 */
struct SaturationConfig
{
    /** Offered-load multipliers applied to every tenant's base rate. */
    std::vector<double> multipliers = {0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0};
    /** Arrival horizon per scenario run (the drain runs to completion). */
    SimTime horizon = SimTime::seconds(120);
    /** Goodput SLO: a completion counts only when e2e <= slo_ms. */
    double slo_ms = 10000.0;
    uint64_t seed = 42;
    /** Run the reactive autoscaler alongside the load. */
    bool autoscale = true;
    /** Campaign threads for the sweep; 0 = bench::campaignThreads(). */
    unsigned threads = 0;
};

/** Per-tenant outcome of one scenario run. */
struct TenantPoint
{
    std::string tenant;
    uint64_t offered = 0;
    uint64_t admitted = 0;
    uint64_t shed = 0;
    uint64_t completed = 0;
    uint64_t timeouts = 0;
    double shed_rate = 0.0;      ///< shed / offered
    double goodput_per_s = 0.0;  ///< SLO-met completions / horizon
    double p50_ms = 0.0;         ///< e2e of delivered work
    double p99_ms = 0.0;
};

/** One (multiplier, admission) cell of the sweep grid. */
struct SweepPoint
{
    double multiplier = 0.0;
    bool admission = false;
    double offered_per_s = 0.0;
    double goodput_per_s = 0.0;
    double p99_ms = 0.0;  ///< aggregate e2e p99 across tenants
    uint64_t scale_ups = 0;
    std::vector<TenantPoint> tenants;
};

struct SweepResult
{
    std::vector<SweepPoint> points;  ///< grid in (multiplier, admission)
                                     ///< order: off before on
    /** Knee of the admission-off goodput curve: the last multiplier at
     *  which goodput still tracked the offered-load increase. */
    double knee_multiplier = 0.0;
};

/** Runs one scenario cell (single simulation, deterministic). */
SweepPoint runScenario(double multiplier, bool admission,
                       const SaturationConfig& config);

/** Runs the full grid through bench::runCampaign and locates the knee. */
SweepResult runSaturationSweep(const SaturationConfig& config);

/** Deterministic BENCH_load.json text for a sweep result. */
std::string sweepJson(const SweepResult& result,
                      const SaturationConfig& config);

}  // namespace faasflow::load

#endif  // FAASFLOW_LOAD_SATURATION_H_
