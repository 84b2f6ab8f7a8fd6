/** @file Soak test (ctest configuration `soak`, excluded from the
 *  default run): a long seeded multi-tenant open-loop campaign under
 *  the light fault preset, with the reactive autoscaler on. Asserts
 *  the admission-path accounting invariants, the recovery invariants,
 *  and bit-determinism across a full repeat. */
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "benchmarks/specs.h"
#include "faasflow/client.h"
#include "faasflow/system.h"
#include "load/autoscaler.h"
#include "load/driver.h"
#include "load/spec.h"
#include "sim/fault_schedule.h"
#include "workflow/dagen.h"
#include "yamllite/yaml.h"

namespace faasflow::load {
namespace {

constexpr uint64_t kSeed = 20260807;
const SimTime kHorizon = SimTime::seconds(1200);

std::string
deployBench(System& system, benchmarks::Benchmark bench)
{
    system.registerFunctions(bench.functions);
    const std::string name = system.deploy(std::move(bench.dag));
    ClosedLoopClient warmup(system, name, 10);
    warmup.start();
    system.run();
    system.repartition(name);
    ClosedLoopClient settle(system, name, 6);
    settle.start();
    system.run();
    return name;
}

struct TenantOutcome
{
    uint64_t offered, admitted, deferred, shed, completed, timeouts;
    size_t e2e_count;
    double p99_ms;

    bool operator==(const TenantOutcome&) const = default;
};

struct SoakOutcome
{
    std::vector<TenantOutcome> tenants;
    uint64_t recoveries, replay_mismatches;
    uint64_t scale_ups, scale_downs;

    bool operator==(const SoakOutcome&) const = default;
};

/** One full soak pass; everything seeded, nothing wall-clock. */
SoakOutcome
runSoak()
{
    System system(SystemConfig::faasflowFaastore());
    const std::string vid = deployBench(system, benchmarks::videoFfmpeg());
    const std::string fp = deployBench(system, benchmarks::fileProcessing());
    const std::string wc = deployBench(system, benchmarks::wordCount());
    system.metrics().clear();

    LoadSpec spec;
    spec.present = true;
    spec.horizon = kHorizon;
    spec.autoscale = true;
    {
        TenantSpec t;
        t.name = "alpha";
        t.arrival.kind = ArrivalKind::Poisson;
        t.arrival.rate_per_min = 20.0;
        t.admission.enabled = true;
        t.admission.rate_per_s = 0.45;
        t.admission.burst = 5.0;
        t.mix.push_back(MixEntry{vid, 1.0});
        spec.tenants.push_back(t);
    }
    {
        TenantSpec t;
        t.name = "bravo";
        t.arrival.kind = ArrivalKind::Bursty;
        t.arrival.rate_per_min = 30.0;
        t.arrival.on_mean = SimTime::seconds(10);
        t.arrival.off_mean = SimTime::seconds(10);
        t.admission.enabled = true;
        t.admission.rate_per_s = 0.30;
        t.admission.burst = 8.0;
        t.admission.defer = true;
        t.admission.max_deferred = 128;
        t.mix.push_back(MixEntry{fp, 1.0});
        spec.tenants.push_back(t);
    }
    {
        TenantSpec t;
        t.name = "charlie";
        t.arrival.kind = ArrivalKind::DiurnalRamp;
        t.arrival.rate_per_min = 20.0;
        t.arrival.base_rate_per_min = 4.0;
        t.arrival.period = SimTime::seconds(60);
        t.mix.push_back(MixEntry{wc, 1.0});
        spec.tenants.push_back(t);
    }

    // The deployment warm-ups already consumed simulated time; shift the
    // drawn schedule so the faults land inside the load window rather
    // than in the (forbidden) past.
    const SimTime t0 = system.simulator().now();
    const auto drawn = sim::FaultSchedule::random(
        kSeed + 1, static_cast<int>(system.cluster().workerCount()),
        kHorizon, sim::RandomFaultParams::light());
    sim::FaultSchedule shifted;
    for (const sim::FaultEvent& ev : drawn.events()) {
        const SimTime at = t0 + ev.at;
        switch (ev.kind) {
            case sim::FaultKind::WorkerCrash:
                shifted.addWorkerCrash(ev.worker, at, ev.duration);
                break;
            case sim::FaultKind::LinkDown:
                shifted.addLinkDown(ev.worker, at, ev.duration);
                break;
            case sim::FaultKind::StorageBrownout:
                shifted.addStorageBrownout(at, ev.duration, ev.severity);
                break;
            case sim::FaultKind::MasterCrash:
                shifted.addMasterCrash(at, ev.duration);
                break;
        }
    }
    system.installFaults(shifted);

    LoadDriver driver(system, std::move(spec), kSeed);
    Autoscaler scaler(system);
    driver.start();
    scaler.start();
    system.run();

    SoakOutcome out{};
    for (const char* name : {"alpha", "bravo", "charlie"}) {
        const TenantAdmissionStats& st = system.admissionStats(name);
        const Percentiles& e2e = system.metrics().tenantE2e(name);
        out.tenants.push_back(TenantOutcome{
            st.offered, st.admitted, st.deferred, st.shed, st.completed,
            st.timeouts, e2e.count(),
            e2e.count() > 0 ? e2e.p99() : 0.0});

        // Accounting invariants: every offered arrival was admitted or
        // shed, every admitted invocation eventually finalized, and the
        // defer queue fully drained.
        EXPECT_EQ(st.offered, st.admitted + st.shed) << name;
        EXPECT_EQ(st.completed, st.admitted) << name;
        EXPECT_LE(st.timeouts, st.completed) << name;
        EXPECT_EQ(system.tenantDeferred(name), 0u) << name;
        EXPECT_EQ(system.tenantInFlight(name), 0u) << name;
        EXPECT_GT(st.offered, 0u) << name;
        EXPECT_GT(st.completed, 0u) << name;
    }

    const auto& rs = system.recoveryStats();
    out.recoveries = rs.recoveries;
    out.replay_mismatches = rs.replay_mismatches;
    EXPECT_EQ(rs.replay_mismatches, 0u);

    out.scale_ups = scaler.stats().scale_up_total;
    out.scale_downs = scaler.stats().scale_down_total;
    EXPECT_GT(scaler.stats().ticks, 0u);
    return out;
}

TEST(SoakTest, MultiTenantUnderLightFaultsIsSoundAndDeterministic)
{
    const SoakOutcome first = runSoak();
    const SoakOutcome second = runSoak();
    EXPECT_EQ(first, second);
}

// ------------------------- Montage-2k trace replay under light faults

/** Everything observable about one Montage-2k trace-replay pass. */
struct MontageOutcome
{
    std::vector<uint64_t> arrivals;  ///< per trace tenant, driver order
    uint64_t completed, timeouts, duplicate_executions;
    uint64_t recoveries, replay_mismatches;
    size_t e2e_count;
    double p99_ms;

    bool operator==(const MontageOutcome&) const = default;
};

/**
 * The examples/montage_2k.yaml workload (generated here from the same
 * pinned GenSpec) driven by Azure-style per-minute invocation counts
 * through the Histogram arrival process, with the light fault preset
 * live. 2001 nodes per invocation exercise partitioning, FaaStore
 * quota reclamation and worker-crash recovery at a depth the paper
 * benchmarks never reach.
 */
MontageOutcome
runMontageTraceSoak()
{
    SystemConfig config = SystemConfig::faasflowFaastore();
    // Saturated 2001-task invocations overlap; recovery stretches them
    // further. A timeout would turn soundness checks into noise.
    config.invocation_timeout = SimTime::seconds(900);
    System system(config);

    workflow::GenSpec gspec;  // the montage_2k.yaml `generate:` block
    gspec.regime = workflow::Regime::Montage;
    gspec.seed = 7;
    gspec.nodes = 2000;
    gspec.edge_kb_mean = 512.0;
    gspec.edge_kb_sigma = 0.75;
    gspec.cost_classes = 4;
    gspec.exec_ms_mean = 80.0;
    gspec.exec_ms_sigma = 0.6;
    gspec.jitter_sigma = 0.08;
    auto gen = workflow::generate(gspec, "montage-2k");
    EXPECT_TRUE(gen.ok()) << gen.error;

    system.registerFunctions(gen.functions);
    const std::string name = system.deploy(std::move(gen.dag));
    ClosedLoopClient warmup(system, name, 2);
    warmup.start();
    system.run();
    system.repartition(name);
    ClosedLoopClient settle(system, name, 1);
    settle.start();
    system.run();
    system.metrics().clear();

    // Two mosaic tenants replayed from per-minute invocation counts: a
    // steady interactive stream and a bursty batch backfill.
    LoadSpec spec = parseLoadSpec(yaml::parseOrDie(
        "load:\n"
        "  horizon_ms: 480000\n"
        "  tenants:\n"
        "    - name: mosaic-hot\n"
        "      arrival:\n"
        "        process: histogram\n"
        "        bin_ms: 60000\n"
        "        rates_per_min: [1, 1, 2, 1, 0, 1, 2, 1]\n"
        "    - name: mosaic-batch\n"
        "      arrival:\n"
        "        process: histogram\n"
        "        bin_ms: 60000\n"
        "        rates_per_min: [0, 0, 4, 0, 0, 3, 0, 0]\n"));
    EXPECT_TRUE(spec.ok()) << spec.error;

    const SimTime t0 = system.simulator().now();
    const auto drawn = sim::FaultSchedule::random(
        kSeed + 2, static_cast<int>(system.cluster().workerCount()),
        spec.horizon, sim::RandomFaultParams::light());
    sim::FaultSchedule shifted;
    for (const sim::FaultEvent& ev : drawn.events()) {
        const SimTime at = t0 + ev.at;
        switch (ev.kind) {
            case sim::FaultKind::WorkerCrash:
                shifted.addWorkerCrash(ev.worker, at, ev.duration);
                break;
            case sim::FaultKind::LinkDown:
                shifted.addLinkDown(ev.worker, at, ev.duration);
                break;
            case sim::FaultKind::StorageBrownout:
                shifted.addStorageBrownout(at, ev.duration, ev.severity);
                break;
            case sim::FaultKind::MasterCrash:
                shifted.addMasterCrash(at, ev.duration);
                break;
        }
    }
    system.installFaults(shifted);

    LoadDriver driver(system, std::move(spec), kSeed + 3, name);
    driver.start();
    system.run();

    MontageOutcome out{};
    uint64_t offered = 0;
    for (const auto& tenant : driver.counters()) {
        out.arrivals.push_back(tenant.arrivals);
        offered += tenant.arrivals;
    }
    const Percentiles& e2e = system.metrics().e2e(name);
    out.completed = system.metrics().count(name);
    out.timeouts = system.metrics().timeouts(name);
    out.duplicate_executions = system.metrics().duplicateExecutions(name);
    out.e2e_count = e2e.count();
    out.p99_ms = e2e.count() > 0 ? e2e.p99() : 0.0;
    const auto& rs = system.recoveryStats();
    out.recoveries = rs.recoveries;
    out.replay_mismatches = rs.replay_mismatches;

    // Soundness: every trace arrival completed, nothing is in flight,
    // recovery never re-ran a node in the same drive epoch or diverged
    // from the durable record.
    EXPECT_GT(offered, 0u);
    EXPECT_EQ(out.completed, offered);
    EXPECT_EQ(out.timeouts, 0u);
    EXPECT_EQ(out.duplicate_executions, 0u);
    EXPECT_EQ(out.replay_mismatches, 0u);
    EXPECT_EQ(system.inFlight(), 0u);
    EXPECT_EQ(system.remoteStore().objectCount(), 0u);
    return out;
}

TEST(SoakTest, MontageTraceReplayUnderLightFaultsIsDeterministic)
{
    const MontageOutcome first = runMontageTraceSoak();
    const MontageOutcome second = runMontageTraceSoak();
    EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace faasflow::load
