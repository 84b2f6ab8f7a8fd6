/** @file Tests for the multi-tenant open-loop load subsystem: arrival
 *  processes, the spec parser, the token-bucket/defer admission path in
 *  System, the workload driver, the ContainerPool autoscaling verbs,
 *  the reactive Autoscaler — and the determinism golden tests (trace
 *  attribution and BENCH_load.json byte-identical across repeated runs
 *  and campaign thread counts). */
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "faasflow/system.h"
#include "load/arrival.h"
#include "load/autoscaler.h"
#include "load/driver.h"
#include "load/saturation.h"
#include "load/spec.h"
#include "obs/attribution.h"
#include "obs/slo.h"
#include "obs/trace_model.h"
#include "workflow/wdl.h"
#include "yamllite/yaml.h"

namespace faasflow::load {
namespace {

constexpr const char* kChainYaml = R"yaml(
name: chain
functions:
  - name: a
    exec_ms: 100
    sigma: 0
    peak_mb: 100
  - name: b
    exec_ms: 100
    sigma: 0
    peak_mb: 100
steps:
  - task: a
    output_mb: 2
  - task: b
)yaml";

/** Registers + deploys the 2-step chain; returns its name. */
std::string
deployChain(System& system)
{
    auto wdl = workflow::parseWdlYaml(kChainYaml);
    EXPECT_TRUE(wdl.ok()) << wdl.error;
    system.registerFunctions(wdl.functions);
    return system.deploy(std::move(wdl.dag));
}

/** Arrival train of `process` from t=0 until `horizon`. */
std::vector<SimTime>
train(ArrivalProcess process, SimTime horizon, uint64_t seed)
{
    Rng rng(seed);
    std::vector<SimTime> out;
    SimTime t;
    for (;;) {
        t = process.next(t, rng);
        if (t > horizon)
            break;
        out.push_back(t);
    }
    return out;
}

// ------------------------------------------------------------- Arrivals

TEST(ArrivalTest, PoissonMatchesMeanRateDeterministically)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Poisson;
    spec.rate_per_min = 120.0;
    const auto a = train(ArrivalProcess(spec), SimTime::seconds(60), 9);
    // Poisson(120) over one minute: stay within ~4 sigma of the mean.
    EXPECT_GT(a.size(), 75u);
    EXPECT_LT(a.size(), 165u);
    for (size_t i = 1; i < a.size(); ++i)
        EXPECT_LT(a[i - 1], a[i]);  // strictly increasing
    // Equal spec + equal seed -> the identical train.
    const auto b = train(ArrivalProcess(spec), SimTime::seconds(60), 9);
    EXPECT_EQ(a, b);
    const auto c = train(ArrivalProcess(spec), SimTime::seconds(60), 10);
    EXPECT_NE(a, c);
}

TEST(ArrivalTest, BurstySilentOffPhaseThinsTheTrain)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Bursty;
    spec.rate_per_min = 600.0;
    spec.on_mean = SimTime::seconds(2);
    spec.off_mean = SimTime::seconds(8);
    spec.off_rate_per_min = 0.0;
    const auto a = train(ArrivalProcess(spec), SimTime::seconds(120), 3);
    // Duty cycle 20%: effective rate ~120/min, far below the on rate.
    // 2 minutes -> ~240 expected; keep wide bounds over phase variance.
    EXPECT_GT(a.size(), 90u);
    EXPECT_LT(a.size(), 500u);
    const auto b = train(ArrivalProcess(spec), SimTime::seconds(120), 3);
    EXPECT_EQ(a, b);
}

TEST(ArrivalTest, RampConcentratesArrivalsAtThePeak)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::DiurnalRamp;
    spec.rate_per_min = 240.0;  // peak, at period/2 = 30 s
    spec.base_rate_per_min = 0.0;
    spec.period = SimTime::seconds(60);
    const auto a = train(ArrivalProcess(spec), SimTime::seconds(60), 5);
    size_t early = 0, peak = 0;
    for (const SimTime t : a) {
        if (t <= SimTime::seconds(10))
            ++early;
        if (t > SimTime::seconds(25) && t <= SimTime::seconds(35))
            ++peak;
    }
    // Intensity starts at the trough (0) and peaks at 4/s: the window
    // around the peak must dominate the opening window.
    EXPECT_LT(early, 15u);
    EXPECT_GT(peak, 20u);
    EXPECT_GT(peak, 2 * early);
}

TEST(ArrivalTest, HistogramFollowsPerBinRatesAndDrains)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Histogram;
    spec.bin = SimTime::seconds(10);
    spec.bin_rates_per_min = {600.0, 0.0, 60.0};
    spec.repeat = false;
    const auto a = train(ArrivalProcess(spec), SimTime::seconds(120), 4);
    size_t bin0 = 0, bin1 = 0, bin2 = 0, after = 0;
    for (const SimTime t : a) {
        if (t <= SimTime::seconds(10))
            ++bin0;
        else if (t <= SimTime::seconds(20))
            ++bin1;
        else if (t <= SimTime::seconds(30))
            ++bin2;
        else
            ++after;
    }
    // 600/min over 10 s -> ~100; silent bin -> 0; 60/min -> ~10;
    // non-repeating histogram -> nothing past its span.
    EXPECT_GT(bin0, 60u);
    EXPECT_EQ(bin1, 0u);
    EXPECT_GT(bin2, 2u);
    EXPECT_LT(bin2, 30u);
    EXPECT_EQ(after, 0u);
    // Equal spec + equal seed -> the identical train.
    const auto b = train(ArrivalProcess(spec), SimTime::seconds(120), 4);
    EXPECT_EQ(a, b);
}

TEST(ArrivalTest, RepeatingHistogramLoops)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Histogram;
    spec.bin = SimTime::seconds(5);
    spec.bin_rates_per_min = {600.0, 0.0};
    spec.repeat = true;
    const auto a = train(ArrivalProcess(spec), SimTime::seconds(40), 8);
    size_t cycle3 = 0;
    for (const SimTime t : a) {
        // Third on-bin: [20 s, 25 s).
        if (t > SimTime::seconds(20) && t <= SimTime::seconds(25))
            ++cycle3;
        // Every arrival lands in an on-bin (even 10 s cycles).
        const int64_t in_cycle = t.micros() % (10 * 1000000);
        EXPECT_LE(in_cycle, 5 * 1000000);
    }
    EXPECT_GT(cycle3, 20u);
}

TEST(ArrivalTest, DrainedHistogramReturnsNeverSentinel)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Histogram;
    spec.bin = SimTime::millis(100);
    spec.bin_rates_per_min = {60.0};
    spec.repeat = false;
    ArrivalProcess process(spec);
    Rng rng(1);
    (void)process.next(SimTime::zero(), rng);  // anchors bin 0 at t = 0
    // Ask far past the histogram span: the sentinel must be the driver's
    // "never" value so the horizon check filters it.
    EXPECT_EQ(process.next(SimTime::seconds(10), rng), SimTime::max());
}

// ------------------------------------------------------------ LoadSpec

TEST(LoadSpecTest, ParsesFullBlock)
{
    const auto doc = yaml::parse(
        "name: x\n"
        "load:\n"
        "  horizon_ms: 45000\n"
        "  autoscale: true\n"
        "  tenants:\n"
        "    - name: inter\n"
        "      arrival: {process: poisson, rate_per_min: 90}\n"
        "      admission: {policy: shed, rate_per_s: 1.5, burst: 5}\n"
        "      mix: {vid: 3, wc: 1}\n"
        "    - name: batch\n"
        "      arrival: {process: bursty, rate_per_min: 300, on_ms: 4000,"
        " off_ms: 12000}\n"
        "      admission: {policy: defer, rate_per_s: 1, max_deferred: 64}\n"
        "    - name: bg\n"
        "      arrival: {process: ramp, rate_per_min: 60,"
        " base_rate_per_min: 6, period_ms: 30000}\n");
    ASSERT_TRUE(doc.ok()) << doc.error;
    const LoadSpec spec = parseLoadSpec(*doc.value);
    ASSERT_TRUE(spec.ok()) << spec.error;
    ASSERT_TRUE(spec.present);
    EXPECT_EQ(spec.horizon, SimTime::millis(45000));
    EXPECT_TRUE(spec.autoscale);
    ASSERT_EQ(spec.tenants.size(), 3u);

    const TenantSpec& inter = spec.tenants[0];
    EXPECT_EQ(inter.name, "inter");
    EXPECT_EQ(inter.arrival.kind, ArrivalKind::Poisson);
    EXPECT_DOUBLE_EQ(inter.arrival.rate_per_min, 90.0);
    EXPECT_TRUE(inter.admission.enabled);
    EXPECT_FALSE(inter.admission.defer);
    EXPECT_DOUBLE_EQ(inter.admission.rate_per_s, 1.5);
    EXPECT_DOUBLE_EQ(inter.admission.burst, 5.0);
    ASSERT_EQ(inter.mix.size(), 2u);

    const TenantSpec& batch = spec.tenants[1];
    EXPECT_EQ(batch.arrival.kind, ArrivalKind::Bursty);
    EXPECT_EQ(batch.arrival.on_mean, SimTime::millis(4000));
    EXPECT_EQ(batch.arrival.off_mean, SimTime::millis(12000));
    EXPECT_TRUE(batch.admission.defer);
    EXPECT_EQ(batch.admission.max_deferred, 64);

    const TenantSpec& bg = spec.tenants[2];
    EXPECT_EQ(bg.arrival.kind, ArrivalKind::DiurnalRamp);
    EXPECT_DOUBLE_EQ(bg.arrival.base_rate_per_min, 6.0);
    EXPECT_EQ(bg.arrival.period, SimTime::millis(30000));
    EXPECT_FALSE(bg.admission.enabled);
}

TEST(LoadSpecTest, AbsentBlockIsOkButNotPresent)
{
    const auto doc = yaml::parse("name: x\n");
    ASSERT_TRUE(doc.ok());
    const LoadSpec spec = parseLoadSpec(*doc.value);
    EXPECT_TRUE(spec.ok());
    EXPECT_FALSE(spec.present);
}

TEST(LoadSpecTest, RejectsUnknownProcessAndPolicy)
{
    const auto bad_process = yaml::parse(
        "load:\n"
        "  tenants:\n"
        "    - name: t\n"
        "      arrival: {process: sawtooth}\n");
    ASSERT_TRUE(bad_process.ok());
    EXPECT_FALSE(parseLoadSpec(*bad_process.value).ok());

    const auto bad_policy = yaml::parse(
        "load:\n"
        "  tenants:\n"
        "    - name: t\n"
        "      admission: {policy: teleport}\n");
    ASSERT_TRUE(bad_policy.ok());
    EXPECT_FALSE(parseLoadSpec(*bad_policy.value).ok());
}

// ----------------------------------------------------------- Admission

TEST(AdmissionTest, TokenBucketShedsBeyondBurstAndRefills)
{
    System system(SystemConfig::faasflowFaastore());
    const std::string wf = deployChain(system);
    TenantPolicy policy;
    policy.tenant = "t";
    policy.rate_per_s = 1.0;
    policy.burst = 2.0;
    system.setTenantPolicy(policy);

    using Status = System::SubmitOutcome::Status;
    // Bucket starts full at 2 tokens: third immediate arrival sheds.
    EXPECT_EQ(system.submit(wf, "t").status, Status::Admitted);
    EXPECT_EQ(system.submit(wf, "t").status, Status::Admitted);
    EXPECT_EQ(system.submit(wf, "t").status, Status::Shed);

    // By t=2.5s the bucket refilled to its 2-token cap: two more pass,
    // the next sheds again.
    system.simulator().scheduleAt(SimTime::millis(2500), [&] {
        EXPECT_EQ(system.submit(wf, "t").status, Status::Admitted);
        EXPECT_EQ(system.submit(wf, "t").status, Status::Admitted);
        EXPECT_EQ(system.submit(wf, "t").status, Status::Shed);
    });
    system.run();

    const TenantAdmissionStats& st = system.admissionStats("t");
    EXPECT_EQ(st.offered, 6u);
    EXPECT_EQ(st.admitted, 4u);
    EXPECT_EQ(st.shed, 2u);
    EXPECT_EQ(st.shed_rate, 2u);
    EXPECT_EQ(st.completed, 4u);
    EXPECT_EQ(system.metrics().tenantCount("t"), 4u);
}

TEST(AdmissionTest, DeferredArrivalsDrainFifoAndPayTheWait)
{
    System system(SystemConfig::faasflowFaastore());
    const std::string wf = deployChain(system);
    TenantPolicy policy;
    policy.tenant = "t";
    policy.rate_per_s = 1.0;
    policy.burst = 1.0;
    policy.defer = true;
    system.setTenantPolicy(policy);

    using Status = System::SubmitOutcome::Status;
    EXPECT_EQ(system.submit(wf, "t").status, Status::Admitted);
    EXPECT_EQ(system.submit(wf, "t").status, Status::Deferred);
    EXPECT_EQ(system.submit(wf, "t").status, Status::Deferred);
    EXPECT_EQ(system.tenantDeferred("t"), 2u);
    system.run();

    const TenantAdmissionStats& st = system.admissionStats("t");
    EXPECT_EQ(st.offered, 3u);
    EXPECT_EQ(st.admitted, 3u);  // both deferred arrivals eventually ran
    EXPECT_EQ(st.deferred, 2u);
    EXPECT_EQ(st.shed, 0u);
    EXPECT_EQ(st.completed, 3u);
    EXPECT_EQ(system.tenantDeferred("t"), 0u);
    // Tokens accrue at 1/s: admissions at t=1s and t=2s, waits of
    // 1000 ms and 2000 ms.
    ASSERT_EQ(st.defer_wait_ms.count(), 2u);
    EXPECT_NEAR(st.defer_wait_ms.mean(), 1500.0, 1.0);
    // Deferred e2e is charged from the offered instant: the slowest
    // completion must carry at least its 2 s admission wait.
    EXPECT_GT(system.metrics().tenantE2e("t").p99(), 2000.0);
}

TEST(AdmissionTest, InFlightGateShedsUntilCompletions)
{
    System system(SystemConfig::faasflowFaastore());
    const std::string wf = deployChain(system);
    TenantPolicy policy;
    policy.tenant = "t";
    policy.max_in_flight = 1;
    system.setTenantPolicy(policy);

    using Status = System::SubmitOutcome::Status;
    EXPECT_EQ(system.submit(wf, "t").status, Status::Admitted);
    EXPECT_EQ(system.tenantInFlight("t"), 1u);
    EXPECT_EQ(system.submit(wf, "t").status, Status::Shed);
    // Well after the first invocation drains, the slot is free again.
    system.simulator().scheduleAt(SimTime::seconds(30), [&] {
        EXPECT_EQ(system.tenantInFlight("t"), 0u);
        EXPECT_EQ(system.submit(wf, "t").status, Status::Admitted);
    });
    system.run();

    const TenantAdmissionStats& st = system.admissionStats("t");
    EXPECT_EQ(st.admitted, 2u);
    EXPECT_EQ(st.shed_depth, 1u);
    EXPECT_EQ(st.completed, 2u);
}

TEST(AdmissionTest, DeferQueueOverflowSheds)
{
    System system(SystemConfig::faasflowFaastore());
    const std::string wf = deployChain(system);
    TenantPolicy policy;
    policy.tenant = "t";
    policy.rate_per_s = 0.5;
    policy.burst = 1.0;
    policy.defer = true;
    policy.max_deferred = 1;
    system.setTenantPolicy(policy);

    using Status = System::SubmitOutcome::Status;
    EXPECT_EQ(system.submit(wf, "t").status, Status::Admitted);
    EXPECT_EQ(system.submit(wf, "t").status, Status::Deferred);
    EXPECT_EQ(system.submit(wf, "t").status, Status::Shed);
    system.run();
    EXPECT_EQ(system.admissionStats("t").shed_queue_full, 1u);
}

TEST(AdmissionTest, UnknownTenantRunsUnderOpenPolicy)
{
    System system(SystemConfig::faasflowFaastore());
    const std::string wf = deployChain(system);
    using Status = System::SubmitOutcome::Status;
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(system.submit(wf, "anon").status, Status::Admitted);
    system.run();
    EXPECT_EQ(system.admissionStats("anon").completed, 5u);
    const auto tenants = system.admissionTenants();
    ASSERT_EQ(tenants.size(), 1u);
    EXPECT_EQ(tenants[0], "anon");
}

// -------------------------------------------------------------- Driver

TEST(DriverTest, OpenLoopArrivalsStopAtHorizon)
{
    System system(SystemConfig::faasflowFaastore());
    const std::string wf = deployChain(system);

    LoadSpec spec;
    spec.present = true;
    spec.horizon = SimTime::seconds(2);
    TenantSpec tenant;
    tenant.name = "t";
    tenant.arrival.rate_per_min = 600.0;  // ~10/s Poisson
    spec.tenants.push_back(tenant);

    LoadDriver driver(system, std::move(spec), 11, wf);
    driver.start();
    system.run();

    ASSERT_EQ(driver.counters().size(), 1u);
    const uint64_t arrivals = driver.counters()[0].arrivals;
    EXPECT_GT(arrivals, 6u);
    EXPECT_LT(arrivals, 40u);
    // Every arrival went through the admission path (open policy) and
    // the drain completed all of them.
    const TenantAdmissionStats& st = system.admissionStats("t");
    EXPECT_EQ(st.offered, arrivals);
    EXPECT_EQ(st.admitted, arrivals);
    EXPECT_EQ(st.completed, arrivals);
}

TEST(DriverTest, MixDrawsEveryWeightedWorkflow)
{
    System system(SystemConfig::faasflowFaastore());
    const std::string chain = deployChain(system);
    auto solo = workflow::parseWdlYaml(
        "name: solo\n"
        "functions:\n"
        "  - name: s\n"
        "    exec_ms: 50\n"
        "steps:\n"
        "  - task: s\n");
    ASSERT_TRUE(solo.ok()) << solo.error;
    system.registerFunctions(solo.functions);
    const std::string solo_name = system.deploy(std::move(solo.dag));

    LoadSpec spec;
    spec.present = true;
    spec.horizon = SimTime::seconds(5);
    TenantSpec tenant;
    tenant.name = "t";
    tenant.arrival.rate_per_min = 600.0;
    tenant.mix.push_back(MixEntry{chain, 1.0});
    tenant.mix.push_back(MixEntry{solo_name, 1.0});
    spec.tenants.push_back(tenant);

    LoadDriver driver(system, std::move(spec), 13);
    driver.start();
    system.run();

    // Both workflows saw completions: the cumulative-weight draw covers
    // the whole mix.
    EXPECT_GT(system.metrics().e2e(chain).count(), 0u);
    EXPECT_GT(system.metrics().e2e(solo_name).count(), 0u);
}

// ------------------------------------------------ ContainerPool verbs

TEST(PoolTest, PrewarmFillsIdleSetWithoutCountingColdStarts)
{
    System system(SystemConfig::faasflowFaastore());
    auto wdl = workflow::parseWdlYaml(kChainYaml);
    ASSERT_TRUE(wdl.ok());
    system.registerFunctions(wdl.functions);
    auto& pool = system.cluster().worker(0).pool();

    EXPECT_EQ(pool.prewarm("a", 2), 2);  // both starts initiated
    // Let the cold starts finish, but stop short of the 600 s idle
    // lifetime after which the keep-alive policy reaps them again.
    system.runFor(SimTime::seconds(30));
    EXPECT_EQ(pool.containerCount("a"), 2);
    EXPECT_EQ(pool.idleContainers(), 2);
    EXPECT_EQ(pool.coldStarts(), 0u);  // prewarms are not cold starts
    EXPECT_EQ(pool.functionLoad("a").waiting, 0);
}

TEST(PoolTest, PrewarmRespectsPerFunctionLimit)
{
    System system(SystemConfig::faasflowFaastore());
    auto wdl = workflow::parseWdlYaml(kChainYaml);
    ASSERT_TRUE(wdl.ok());
    system.registerFunctions(wdl.functions);
    auto& pool = system.cluster().worker(0).pool();
    // Ask far past the per-function container limit: starts are capped.
    const int started = pool.prewarm("a", 64);
    EXPECT_GT(started, 0);
    EXPECT_LT(started, 64);
    system.runFor(SimTime::seconds(30));
    EXPECT_EQ(pool.containerCount("a"), started);
}

// ---------------------------------------------------------- Autoscaler

TEST(AutoscalerTest, ScalesUpUnderLoadAndIsDeterministic)
{
    auto scenario = [] {
        System system(SystemConfig::faasflowFaastore());
        const std::string wf = deployChain(system);
        LoadSpec spec;
        spec.present = true;
        spec.horizon = SimTime::seconds(3);
        TenantSpec tenant;
        tenant.name = "t";
        tenant.arrival.rate_per_min = 300.0;
        spec.tenants.push_back(tenant);
        LoadDriver driver(system, std::move(spec), 17, wf);
        Autoscaler scaler(system);
        driver.start();
        scaler.start();
        system.run();
        return std::tuple<uint64_t, uint64_t, size_t>(
            scaler.stats().ticks, scaler.stats().scale_up_total,
            system.metrics().tenantCount("t"));
    };
    const auto a = scenario();
    const auto b = scenario();
    EXPECT_GT(std::get<0>(a), 0u);  // it ticked
    EXPECT_EQ(a, b);                // identical decisions and outcomes
}

// -------------------------------------------------------- Periodic ticks

/**
 * examples/load_scenario.yaml under every on/off combination of the
 * telemetry sampler, the autoscaler, the online profiler and the SLO
 * monitor. The sampler and the autoscaler each re-arm only while other
 * work is pending, so every combination must drain, the two ticks
 * together included; and the observers must not change what the tenants
 * see. The autoscaler only adds warm containers, and it must not raise
 * any tenant's p50.
 */
TEST(PeriodicTickTest, LoadScenarioDrainsUnderEveryObserverCombination)
{
    std::ifstream in(FAASFLOW_LOAD_SCENARIO);
    ASSERT_TRUE(in) << FAASFLOW_LOAD_SCENARIO;
    std::stringstream text;
    text << in.rdbuf();
    const std::string yaml = text.str();

    // Tenant outcomes and p50s with every observer off, per autoscaler
    // setting.
    std::string reference[2];
    std::map<std::string, double> p50[2];
    for (int mask = 0; mask < 16; ++mask) {
        const bool sampler = (mask & 1) != 0;
        const bool autoscale = (mask & 2) != 0;
        const bool profiler = (mask & 4) != 0;
        const bool slo = (mask & 8) != 0;
        const std::string label = strFormat(
            "sampler=%d autoscaler=%d profiler=%d slo=%d", sampler,
            autoscale, profiler, slo);

        SystemConfig config = SystemConfig::faasflowFaastore();
        config.profile_enabled = profiler;
        config.telemetry_interval = SimTime::seconds(1);
        System system(config);
        auto wdl = workflow::parseWdlYaml(yaml);
        ASSERT_TRUE(wdl.ok()) << wdl.error;
        system.registerFunctions(wdl.functions);
        const std::string wf = system.deploy(std::move(wdl.dag));
        const auto doc = yaml::parse(yaml);
        ASSERT_TRUE(doc.ok()) << doc.error;
        LoadSpec spec = parseLoadSpec(*doc.value);
        ASSERT_TRUE(spec.ok() && spec.present) << spec.error;
        if (slo) {
            for (const auto& tenant : spec.tenants)
                system.setTenantSlo(tenant.name, obs::SloSpec{});
        }
        LoadDriver driver(system, std::move(spec), config.seed + 1, wf);
        Autoscaler scaler(system);
        driver.start();
        if (autoscale)
            scaler.start();
        if (sampler)
            system.startTelemetry();

        // Bounded, so a run that never drains fails instead of hanging:
        // the scenario drains within its 60 s horizon plus the 600 s
        // container keep-alive.
        system.simulator().runUntil(SimTime::seconds(3600));
        // Every event ever scheduled, background ticks included, fired
        // or was cancelled: nothing is left queued.
        const auto& queue = system.simulator().queueStats();
        EXPECT_EQ(queue.scheduled, queue.fired + queue.cancelled) << label;

        std::string outcome;
        for (const std::string& t : system.admissionTenants()) {
            const auto& st = system.admissionStats(t);
            const auto& e2e = system.metrics().tenantE2e(t);
            outcome += strFormat(
                "%s %llu %llu %llu %llu %llu %llu %.17g %.17g\n", t.c_str(),
                static_cast<unsigned long long>(st.offered),
                static_cast<unsigned long long>(st.admitted),
                static_cast<unsigned long long>(st.deferred),
                static_cast<unsigned long long>(st.shed),
                static_cast<unsigned long long>(st.completed),
                static_cast<unsigned long long>(st.timeouts), e2e.p50(),
                e2e.p99());
        }
        outcome += strFormat(
            "autoscaler %llu %llu\n",
            static_cast<unsigned long long>(scaler.stats().ticks),
            static_cast<unsigned long long>(scaler.stats().scale_up_total));
        EXPECT_GT(system.metrics().tenantCount("interactive"), 0u) << label;
        if (!sampler && !profiler && !slo) {
            reference[autoscale] = outcome;
            for (const std::string& t : system.admissionTenants())
                p50[autoscale][t] = system.metrics().tenantE2e(t).p50();
        } else {
            EXPECT_EQ(outcome, reference[autoscale]) << label;
        }
    }

    ASSERT_EQ(p50[0].size(), 3u);
    for (const auto& [tenant, off] : p50[0]) {
        ASSERT_EQ(p50[1].count(tenant), 1u) << tenant;
        EXPECT_LE(p50[1][tenant], off) << tenant;
    }
}

// ------------------------------------------------- Determinism goldens

TEST(GoldenTest, TraceAttributionByteIdenticalAcrossRuns)
{
    auto run = [] {
        System system(SystemConfig::faasflowFaastore());
        system.trace().enable();
        const std::string wf = deployChain(system);
        LoadSpec spec;
        spec.present = true;
        spec.horizon = SimTime::seconds(2);
        TenantSpec tenant;
        tenant.name = "t";
        tenant.arrival.rate_per_min = 240.0;
        tenant.admission.enabled = true;
        tenant.admission.rate_per_s = 2.0;
        tenant.admission.burst = 2.0;
        spec.tenants.push_back(tenant);
        LoadDriver driver(system, std::move(spec), 7, wf);
        driver.start();
        system.run();

        // The exact per-invocation attribution faasflow_trace prints,
        // flattened to text, plus the raw Chrome trace export.
        const obs::TraceModel model = obs::modelFromRecorder(system.trace());
        std::string attrs;
        for (const auto& a : obs::attributeInvocations(model)) {
            attrs += a.name + ":" + std::to_string(a.e2eUs()) + ":" +
                     std::to_string(a.coldstart_us) + ":" +
                     std::to_string(a.queue_us) + ":" +
                     std::to_string(a.fetch_us) + ":" +
                     std::to_string(a.exec_us) + ":" +
                     std::to_string(a.save_us) + ":" +
                     std::to_string(a.sched_us) + "\n";
        }
        return std::pair<std::string, std::string>(
            system.trace().toChromeTraceText(), std::move(attrs));
    };
    const auto a = run();
    const auto b = run();
    EXPECT_FALSE(a.second.empty());
    EXPECT_EQ(a.first, b.first);    // trace export byte-identical
    EXPECT_EQ(a.second, b.second);  // attribution byte-identical
}

TEST(GoldenTest, SweepJsonByteIdenticalAcrossRunsAndThreadCounts)
{
    SaturationConfig cfg;
    cfg.multipliers = {1.0};
    cfg.horizon = SimTime::seconds(4);
    cfg.threads = 1;
    const std::string once = sweepJson(runSaturationSweep(cfg), cfg);
    const std::string twice = sweepJson(runSaturationSweep(cfg), cfg);
    EXPECT_EQ(once, twice);

    cfg.threads = 4;
    const std::string wide = sweepJson(runSaturationSweep(cfg), cfg);
    EXPECT_EQ(once, wide);

    // Sanity on the emitted document: valid JSON with both grid cells.
    const auto doc = json::parse(once);
    ASSERT_TRUE(doc.ok()) << doc.error;
    const json::Value* points = doc.value->find("points");
    ASSERT_NE(points, nullptr);
    EXPECT_EQ(points->asArray().size(), 2u);  // admission off + on at 1.0x
}

// ---------------------------------------------------------- Trace replay

TEST(TraceTest, HistogramArrivalParsesFromLoadBlock)
{
    const json::Value doc = yaml::parseOrDie(
        "load:\n"
        "  horizon_ms: 5000\n"
        "  tenants:\n"
        "    - name: replay\n"
        "      arrival:\n"
        "        process: histogram\n"
        "        bin_ms: 1000\n"
        "        rates_per_min: [120, 0, 600]\n"
        "        repeat: true\n");
    const LoadSpec spec = parseLoadSpec(doc);
    ASSERT_TRUE(spec.ok()) << spec.error;
    ASSERT_EQ(spec.tenants.size(), 1u);
    const ArrivalSpec& arrival = spec.tenants[0].arrival;
    EXPECT_EQ(arrival.kind, ArrivalKind::Histogram);
    EXPECT_EQ(arrival.bin, SimTime::seconds(1));
    EXPECT_EQ(arrival.bin_rates_per_min,
              (std::vector<double>{120, 0, 600}));
    EXPECT_TRUE(arrival.repeat);
    EXPECT_EQ(arrival.rate_per_min, 600.0);  // derived peak

    EXPECT_FALSE(parseLoadSpec(yaml::parseOrDie(
                                   "load:\n"
                                   "  tenants:\n"
                                   "    - name: t\n"
                                   "      arrival: {process: histogram}\n"))
                     .ok());
    EXPECT_FALSE(
        parseLoadSpec(yaml::parseOrDie(
                          "load:\n"
                          "  tenants:\n"
                          "    - name: t\n"
                          "      arrival:\n"
                          "        process: histogram\n"
                          "        rates_per_min: [0, 0]\n"))
            .ok());
}

TEST(TraceTest, TraceReplayDrivesTheSystemEndToEnd)
{
    // Two replayed histograms over 2 s bins: 40 and 80 arrivals per bin.
    const LoadSpec spec = parseLoadSpec(yaml::parseOrDie(
        "load:\n"
        "  horizon_ms: 6000\n"
        "  tenants:\n"
        "    - name: burst\n"
        "      arrival:\n"
        "        process: histogram\n"
        "        bin_ms: 2000\n"
        "        rates_per_min: [0, 2400, 0]\n"
        "    - name: replay\n"
        "      arrival:\n"
        "        process: histogram\n"
        "        bin_ms: 2000\n"
        "        rates_per_min: [1200, 0, 1200]\n"));
    ASSERT_TRUE(spec.ok()) << spec.error;

    auto runOnce = [&] {
        SystemConfig config = SystemConfig::faasflowFaastore();
        config.seed = 17;
        System system(config);
        const std::string workflow = deployChain(system);
        LoadDriver driver(system, spec, 99, workflow);
        driver.start();
        system.run();
        return driver.counters();
    };
    const auto a = runOnce();
    const auto b = runOnce();
    // Both tenants produced arrivals, and replay is deterministic.
    ASSERT_EQ(a.size(), 2u);
    ASSERT_EQ(b.size(), 2u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_GT(a[i].arrivals, 0u) << a[i].tenant;
        EXPECT_EQ(a[i].tenant, b[i].tenant);
        EXPECT_EQ(a[i].arrivals, b[i].arrivals);
    }
}

}  // namespace
}  // namespace faasflow::load
