/** @file Tests for the online profile store: log-scale histogram
 *  algebra (merge associativity/commutativity), digest order-
 *  independence, campaign digest bit-identity, and the chaos-vs-golden
 *  anomaly detector. */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "benchmarks/specs.h"
#include "common/campaign.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "faasflow/client.h"
#include "faasflow/system.h"
#include "workflow/wdl.h"
#include "obs/profile.h"
#include "sim/fault_schedule.h"

namespace faasflow::obs {
namespace {

// ------------------------------------------------------ LogHistogram

TEST(LogHistogramTest, BinningIsMonotoneAndInvertible)
{
    EXPECT_EQ(LogHistogram::binOf(0), 0);
    EXPECT_EQ(LogHistogram::binOf(-5), 0);
    int prev = 0;
    for (int64_t v = 1; v < (int64_t{1} << 40); v = v * 2 + 1) {
        const int bin = LogHistogram::binOf(v);
        EXPECT_GE(bin, prev) << "value " << v;
        // Every value lies at or below its bin's upper edge.
        EXPECT_LE(v, LogHistogram::binUpper(bin)) << "value " << v;
        prev = bin;
    }
    EXPECT_LT(prev, LogHistogram::kBins);
}

TEST(LogHistogramTest, CountSumMaxQuantile)
{
    LogHistogram h;
    for (int64_t v : {100, 200, 300, 400, 1000})
        h.record(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 2000);
    EXPECT_EQ(h.max(), 1000);
    EXPECT_DOUBLE_EQ(h.mean(), 400.0);
    // Quantiles come back as bin upper edges clamped to the true max:
    // p99 can never exceed the largest recorded sample.
    EXPECT_LE(h.p50(), h.p99());
    EXPECT_LE(h.p99(), static_cast<double>(h.max()));
    EXPECT_GE(h.p50(), 100.0);
}

TEST(LogHistogramTest, MergeIsAssociativeAndCommutative)
{
    Rng rng(42);
    auto randomHist = [&rng] {
        LogHistogram h;
        const int n = 50 + static_cast<int>(rng.uniformInt(0, 199));
        for (int i = 0; i < n; ++i) {
            // Span many octaves: µs-scale latencies to GB-scale bytes.
            const int64_t v = rng.uniformInt(1, 1'000'000'000);
            h.record(v);
        }
        return h;
    };
    for (int trial = 0; trial < 20; ++trial) {
        const LogHistogram a = randomHist();
        const LogHistogram b = randomHist();
        const LogHistogram c = randomHist();

        LogHistogram ab_c = a;
        ab_c.merge(b);
        ab_c.merge(c);

        LogHistogram a_bc = b;
        a_bc.merge(c);
        LogHistogram left = a;
        left.merge(a_bc);

        LogHistogram cba = c;
        cba.merge(b);
        cba.merge(a);

        uint64_t d1 = 14695981039346656037ULL;
        uint64_t d2 = d1;
        uint64_t d3 = d1;
        ab_c.fold(d1);
        left.fold(d2);
        cba.fold(d3);
        EXPECT_EQ(d1, d2) << "trial " << trial;
        EXPECT_EQ(d1, d3) << "trial " << trial;
        EXPECT_EQ(ab_c.count(), cba.count());
        EXPECT_EQ(ab_c.sum(), cba.sum());
        EXPECT_EQ(ab_c.max(), cba.max());
    }
}

// ------------------------------------------------------ ProfileStore

TEST(ProfileStoreTest, DisabledStoreRecordsNothing)
{
    ProfileStore store;
    store.recordExec("wf", "a", SimTime::millis(5));
    store.recordEdge("wf", 0, "a", "b", SimTime::millis(1), 100, 100,
                     SimTime::millis(1), true);
    EXPECT_EQ(store.nodeSampleCount(), 0u);
    EXPECT_EQ(store.edgeSampleCount(), 0u);
    EXPECT_TRUE(store.nodes().empty());
}

TEST(ProfileStoreTest, DigestIndependentOfRecordingOrder)
{
    struct Sample
    {
        const char* node;
        int64_t exec_us;
    };
    std::vector<Sample> samples;
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        samples.push_back({i % 3 == 0   ? "split"
                           : i % 3 == 1 ? "work"
                                        : "merge",
                           rng.uniformInt(1, 100000)});
    }
    ProfileStore forward;
    forward.enable();
    for (const Sample& s : samples)
        forward.recordExec("wf", s.node, SimTime::micros(s.exec_us));

    ProfileStore backward;
    backward.enable();
    for (auto it = samples.rbegin(); it != samples.rend(); ++it)
        backward.recordExec("wf", it->node, SimTime::micros(it->exec_us));

    EXPECT_EQ(forward.digest(), backward.digest());
    EXPECT_NE(forward.digest(), ProfileStore().digest());
}

TEST(ProfileStoreTest, MergeOrderDoesNotChangeDigest)
{
    auto makeStore = [](uint64_t seed) {
        ProfileStore store;
        store.enable();
        Rng rng(seed);
        for (int i = 0; i < 100; ++i) {
            store.recordExec("wf", seed % 2 == 0 ? "a" : "b",
                             SimTime::micros(rng.uniformInt(1, 50000)));
            store.recordEdge(
                "wf", seed % 3, "a", "b", SimTime::micros(i * 1000),
                4096, rng.uniformInt(1, 10000),
                SimTime::micros(rng.uniformInt(1, 3000)), i % 2 == 0);
            store.recordTenantCompletion(
                "t", SimTime::micros(2000 + i), i % 7 == 0);
        }
        return store;
    };
    const ProfileStore s1 = makeStore(1);
    const ProfileStore s2 = makeStore(2);
    const ProfileStore s3 = makeStore(3);

    ProfileStore left = s1;
    left.merge(s2);
    left.merge(s3);

    ProfileStore right = s3;
    right.merge(s1);
    right.merge(s2);

    EXPECT_EQ(left.digest(), right.digest());
    EXPECT_EQ(left.nodeSampleCount(), right.nodeSampleCount());
    EXPECT_EQ(left.edgeSampleCount(), right.edgeSampleCount());
}

// ----------------------------------------------------- Anomaly detection

TEST(ProfileStoreTest, FlagsBytesDeviationFromSpec)
{
    ProfileStore store;
    store.enable();
    // Observed payloads 8x the WDL's declared edge size.
    for (int i = 0; i < 10; ++i) {
        store.recordEdge("wf", 0, "a", "b", SimTime::millis(i),
                         1'000'000, 8'000'000, SimTime::micros(500),
                         true);
    }
    const std::vector<EdgeAnomaly> anomalies = store.anomalies();
    ASSERT_EQ(anomalies.size(), 1u);
    EXPECT_EQ(anomalies[0].kind, "bytes");
    EXPECT_EQ(anomalies[0].from, "a");
    EXPECT_EQ(anomalies[0].to, "b");
    EXPECT_NEAR(anomalies[0].factor, 8.0, 0.01);

    // On-spec payloads are not anomalous.
    ProfileStore clean;
    clean.enable();
    for (int i = 0; i < 10; ++i) {
        clean.recordEdge("wf", 0, "a", "b", SimTime::millis(i),
                         1'000'000, 1'000'000, SimTime::micros(500),
                         true);
    }
    EXPECT_TRUE(clean.anomalies().empty());
}

TEST(ProfileStoreTest, ChaosRunFlagsFaultedWindowGoldenRunStaysClean)
{
    // The same workload twice: a golden run, and a chaos run with a
    // storage brownout inflating remote-store latencies 16x for a
    // 2-second window. The fan-out workflow mixes local and remote
    // fetches, so the lifetime p50 baseline stays anchored by fast
    // local traffic and the detector must flag the brownout window —
    // and nothing in the golden run.
    static const char* kWdl =
        "name: chaos\n"
        "functions:\n"
        "  - name: split\n"
        "    exec_ms: 40\n"
        "    mem_mb: 256\n"
        "  - name: work\n"
        "    exec_ms: 60\n"
        "    mem_mb: 256\n"
        "  - name: merge\n"
        "    exec_ms: 20\n"
        "    mem_mb: 256\n"
        "steps:\n"
        "  - task: split\n"
        "    output_kb: 64\n"
        "  - foreach:\n"
        "      width: 3\n"
        "      steps:\n"
        "        - task: work\n"
        "          output_kb: 32\n"
        "  - task: merge\n";
    auto run = [](bool faulted) {
        SystemConfig config = SystemConfig::faasflowFaastore();
        config.profile_enabled = true;
        System system(config);
        if (faulted) {
            sim::FaultSchedule faults;
            faults.addStorageBrownout(SimTime::seconds(1),
                                      SimTime::seconds(2), 16.0);
            system.installFaults(faults);
        }
        workflow::WdlResult wdl = workflow::parseWdlYaml(kWdl);
        EXPECT_TRUE(wdl.ok()) << wdl.error;
        system.registerFunctions(wdl.functions);
        const std::string name = system.deploy(std::move(wdl.dag));
        ClosedLoopClient client(system, name, 30);
        client.start();
        system.run();
        return system.profile().anomalies();
    };
    const std::vector<EdgeAnomaly> golden = run(false);
    EXPECT_TRUE(golden.empty())
        << "golden run flagged " << golden.size() << " anomalies, e.g. "
        << (golden.empty() ? "" : golden[0].kind + " on " +
                                      golden[0].from + "->" +
                                      golden[0].to);
    const std::vector<EdgeAnomaly> chaos = run(true);
    ASSERT_FALSE(chaos.empty());
    bool latency_flagged = false;
    for (const EdgeAnomaly& a : chaos) {
        latency_flagged = latency_flagged || a.kind == "latency";
        EXPECT_GE(a.window_start, SimTime::zero());
    }
    EXPECT_TRUE(latency_flagged);
}

// ------------------------------------------- Campaign & fleet identity

TEST(ProfileStoreTest, CampaignDigestsIdenticalAcrossThreadCounts)
{
    auto job = [](uint64_t seed) {
        SystemConfig config = SystemConfig::faasflowFaastore();
        config.profile_enabled = true;
        config.seed = seed;
        System system(config);
        system.registerFunctions(benchmarks::videoFfmpeg().functions);
        workflow::Dag dag = benchmarks::videoFfmpeg().dag;
        const std::string name = system.deploy(std::move(dag));
        ClosedLoopClient client(system, name, 5);
        client.start();
        system.run();
        return system.profile();
    };
    std::vector<std::function<obs::ProfileStore()>> jobs;
    for (uint64_t seed = 1; seed <= 4; ++seed)
        jobs.push_back([job, seed] { return job(seed); });

    const std::vector<obs::ProfileStore> seq = bench::runCampaign(jobs, 1);
    const std::vector<obs::ProfileStore> par = bench::runCampaign(jobs, 4);
    ASSERT_EQ(seq.size(), par.size());
    for (size_t i = 0; i < seq.size(); ++i)
        EXPECT_EQ(seq[i].digest(), par[i].digest()) << "job " << i;

    // Folding the per-job stores in job order is the canonical campaign
    // aggregate; it must not depend on the execution width either.
    ProfileStore merged_seq;
    merged_seq.enable();
    ProfileStore merged_par;
    merged_par.enable();
    for (size_t i = 0; i < seq.size(); ++i) {
        merged_seq.merge(seq[i]);
        merged_par.merge(par[i]);
    }
    EXPECT_EQ(merged_seq.digest(), merged_par.digest());
    EXPECT_GT(merged_seq.nodeSampleCount(), 0u);
}

// ---------------------------------------------------------- Exporters

TEST(ProfileStoreTest, JsonDumpCarriesSchemaAndDigest)
{
    ProfileStore store;
    store.enable();
    store.recordExec("wf", "a", SimTime::millis(5));
    store.recordTenantArrival("t");
    store.recordTenantCompletion("t", SimTime::millis(9), false);
    const json::Value dump = store.toJson(SimTime::seconds(1));
    ASSERT_TRUE(dump.isObject());
    EXPECT_EQ(dump.find("schema")->asString(), "faasflow.profile.v1");
    EXPECT_EQ(dump.find("digest")->asString(),
              strFormat("%016llx",
                        static_cast<unsigned long long>(store.digest())));
    EXPECT_EQ(dump.find("nodes")->asArray().size(), 1u);
    EXPECT_EQ(dump.find("tenants")->asArray().size(), 1u);

    const std::string prom = store.toPrometheusText();
    EXPECT_NE(prom.find("faasflow_profile_node_exec_us"),
              std::string::npos);
    EXPECT_NE(prom.find("faasflow_profile_anomalies_total"),
              std::string::npos);
}

}  // namespace
}  // namespace faasflow::obs
