/** @file Property tests for worker-crash recovery: across DAG shapes,
 *  crash instants and both control modes, a crashed workflow must still
 *  complete (via master re-dispatch of the lost sub-graph), leave no
 *  engine State behind, and never be slower than physically necessary. */
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "engine/recovery.h"
#include "faasflow/system.h"
#include "sim/fault_schedule.h"
#include "workflow/wdl.h"

namespace faasflow {
namespace {

using engine::InvocationRecord;

// All functions run a deterministic 100 ms (sigma 0) so "the victim node
// cannot have finished yet" is provable from the crash instant alone.
constexpr const char* kChainYaml = R"yaml(
name: rec-chain
functions:
  - name: a
    exec_ms: 100
    sigma: 0
    peak_mb: 60
  - name: b
    exec_ms: 100
    sigma: 0
    peak_mb: 60
  - name: c
    exec_ms: 100
    sigma: 0
    peak_mb: 60
steps:
  - task: a
    output_mb: 5
  - task: b
    output_mb: 5
  - task: c
)yaml";

constexpr const char* kDiamondYaml = R"yaml(
name: rec-diamond
functions:
  - name: split
    exec_ms: 100
    sigma: 0
    peak_mb: 60
  - name: left
    exec_ms: 100
    sigma: 0
    peak_mb: 60
  - name: right
    exec_ms: 100
    sigma: 0
    peak_mb: 60
  - name: merge
    exec_ms: 100
    sigma: 0
    peak_mb: 60
steps:
  - task: split
    output_mb: 5
  - parallel:
      branches:
        - - task: left
            output_mb: 3
        - - task: right
            output_mb: 3
  - task: merge
)yaml";

constexpr const char* kForeachYaml = R"yaml(
name: rec-foreach
functions:
  - name: pre
    exec_ms: 100
    sigma: 0
    peak_mb: 60
  - name: body
    exec_ms: 100
    sigma: 0
    peak_mb: 60
  - name: post
    exec_ms: 100
    sigma: 0
    peak_mb: 60
steps:
  - task: pre
    output_mb: 5
  - foreach:
      width: 4
      steps:
        - task: body
          output_mb: 2
  - task: post
)yaml";

struct Param
{
    const char* label;
    const char* yaml;
    /** The crashed worker is whichever one hosts this node. */
    const char* victim_node;
    int crash_ms;
    /** True when the victim node provably cannot be done at crash_ms
     *  (it needs a 100 ms predecessor plus its own 100 ms execution),
     *  so the crash must cost at least one recovery pass. */
    bool victim_in_flight;
    bool master;
};

// gtest would otherwise print a Param as its raw bytes (pointers and
// padding), which differ from run to run.
void
PrintTo(const Param& p, std::ostream* os)
{
    *os << p.label << "{victim=" << p.victim_node
        << ",crash_ms=" << p.crash_ms << ","
        << (p.master ? "MasterSP" : "WorkerSP") << "}";
}

std::string
paramName(const ::testing::TestParamInfo<Param>& info)
{
    return std::string(info.param.label) + "_" +
           std::to_string(info.param.crash_ms) + "ms_" +
           (info.param.master ? "MasterSP" : "WorkerSP");
}

struct RunResult
{
    InvocationRecord record;
    bool completed = false;
    size_t state_entries = 0;
};

RunResult
runOnce(const char* yaml, bool master, const char* victim_node,
        int crash_ms)
{
    SystemConfig config = master ? SystemConfig::hyperflowServerless()
                                 : SystemConfig::faasflowFaastore();
    config.seed = 7;
    auto wdl = workflow::parseWdlYaml(yaml);
    EXPECT_TRUE(wdl.ok()) << wdl.error;

    System system(config);
    system.registerFunctions(wdl.functions);
    const std::string name = system.deploy(std::move(wdl.dag));

    if (crash_ms >= 0) {
        const auto& dag = system.deployed(name).dag;
        const workflow::NodeId victim = dag.findByName(victim_node);
        EXPECT_GE(victim, 0) << victim_node;
        const int victim_worker =
            system.deployed(name).placement->workerOf(victim);
        sim::FaultSchedule faults;
        faults.addWorkerCrash(victim_worker, SimTime::millis(crash_ms),
                              SimTime::millis(350));
        system.installFaults(faults);
    }

    RunResult out;
    const uint64_t id = system.invoke(name, [&](const InvocationRecord& r) {
        out.record = r;
        out.completed = true;
    });
    system.run();
    out.state_entries = system.engineStateEntries(id);

    EXPECT_EQ(system.metrics().timeouts(name), 0u);
    for (size_t w = 0; w < system.cluster().workerCount(); ++w)
        EXPECT_TRUE(system.workerAlive(w)) << "worker " << w;
    return out;
}

class RecoveryMatrixTest : public ::testing::TestWithParam<Param>
{
};

TEST_P(RecoveryMatrixTest, CrashedWorkflowCompletesCleanly)
{
    const Param& p = GetParam();

    const RunResult base =
        runOnce(p.yaml, p.master, p.victim_node, /*crash_ms=*/-1);
    ASSERT_TRUE(base.completed);
    ASSERT_FALSE(base.record.timed_out);

    const RunResult faulted =
        runOnce(p.yaml, p.master, p.victim_node, p.crash_ms);

    // The invocation completes despite the crash, without hitting the
    // execution timeout, and every engine released its State structure.
    ASSERT_TRUE(faulted.completed);
    EXPECT_FALSE(faulted.record.timed_out);
    EXPECT_EQ(faulted.state_entries, 0u);

    // Work is never lost silently: at least as many function executions
    // as the fault-free run (re-runs can only add).
    EXPECT_GE(faulted.record.functions_executed,
              base.record.functions_executed);

    if (p.victim_in_flight) {
        // The victim node was provably not done yet, so the crash must
        // have cost a recovery pass. (No latency assertion: remapping
        // the lost sub-graph onto one replacement can *improve* data
        // locality enough to outweigh the re-execution.)
        EXPECT_GE(faulted.record.recoveries, 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RecoveryMatrixTest,
    ::testing::Values(
        // Chain: crash b's worker before b starts / while b (or its
        // worker's sub-graph) is in flight / near the tail.
        Param{"chain", kChainYaml, "b", 50, true, false},
        Param{"chain", kChainYaml, "b", 150, true, false},
        Param{"chain", kChainYaml, "b", 250, false, false},
        Param{"chain", kChainYaml, "b", 50, true, true},
        Param{"chain", kChainYaml, "b", 150, true, true},
        Param{"chain", kChainYaml, "b", 250, false, true},
        // Diamond: lose one parallel branch.
        Param{"diamond", kDiamondYaml, "left", 50, true, false},
        Param{"diamond", kDiamondYaml, "left", 150, true, false},
        Param{"diamond", kDiamondYaml, "left", 50, true, true},
        Param{"diamond", kDiamondYaml, "left", 150, true, true},
        // Foreach: lose a 4-wide fan-out mid-flight.
        Param{"foreach", kForeachYaml, "body", 150, true, false},
        Param{"foreach", kForeachYaml, "body", 150, true, true}),
    paramName);

TEST(RecoveryTest, InvocationSubmittedWhileWorkerDownRoutesAround)
{
    SystemConfig config = SystemConfig::faasflowFaastore();
    config.seed = 7;
    auto wdl = workflow::parseWdlYaml(kChainYaml);
    ASSERT_TRUE(wdl.ok()) << wdl.error;

    System system(config);
    system.registerFunctions(wdl.functions);
    const std::string name = system.deploy(std::move(wdl.dag));

    // Worker 0 is dead from t=0 for a long 10 s; detection fires at
    // 300 ms. An invocation submitted at 400 ms must be routed around
    // the dead worker and complete long before the reboot.
    sim::FaultSchedule faults;
    faults.addWorkerCrash(0, SimTime::millis(0), SimTime::seconds(10));
    system.installFaults(faults);

    InvocationRecord record;
    bool completed = false;
    system.simulator().scheduleAt(SimTime::millis(400), [&] {
        system.invoke(name, [&](const InvocationRecord& r) {
            record = r;
            completed = true;
        });
    });
    system.run();

    ASSERT_TRUE(completed);
    EXPECT_FALSE(record.timed_out);
    // Completed while worker 0 was still down: submit + well under 10 s.
    EXPECT_LT(record.finish, SimTime::seconds(5));
}

TEST(RecoveryTest, BackToBackCrashesOfDifferentWorkersAreSurvived)
{
    SystemConfig config = SystemConfig::faasflowFaastore();
    config.seed = 7;
    auto wdl = workflow::parseWdlYaml(kDiamondYaml);
    ASSERT_TRUE(wdl.ok()) << wdl.error;

    System system(config);
    system.registerFunctions(wdl.functions);
    const std::string name = system.deploy(std::move(wdl.dag));

    const auto& dag = system.deployed(name).dag;
    const auto& placement = *system.deployed(name).placement;
    const int w_left = placement.workerOf(dag.findByName("left"));
    const int w_right = placement.workerOf(dag.findByName("right"));

    sim::FaultSchedule faults;
    faults.addWorkerCrash(w_left, SimTime::millis(150),
                          SimTime::millis(300));
    // The second crash may hit the same worker (after its reboot) or a
    // different one — both must be survivable.
    faults.addWorkerCrash(w_right, SimTime::millis(600),
                          SimTime::millis(300));
    system.installFaults(faults);

    InvocationRecord record;
    bool completed = false;
    const uint64_t id = system.invoke(name, [&](const InvocationRecord& r) {
        record = r;
        completed = true;
    });
    system.run();

    ASSERT_TRUE(completed);
    EXPECT_FALSE(record.timed_out);
    EXPECT_GE(record.recoveries, 1u);
    EXPECT_EQ(system.engineStateEntries(id), 0u);
}

TEST(RecoveryTest, CrashWithNoLiveInvocationsIsHarmless)
{
    SystemConfig config = SystemConfig::faasflowFaastore();
    config.seed = 7;
    auto wdl = workflow::parseWdlYaml(kChainYaml);
    ASSERT_TRUE(wdl.ok()) << wdl.error;

    System system(config);
    system.registerFunctions(wdl.functions);
    const std::string name = system.deploy(std::move(wdl.dag));

    sim::FaultSchedule faults;
    faults.addWorkerCrash(2, SimTime::seconds(30), SimTime::seconds(1));
    system.installFaults(faults);

    bool completed = false;
    system.invoke(name, [&](const InvocationRecord&) { completed = true; });
    system.run();

    EXPECT_TRUE(completed);
    // The crash happened long after the workflow drained: no recovery.
    EXPECT_EQ(system.recoveriesPerformed(), 0u);
    for (size_t w = 0; w < system.cluster().workerCount(); ++w)
        EXPECT_TRUE(system.workerAlive(w));
}

TEST(RecoveryTest, BrownoutOverlappingCrashRecoveryStillMatchesGolden)
{
    // Compound fault: the remote store browns out exactly while a
    // worker-crash recovery re-fetches inputs and re-saves outputs.
    // Recovery traffic is slower but must stay correct — byte-identical
    // outputs vs. the fault-free twin.
    auto runOnce = [](bool faulted) {
        SystemConfig config = SystemConfig::faasflowFaastore();
        config.seed = 7;
        auto wdl = workflow::parseWdlYaml(kForeachYaml);
        EXPECT_TRUE(wdl.ok()) << wdl.error;
        System system(config);
        system.registerFunctions(wdl.functions);
        const std::string name = system.deploy(std::move(wdl.dag));
        if (faulted) {
            const auto& dag = system.deployed(name).dag;
            const int victim = system.deployed(name).placement->workerOf(
                dag.findByName("body"));
            sim::FaultSchedule faults;
            faults.addWorkerCrash(victim, SimTime::millis(150),
                                  SimTime::millis(400));
            faults.addStorageBrownout(SimTime::millis(100),
                                      SimTime::seconds(2), 5.0);
            system.installFaults(faults);
        }
        InvocationRecord record;
        bool completed = false;
        system.invoke(name, [&](const InvocationRecord& r) {
            record = r;
            completed = true;
        });
        system.run();
        EXPECT_TRUE(completed);
        return record;
    };

    const InvocationRecord golden = runOnce(false);
    const InvocationRecord r = runOnce(true);
    EXPECT_FALSE(r.timed_out);
    EXPECT_GE(r.recoveries, 1u);
    EXPECT_EQ(r.output_digest, golden.output_digest);
    EXPECT_EQ(r.duplicate_executions, 0u);
}

TEST(RecoveryTest, LinkOutageDuringRedispatchStillMatchesGolden)
{
    // Compound fault: while the crashed worker's sub-graph is being
    // re-dispatched, links go down (a sibling worker's and the storage
    // node's). Control messages back off and retransmit; the recovery
    // must converge to the same bytes regardless.
    auto runOnce = [](bool faulted) {
        SystemConfig config = SystemConfig::faasflowFaastore();
        config.seed = 7;
        auto wdl = workflow::parseWdlYaml(kDiamondYaml);
        EXPECT_TRUE(wdl.ok()) << wdl.error;
        System system(config);
        system.registerFunctions(wdl.functions);
        const std::string name = system.deploy(std::move(wdl.dag));
        if (faulted) {
            const auto& dag = system.deployed(name).dag;
            const int victim = system.deployed(name).placement->workerOf(
                dag.findByName("left"));
            sim::FaultSchedule faults;
            faults.addWorkerCrash(victim, SimTime::millis(150),
                                  SimTime::seconds(2));
            // Detection fires ~300 ms after the crash; both outages
            // bracket the re-dispatch window that follows it.
            const int sibling =
                (victim + 1) %
                static_cast<int>(config.cluster.worker_count);
            faults.addLinkDown(sibling, SimTime::millis(400),
                               SimTime::millis(300));
            faults.addLinkDown(-1, SimTime::millis(450),
                               SimTime::millis(200));
            system.installFaults(faults);
        }
        InvocationRecord record;
        bool completed = false;
        system.invoke(name, [&](const InvocationRecord& r) {
            record = r;
            completed = true;
        });
        system.run();
        EXPECT_TRUE(completed);
        return record;
    };

    const InvocationRecord golden = runOnce(false);
    const InvocationRecord r = runOnce(true);
    EXPECT_FALSE(r.timed_out);
    EXPECT_GE(r.recoveries, 1u);
    EXPECT_EQ(r.output_digest, golden.output_digest);
    EXPECT_EQ(r.duplicate_executions, 0u);
}

TEST(RecoveryTest, GroupCommitCrashRollsBackUnflushedCompletionFacts)
{
    // Under GroupCommit a node's successors fire only at its NodeDone
    // batch ack, so a crash that drops the worker's unflushed batch must
    // roll the node back for re-drive, even when its output reached the
    // remote store. One task per worker sends every output remote, which
    // leaves the dropped fact as the only loss; a 250 ms batch window
    // keeps facts buffered long enough for the sweep of crash instants
    // to hit them.
    size_t delivered = 0;
    size_t timed_out = 0;
    uint64_t rolled_back = 0;
    for (int k = 0; k < 120; ++k) {
        SystemConfig config = SystemConfig::faasflowFaastore();
        config.seed = 7;
        config.durable_log = true;
        config.durability_mode = engine::DurabilityMode::GroupCommit;
        config.progress_log.batch_window = SimTime::millis(250);
        config.invocation_timeout = SimTime::seconds(20);
        auto wdl = workflow::parseWdlYaml(kChainYaml);
        ASSERT_TRUE(wdl.ok()) << wdl.error;

        System system(config);
        system.registerFunctions(wdl.functions);
        scheduler::Placement one_per_worker;
        for (int i = 0; i < static_cast<int>(wdl.dag.nodeCount()); ++i) {
            one_per_worker.worker_of.push_back(i);
            one_per_worker.storage_mem.push_back(false);
            one_per_worker.groups.push_back({i});
            one_per_worker.group_worker.push_back(i);
        }
        const std::string name =
            system.deploy(std::move(wdl.dag), std::move(one_per_worker));

        sim::FaultSchedule faults;
        faults.addWorkerCrash(0, SimTime::millis(600 + 5 * k),
                              SimTime::millis(400));
        system.installFaults(faults);
        for (int i = 0; i < 4; ++i) {
            system.invoke(name, [&](const InvocationRecord& r) {
                ++delivered;
                if (r.timed_out)
                    ++timed_out;
            });
        }
        system.run();
        rolled_back += system.recoveryStats().rolled_back_nodes;
    }
    EXPECT_EQ(delivered, 480u);
    EXPECT_EQ(timed_out, 0u);
    EXPECT_GT(rolled_back, 0u);
}

/** Random nested workflow for the lostNodeSet property test: enough
 *  construct variety to produce payload-through-fence shapes. */
std::string
randomRecoveryYaml(Rng& rng, const std::string& name)
{
    std::string yaml = "name: " + name + "\n";
    std::string functions = "functions:\n";
    std::string steps = "steps:\n";
    int fn_counter = 0;
    auto new_fn = [&] {
        const std::string fn = strFormat("%s_f%d", name.c_str(),
                                         fn_counter++);
        functions += strFormat(
            "  - name: %s\n    exec_ms: %d\n    sigma: 0\n    peak_mb: %d\n",
            fn.c_str(), static_cast<int>(rng.uniformInt(10, 100)),
            static_cast<int>(rng.uniformInt(80, 160)));
        return fn;
    };
    auto task_step = [&](int indent) {
        std::string pad(static_cast<size_t>(indent), ' ');
        std::string s = pad + "- task: " + new_fn() + "\n";
        if (rng.uniform() < 0.8) {
            s += pad +
                 strFormat("  output_mb: %.1f", rng.uniform(0.1, 3.0)) +
                 "\n";
        }
        return s;
    };
    const int top_steps = 2 + static_cast<int>(rng.uniformInt(0, 3));
    for (int i = 0; i < top_steps; ++i) {
        const double dice = rng.uniform();
        if (dice < 0.4) {
            steps += task_step(2);
        } else if (dice < 0.6) {
            const int branches = 2 + static_cast<int>(rng.uniformInt(0, 2));
            steps += "  - parallel:\n      branches:\n";
            for (int b = 0; b < branches; ++b) {
                steps += "        - steps:\n";
                steps += task_step(12);
                if (rng.uniform() < 0.4)
                    steps += task_step(12);
            }
        } else if (dice < 0.8) {
            steps += "  - switch:\n      branches:\n";
            for (int b = 0; b < 2; ++b) {
                steps += "        - steps:\n";
                steps += task_step(12);
            }
        } else {
            steps += strFormat(
                "  - foreach:\n      width: %d\n      steps:\n",
                2 + static_cast<int>(rng.uniformInt(0, 3)));
            steps += task_step(8);
        }
    }
    return yaml + functions + steps;
}

/** The re-run set as a plain fixpoint, the executable definition
 *  lostNodeSet's single worklist pass must reproduce exactly: seed with
 *  unfinished nodes on the dead worker, then pull in done producers
 *  whose (lost) local output some re-run or not-done consumer still has
 *  to read, and done virtual fences gating a re-run node, until nothing
 *  changes. */
std::vector<uint8_t>
referenceLostNodeSet(const engine::Invocation& inv, int crashed_worker)
{
    const auto& dag = inv.wf->dag;
    std::vector<uint8_t> rerun(dag.nodeCount(), 0);
    bool changed = true;
    while (changed) {
        changed = false;
        for (const auto& node : dag.nodes()) {
            const size_t idx = static_cast<size_t>(node.id);
            if (rerun[idx] ||
                inv.placement->workerOf(node.id) != crashed_worker) {
                continue;
            }
            if (!inv.node_done[idx]) {
                rerun[idx] = 1;
                changed = true;
                continue;
            }
            if (inv.node_output_worker[idx] != crashed_worker)
                continue;
            bool needed = false;
            for (const auto& edge : dag.edges()) {
                for (const auto& item : edge.payload) {
                    const size_t to = static_cast<size_t>(edge.to);
                    if (item.origin == node.id &&
                        (rerun[to] || !inv.node_done[to])) {
                        needed = true;
                    }
                }
            }
            if (needed) {
                rerun[idx] = 1;
                changed = true;
            }
        }
        for (const auto& node : dag.nodes()) {
            const size_t idx = static_cast<size_t>(node.id);
            if (rerun[idx] || !node.isVirtual() || !inv.node_done[idx])
                continue;
            for (const size_t e : dag.outEdges(node.id)) {
                if (rerun[static_cast<size_t>(dag.edge(e).to)]) {
                    rerun[idx] = 1;
                    changed = true;
                    break;
                }
            }
        }
    }
    return rerun;
}

class LostNodeSetPropertyTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(LostNodeSetPropertyTest, ClosureIsSoundCompleteAndMinimal)
{
    Rng rng(GetParam());
    auto wdl = workflow::parseWdlYaml(randomRecoveryYaml(rng, "prop"));
    ASSERT_TRUE(wdl.ok()) << wdl.error;
    const workflow::Dag& dag = wdl.dag;
    constexpr int kWorkers = 4;

    for (int round = 0; round < 16; ++round) {
        // Random placement, then a random downward-closed done set (a
        // node can only be done when all its predecessors are), with
        // outputs kept local only where the FaaStore invariant allows.
        scheduler::Placement pl;
        pl.worker_of.resize(dag.nodeCount());
        for (int& w : pl.worker_of)
            w = static_cast<int>(rng.uniformInt(0, kWorkers - 1));

        engine::DeployedWorkflow wf;
        wf.name = "prop";
        wf.dag = dag;
        wf.index = workflow::indexDag(dag);
        wf.placement =
            std::make_shared<const scheduler::Placement>(std::move(pl));

        engine::Invocation inv;
        inv.wf = &wf;
        inv.placement = wf.placement;
        const size_t n = dag.nodeCount();
        inv.node_done.assign(n, 0);
        inv.node_triggered.assign(n, 0);
        inv.node_exec.assign(n, SimTime::zero());
        inv.node_skipped.assign(n, false);
        inv.node_drive_epoch.assign(n, 0);
        inv.node_output_worker.assign(n, -1);
        inv.node_ran.assign(n, 0);
        inv.node_run_epoch.assign(n, 0);

        for (const auto& node : dag.nodes()) {
            bool preds_done = true;
            for (const size_t e : dag.inEdges(node.id)) {
                if (!inv.node_done[static_cast<size_t>(dag.edge(e).from)])
                    preds_done = false;
            }
            const size_t i = static_cast<size_t>(node.id);
            if (preds_done && rng.uniform() < 0.7) {
                inv.node_done[i] = 1;
                if (node.isTask() &&
                    wf.placement->allConsumersLocal(wf.index, node.id) &&
                    rng.uniform() < 0.6) {
                    inv.node_output_worker[i] =
                        wf.placement->workerOf(node.id);
                }
            }
        }

        const int crashed = static_cast<int>(rng.uniformInt(0, kWorkers - 1));
        const auto rerun = engine::lostNodeSet(inv, crashed);
        EXPECT_EQ(rerun, referenceLostNodeSet(inv, crashed));

        for (const auto& node : dag.nodes()) {
            const size_t i = static_cast<size_t>(node.id);
            const bool on_crashed =
                wf.placement->workerOf(node.id) == crashed;

            // Sound: every unfinished node on the dead worker re-runs.
            if (on_crashed && !inv.node_done[i]) {
                EXPECT_TRUE(rerun[i]) << node.name;
            }

            // Surviving-worker *tasks* are never re-executed — only
            // zero-cost virtual fences may be re-driven elsewhere.
            if (!on_crashed && node.isTask()) {
                EXPECT_FALSE(rerun[i]) << node.name;
            }

            // A done output that made it to the remote store is safe.
            if (node.isTask() && inv.node_done[i] &&
                inv.node_output_worker[i] != crashed) {
                EXPECT_FALSE(rerun[i]) << node.name;
            }

            // Gate closure: a done fence with any re-run successor is
            // itself re-driven (the re-drive wave must pass through it).
            if (node.isVirtual() && inv.node_done[i] && !rerun[i]) {
                for (const size_t e : dag.outEdges(node.id)) {
                    EXPECT_FALSE(
                        rerun[static_cast<size_t>(dag.edge(e).to)])
                        << node.name << " gates a re-run successor";
                }
            }

            // Minimal: every re-run node is justified — it lived on the
            // crashed worker, or it is a done fence covering one.
            if (rerun[i] && !on_crashed) {
                ASSERT_TRUE(node.isVirtual()) << node.name;
                EXPECT_TRUE(inv.node_done[i]) << node.name;
                bool covers = false;
                for (const size_t e : dag.outEdges(node.id)) {
                    if (rerun[static_cast<size_t>(dag.edge(e).to)])
                        covers = true;
                }
                EXPECT_TRUE(covers) << node.name;
            }
        }

        // Complete: every lost-only producer of a re-run (or pending)
        // payload consumer is in the set.
        for (const auto& edge : dag.edges()) {
            for (const auto& item : edge.payload) {
                const size_t o = static_cast<size_t>(item.origin);
                const size_t to = static_cast<size_t>(edge.to);
                if (inv.node_done[o] &&
                    inv.node_output_worker[o] == crashed &&
                    (rerun[to] || !inv.node_done[to])) {
                    EXPECT_TRUE(rerun[o])
                        << "lost producer "
                        << dag.node(item.origin).name << " of consumer "
                        << dag.node(edge.to).name;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LostNodeSetPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u));

TEST(RecoveryTest, StorageBrownoutSlowsButCompletes)
{
    SystemConfig config = SystemConfig::faasflowRemoteOnly();
    config.seed = 7;
    auto wdl = workflow::parseWdlYaml(kChainYaml);
    ASSERT_TRUE(wdl.ok()) << wdl.error;

    auto runWith = [&](bool brownout) {
        auto w = workflow::parseWdlYaml(kChainYaml);
        System system(config);
        system.registerFunctions(w.functions);
        const std::string name = system.deploy(std::move(w.dag));
        if (brownout) {
            sim::FaultSchedule faults;
            faults.addStorageBrownout(SimTime::zero(),
                                      SimTime::seconds(10), 5.0);
            system.installFaults(faults);
        }
        InvocationRecord record;
        system.invoke(name,
                      [&](const InvocationRecord& r) { record = r; });
        system.run();
        EXPECT_FALSE(record.timed_out);
        return record;
    };

    const InvocationRecord normal = runWith(false);
    const InvocationRecord degraded = runWith(true);
    EXPECT_GT(degraded.data_latency, normal.data_latency);
    EXPECT_GT(degraded.e2e(), normal.e2e());
}

}  // namespace
}  // namespace faasflow
