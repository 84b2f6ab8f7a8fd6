/** @file Unit tests for the durable progress log: commit/ack timing
 *  from the storage node vs. over the network, replay reconstruction,
 *  idempotent completion facts, tail compaction, finished-stub
 *  retention of the idempotency-key binding, and brown-out coupling. */
#include <gtest/gtest.h>

#include <string>

#include "net/network.h"
#include "sim/simulator.h"
#include "storage/progress_log.h"

namespace faasflow::storage {
namespace {

struct Fixture
{
    sim::Simulator sim;
    net::Network net;
    net::NodeId storage;
    net::NodeId worker;
    ProgressLog log;

    explicit Fixture(ProgressLog::Config config = {},
                     bool group_commit = false)
        : net(sim),
          storage(net.addNode("storage", 100e6, 100e6)),
          worker(net.addNode("worker", 100e6, 100e6)),
          log(sim, net, storage, config, group_commit)
    {
    }
};

LogRecord
nodeDone(uint64_t inv, int32_t node, int32_t output_worker = -1)
{
    LogRecord rec;
    rec.kind = LogRecordKind::NodeDone;
    rec.invocation = inv;
    rec.node = node;
    rec.exec_micros = 1000 * (node + 1);
    rec.output_worker = output_worker;
    return rec;
}

LogRecord
submitted(uint64_t inv, std::string workflow, std::string key = {})
{
    LogRecord rec;
    rec.kind = LogRecordKind::InvocationSubmitted;
    rec.invocation = inv;
    rec.workflow = std::move(workflow);
    rec.idempotency_key = std::move(key);
    return rec;
}

TEST(ProgressLogTest, StorageLocalAppendCommitsAtWalLatency)
{
    Fixture f;
    SimTime elapsed = SimTime::seconds(-1);
    f.log.append(f.storage, nodeDone(1, 0),
                 [&](SimTime t) { elapsed = t; });
    f.sim.run();
    // Commit-at-issue: only the WAL latency, no network hop.
    EXPECT_EQ(elapsed, ProgressLog::Config{}.append_latency);
    EXPECT_EQ(f.log.stats().appends, 1u);
    EXPECT_GT(f.log.stats().committed_bytes, 0u);
}

TEST(ProgressLogTest, WorkerAppendPaysTheNetworkRoundTrip)
{
    Fixture f;
    SimTime local, remote;
    f.log.append(f.storage, nodeDone(1, 0), [&](SimTime t) { local = t; });
    f.log.append(f.worker, nodeDone(1, 1), [&](SimTime t) { remote = t; });
    f.sim.run();
    // The worker-side ack needs record + ack to cross the wire.
    EXPECT_GT(remote, local);
    EXPECT_EQ(f.log.stats().appends, 2u);
}

TEST(ProgressLogTest, ReplayRebuildsCompletionState)
{
    Fixture f;
    f.log.append(f.storage, submitted(7, "wf", "key-7"));
    f.log.append(f.storage, nodeDone(7, 0, /*output_worker=*/2));
    LogRecord skip = nodeDone(7, 3);
    skip.skipped = 1;
    f.log.append(f.storage, skip);
    LogRecord sw;
    sw.kind = LogRecordKind::StateSignal;
    sw.invocation = 7;
    sw.switch_id = 0;
    sw.switch_branch = 1;
    f.log.append(f.storage, sw);
    f.sim.run();

    ReplayState rs = f.log.replay(7, /*node_count=*/5);
    EXPECT_TRUE(rs.submitted);
    EXPECT_FALSE(rs.finished);
    EXPECT_EQ(rs.workflow, "wf");
    ASSERT_EQ(rs.node_done.size(), 5u);
    EXPECT_EQ(rs.node_done[0], 1);
    EXPECT_EQ(rs.node_done[1], 0);
    EXPECT_EQ(rs.node_done[3], 1);
    EXPECT_EQ(rs.node_skipped[3], 1);
    EXPECT_EQ(rs.node_output_worker[0], 2);
    EXPECT_EQ(rs.node_output_worker[1], -1);
    EXPECT_EQ(rs.node_exec[0], SimTime::millis(1));
    ASSERT_EQ(rs.switch_choice.count(0), 1u);
    EXPECT_EQ(rs.switch_choice.at(0), 1);
    EXPECT_EQ(f.log.stats().replays, 1u);
}

TEST(ProgressLogTest, DuplicateNodeDoneFoldsToOneFactLastWins)
{
    Fixture f;
    // A legitimate at-least-once re-execution after a worker crash: the
    // second completion fact must fold into the first, keeping the most
    // recent output location.
    f.log.append(f.storage, nodeDone(1, 2, /*output_worker=*/4));
    f.log.append(f.storage, nodeDone(1, 2, /*output_worker=*/5));
    f.sim.run();
    ReplayState rs = f.log.replay(1, 4);
    EXPECT_EQ(rs.node_done[2], 1);
    EXPECT_EQ(rs.node_output_worker[2], 5);
}

TEST(ProgressLogTest, TailCompactsPastThreshold)
{
    ProgressLog::Config config;
    config.compaction_threshold = 8;
    Fixture f(config);
    for (int32_t n = 0; n < 40; ++n)
        f.log.append(f.storage, nodeDone(1, n));
    f.sim.run();
    // The tail never grows past the threshold; the checkpoint holds the
    // folded prefix and replay still sees every fact.
    EXPECT_LE(f.log.tailLength(1), 8u);
    EXPECT_GT(f.log.stats().compactions, 0u);
    ReplayState rs = f.log.replay(1, 40);
    for (int32_t n = 0; n < 40; ++n)
        EXPECT_EQ(rs.node_done[static_cast<size_t>(n)], 1) << n;
}

TEST(ProgressLogTest, FinishedStubKeepsIdempotencyBinding)
{
    Fixture f;
    f.log.append(f.storage, submitted(9, "wf", "client-req-1"));
    f.log.append(f.storage, nodeDone(9, 0));
    LogRecord fin;
    fin.kind = LogRecordKind::InvocationFinished;
    fin.invocation = 9;
    f.log.append(f.storage, fin);
    f.sim.run();

    // The slot compacted to a stub: finished flag and key survive, the
    // per-node facts (no longer needed) do not.
    EXPECT_EQ(f.log.tailLength(9), 0u);
    ReplayState rs = f.log.replay(9, 3);
    EXPECT_TRUE(rs.finished);
    EXPECT_EQ(f.log.submissionFor("client-req-1"), 9u);
    EXPECT_EQ(f.log.submissionFor("never-seen"), 0u);
}

TEST(ProgressLogTest, BrownoutDegradeStretchesCommitLatency)
{
    Fixture f;
    SimTime normal, degraded;
    f.log.append(f.storage, nodeDone(1, 0), [&](SimTime t) { normal = t; });
    f.sim.run();
    f.log.setDegradeFactor(5.0);
    f.log.append(f.storage, nodeDone(1, 1),
                 [&](SimTime t) { degraded = t; });
    f.sim.run();
    EXPECT_EQ(degraded, normal * 5.0);
    f.log.setDegradeFactor(1.0);
    EXPECT_EQ(f.log.degradeFactor(), 1.0);
}

ProgressLog::Config
groupConfig(size_t batch_max = 16,
            SimTime window = SimTime::micros(300))
{
    ProgressLog::Config config;
    config.batch_window = window;
    config.batch_max_records = batch_max;
    return config;
}

TEST(ProgressLogTest, GroupCommitFlushesWhenBatchFills)
{
    Fixture f(groupConfig(/*batch_max=*/4), /*group_commit=*/true);
    std::vector<SimTime> elapsed;
    for (int32_t n = 0; n < 4; ++n) {
        f.log.append(f.storage, nodeDone(1, n),
                     [&](SimTime t) { elapsed.push_back(t); });
    }
    // The 4th record filled the batch: it flushed immediately, without
    // waiting out the linger window.
    f.sim.run();
    ASSERT_EQ(elapsed.size(), 4u);
    for (const SimTime t : elapsed)
        EXPECT_EQ(t, ProgressLog::Config{}.append_latency);
    EXPECT_EQ(f.log.stats().batches, 1u);
    EXPECT_EQ(f.log.stats().flushes_by_size, 1u);
    EXPECT_EQ(f.log.stats().flushes_by_window, 0u);
    EXPECT_EQ(f.log.stats().batch_size_hist[1], 1u);  // 2-4 records
    EXPECT_EQ(f.log.stats().appends, 4u);
}

TEST(ProgressLogTest, GroupCommitLingerFlushesPartialBatch)
{
    Fixture f(groupConfig(/*batch_max=*/16), /*group_commit=*/true);
    std::vector<SimTime> elapsed;
    for (int32_t n = 0; n < 2; ++n) {
        f.log.append(f.storage, nodeDone(1, n),
                     [&](SimTime t) { elapsed.push_back(t); });
    }
    EXPECT_EQ(f.log.pendingRecords(f.storage), 2u);
    EXPECT_EQ(f.log.pendingTotal(), 2u);
    f.sim.run();
    // Both records waited out the window armed by the first append,
    // then paid one commit latency together.
    ASSERT_EQ(elapsed.size(), 2u);
    EXPECT_EQ(elapsed[0], ProgressLog::Config{}.batch_window +
                              ProgressLog::Config{}.append_latency);
    EXPECT_EQ(f.log.pendingTotal(), 0u);
    EXPECT_EQ(f.log.stats().batches, 1u);
    EXPECT_EQ(f.log.stats().flushes_by_window, 1u);
    EXPECT_EQ(f.log.stats().max_pending, 2u);
    // Replay sees both facts once the batch committed.
    ReplayState rs = f.log.replay(1, 3);
    EXPECT_EQ(rs.node_done[0], 1);
    EXPECT_EQ(rs.node_done[1], 1);
}

TEST(ProgressLogTest, GroupCommitBatchPaysOneDegradedCommit)
{
    // Satellite pin: the brown-out multiplier applies to the batch's
    // single commit, not once per record — and it is sampled at flush
    // time, so a brown-out arriving mid-linger stretches the whole
    // batch.
    Fixture f(groupConfig(/*batch_max=*/16), /*group_commit=*/true);
    std::vector<SimTime> elapsed;
    for (int32_t n = 0; n < 3; ++n) {
        f.log.append(f.storage, nodeDone(1, n),
                     [&](SimTime t) { elapsed.push_back(t); });
    }
    f.log.setDegradeFactor(5.0);  // brown-out lands inside the linger
    f.sim.run();
    ASSERT_EQ(elapsed.size(), 3u);
    const SimTime expected = ProgressLog::Config{}.batch_window +
                             ProgressLog::Config{}.append_latency * 5.0;
    // One degraded commit for all three records (3x would mean the
    // degrade compounded per record).
    for (const SimTime t : elapsed)
        EXPECT_EQ(t, expected);
    EXPECT_EQ(f.log.stats().batches, 1u);
}

TEST(ProgressLogTest, WorkerBatchRidesOneMessageAndAcksEveryRecord)
{
    Fixture f(groupConfig(/*batch_max=*/3), /*group_commit=*/true);
    std::vector<SimTime> elapsed;
    for (int32_t n = 0; n < 3; ++n) {
        f.log.append(f.worker, nodeDone(1, n),
                     [&](SimTime t) { elapsed.push_back(t); });
    }
    f.sim.run();
    // One wire round trip for the whole batch; every record's callback
    // fires when the shared ack lands.
    ASSERT_EQ(elapsed.size(), 3u);
    EXPECT_EQ(elapsed[0], elapsed[2]);
    EXPECT_GT(elapsed[0], ProgressLog::Config{}.append_latency);
    EXPECT_EQ(f.log.stats().batches, 1u);
    ReplayState rs = f.log.replay(1, 3);
    for (size_t n = 0; n < 3; ++n)
        EXPECT_EQ(rs.node_done[n], 1) << n;
}

TEST(ProgressLogTest, DropPendingLosesOnlyTheUnflushedSuffix)
{
    Fixture f(groupConfig(/*batch_max=*/4), /*group_commit=*/true);
    std::vector<SimTime> elapsed;
    // 4 records flush by size immediately; the 5th starts a new buffer.
    for (int32_t n = 0; n < 5; ++n) {
        f.log.append(f.storage, nodeDone(1, n),
                     [&](SimTime t) { elapsed.push_back(t); });
    }
    EXPECT_EQ(f.log.pendingRecords(f.storage), 1u);
    // Crash before the 5th record's window expires: the flushed batch
    // is already on the WAL and stays durable; only the suffix is lost.
    const auto lost = f.log.dropPending(f.storage);
    ASSERT_EQ(lost.size(), 1u);
    EXPECT_EQ(lost[0].node, 4);
    EXPECT_EQ(f.log.pendingRecords(f.storage), 0u);
    f.sim.run();
    ASSERT_EQ(elapsed.size(), 4u);  // the dropped record never acked
    EXPECT_EQ(f.log.stats().dropped_records, 1u);
    ReplayState rs = f.log.replay(1, 6);
    for (size_t n = 0; n < 4; ++n)
        EXPECT_EQ(rs.node_done[n], 1) << n;
    EXPECT_EQ(rs.node_done[4], 0);  // the rollback: fact never durable
    // A dead linger timer from the dropped buffer must not flush a
    // successor batch early (arm_seq guard).
    SimTime late;
    f.log.append(f.storage, nodeDone(1, 5), [&](SimTime t) { late = t; });
    f.sim.run();
    EXPECT_EQ(late, ProgressLog::Config{}.batch_window +
                        ProgressLog::Config{}.append_latency);
}

TEST(ProgressLogTest, ExplicitFlushDrainsEveryOrigin)
{
    Fixture f(groupConfig(/*batch_max=*/16, SimTime::seconds(60)),
              /*group_commit=*/true);
    bool a = false, b = false;
    f.log.append(f.storage, nodeDone(1, 0), [&](SimTime) { a = true; });
    f.log.append(f.worker, nodeDone(1, 1), [&](SimTime) { b = true; });
    EXPECT_EQ(f.log.pendingTotal(), 2u);
    f.log.flush();
    EXPECT_EQ(f.log.pendingTotal(), 0u);
    f.sim.run();
    EXPECT_TRUE(a);
    EXPECT_TRUE(b);
    EXPECT_EQ(f.log.stats().batches, 2u);  // one per origin
}

}  // namespace
}  // namespace faasflow::storage
