#ifndef FAASFLOW_STORAGE_PROGRESS_LOG_H_
#define FAASFLOW_STORAGE_PROGRESS_LOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sim_time.h"
#include "common/stats.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace faasflow::storage {

/** What one durable progress-log record asserts (DESIGN.md §8). */
enum class LogRecordKind : uint8_t {
    InvocationSubmitted,  ///< a client accepted this workflow invocation
    NodeDone,             ///< a DAG node's completion fact (exactly-once)
    StateSignal,          ///< a control-plane fact (switch branch choice)
    InvocationFinished    ///< all sinks done; record delivered
};

/**
 * One append-only progress record. Which fields are meaningful depends
 * on `kind`; unused ones keep their defaults so records hash/compare
 * stably in replay digests.
 */
struct LogRecord
{
    LogRecordKind kind = LogRecordKind::NodeDone;
    uint64_t invocation = 0;

    // NodeDone facts.
    int32_t node = -1;
    int64_t exec_micros = 0;
    int32_t output_worker = -1;  ///< worker holding the local output; -1 = remote
    uint8_t skipped = 0;

    // StateSignal facts (switch construct id -> taken branch).
    int32_t switch_id = -1;
    int32_t switch_branch = -1;

    // InvocationSubmitted facts.
    std::string workflow;
    std::string idempotency_key;
};

/**
 * The state `replay` rebuilds for one invocation: exactly the volatile
 * fields a restarted master must restore before it can re-drive the
 * unfinished remainder of the DAG.
 */
struct ReplayState
{
    bool submitted = false;
    bool finished = false;
    std::string workflow;
    std::vector<uint8_t> node_done;
    std::vector<SimTime> node_exec;
    std::vector<uint8_t> node_skipped;
    std::vector<int> node_output_worker;
    std::map<int, int> switch_choice;
};

/**
 * Durable workflow progress log on the storage node (the Netherite
 * pattern: persist progress facts, rebuild engine state by replay).
 *
 * Durability discipline is *commit-at-issue* for the master, which
 * shares the storage node: an append from the storage node itself is
 * committed synchronously (the in-memory master state and the log agree
 * at every instant) and only the acknowledgement — gating successor
 * delivery — pays the commit latency. Appends from workers ride a
 * control message to the storage node, commit on arrival, and ack back
 * over the network.
 *
 * Records are idempotent facts: committing the same NodeDone twice (a
 * legitimate re-execution after a worker crash) folds to one completion
 * fact, which is what makes replay exactly-once even though execution
 * is at-least-once.
 *
 * Per-invocation tails are periodically compacted into checkpoints so
 * replay cost stays bounded; an InvocationFinished record compacts the
 * slot down to a stub that keeps only the finished flag and the
 * idempotency-key binding (so a retried submit never double-runs).
 */
class ProgressLog
{
  public:
    struct Config
    {
        /** Commit latency of one record on the storage node's WAL. */
        SimTime append_latency = SimTime::micros(800);
        /** Wire size of one append message (worker-side appends). */
        int64_t record_bytes = 256;
        /** Wire size of the durability acknowledgement. */
        int64_t ack_bytes = 64;
        /** Tail records per invocation before folding into the
         *  checkpoint. */
        size_t compaction_threshold = 32;

        /** Group commit: a buffered record waits at most this long
         *  before its batch flushes, even if the batch is not full. */
        SimTime batch_window = SimTime::micros(300);
        /** Group commit: a batch flushes immediately at this many
         *  records. */
        size_t batch_max_records = 16;
    };

    struct Stats
    {
        uint64_t appends = 0;
        uint64_t committed_bytes = 0;
        uint64_t compactions = 0;
        uint64_t replays = 0;

        /** Group-commit batches flushed (== WAL round trips). */
        uint64_t batches = 0;
        uint64_t flushes_by_size = 0;    ///< batch hit batch_max_records
        uint64_t flushes_by_window = 0;  ///< linger window expired
        /** Records buffered at flush time, per batch. */
        Summary batch_records;
        /** Batch-size histogram: 1, 2–4, 5–8, 9–16, 17+ records. */
        uint64_t batch_size_hist[5] = {0, 0, 0, 0, 0};
        /** High-water mark of records buffered across all origins (the
         *  speculative window depth an engine may run ahead by). */
        size_t max_pending = 0;
        /** Buffered-but-uncommitted records lost to dropPending (each
         *  is a potential speculation rollback). */
        uint64_t dropped_records = 0;
    };

    /**
     * @param group_commit batch appends: they buffer per origin node and
     *        commit as one batch per storage round trip. The whole batch
     *        pays `append_latency` (times the brown-out degrade factor)
     *        ONCE — that amortisation is the point — and `on_durable`
     *        fans out to every buffered record when the batch ack lands.
     *        Off, every append commits individually. System derives it
     *        from SystemConfig::durability_mode, the only place the
     *        choice is made.
     */
    ProgressLog(sim::Simulator& sim, net::Network& network,
                net::NodeId storage_node, Config config, bool group_commit);

    using AppendCallback = std::function<void(SimTime elapsed)>;

    /**
     * Appends one record. From the storage node itself the record is
     * durable immediately and `on_durable` fires after the commit
     * latency; from any other node the record travels the network,
     * commits on arrival, and `on_durable` fires when the ack returns.
     */
    void append(net::NodeId from, LogRecord record,
                AppendCallback on_durable = nullptr);

    /** Rebuilds one invocation's state from checkpoint + tail. */
    ReplayState replay(uint64_t invocation, size_t node_count);

    /**
     * Crash semantics of group commit: discards `origin`'s buffered,
     * not-yet-flushed records — the uncommitted suffix a process crash
     * loses. Records already handed to the WAL (flushed batches whose
     * ack is still in flight) stay durable; only their callbacks go
     * unanswered. Returns the lost records, oldest first.
     */
    std::vector<LogRecord> dropPending(net::NodeId origin);

    /** Flushes every origin's buffered records now (tests/shutdown). */
    void flush();

    /** Records currently buffered for one origin (not yet flushed). */
    size_t pendingRecords(net::NodeId origin) const;

    /** Records currently buffered across all origins. */
    size_t pendingTotal() const;

    /** Invocation previously submitted under `key`; 0 when none. */
    uint64_t submissionFor(const std::string& key) const;

    /** Brown-out coupling: commit latency multiplier (>= 1). */
    void setDegradeFactor(double factor) { degrade_ = factor; }
    double degradeFactor() const { return degrade_; }

    const Stats& stats() const { return stats_; }

    /** Uncompacted tail records held for one invocation (tests). */
    size_t tailLength(uint64_t invocation) const;

  private:
    struct NodeFact
    {
        int64_t exec_micros = 0;
        int32_t output_worker = -1;
        uint8_t skipped = 0;
    };

    struct Checkpoint
    {
        bool submitted = false;
        bool finished = false;
        std::string workflow;
        std::string idempotency_key;
        std::map<int32_t, NodeFact> done;
        std::map<int32_t, int32_t> switch_choice;
    };

    struct Slot
    {
        Checkpoint ckpt;
        std::vector<LogRecord> tail;
    };

    /** One buffered group-commit record awaiting its batch flush. */
    struct PendingAppend
    {
        LogRecord record;
        AppendCallback on_durable;
        SimTime issued;
    };

    /** Per-origin group-commit buffer. `arm_seq` invalidates stale
     *  linger timers: each arming takes a fresh sequence number and the
     *  timer no-ops unless it still matches and the buffer is armed. */
    struct Origin
    {
        std::vector<PendingAppend> pending;
        bool flush_armed = false;
        uint64_t arm_seq = 0;
    };

    void commit(LogRecord record);
    void compact(Slot& slot);
    static void fold(Checkpoint& ckpt, const LogRecord& record);

    void bufferAppend(net::NodeId from, LogRecord record,
                      AppendCallback on_durable);
    void flushOrigin(net::NodeId from, bool by_window);
    void noteBatch(size_t records, bool by_window);

    SimTime commitLatency() const { return config_.append_latency * degrade_; }

    sim::Simulator& sim_;
    net::Network& network_;
    net::NodeId storage_node_;
    Config config_;
    bool group_commit_;
    double degrade_ = 1.0;
    Stats stats_;
    std::map<uint64_t, Slot> slots_;
    std::unordered_map<std::string, uint64_t> by_key_;
    std::map<net::NodeId, Origin> origins_;
};

}  // namespace faasflow::storage

#endif  // FAASFLOW_STORAGE_PROGRESS_LOG_H_
