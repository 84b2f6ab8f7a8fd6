#include "storage/progress_log.h"

#include <memory>
#include <utility>

#include "common/logging.h"

namespace faasflow::storage {

ProgressLog::ProgressLog(sim::Simulator& sim, net::Network& network,
                         net::NodeId storage_node, Config config,
                         bool group_commit)
    : sim_(sim), network_(network), storage_node_(storage_node),
      config_(config), group_commit_(group_commit)
{
    if (config_.compaction_threshold == 0)
        fatal("progress log: compaction threshold must be positive");
    if (group_commit_ && config_.batch_max_records == 0)
        fatal("progress log: batch_max_records must be positive");
}

void
ProgressLog::append(net::NodeId from, LogRecord record,
                    AppendCallback on_durable)
{
    if (group_commit_) {
        bufferAppend(from, std::move(record), std::move(on_durable));
        return;
    }

    if (from == storage_node_) {
        // Commit-at-issue: the master shares the storage node, so the
        // fact is durable the instant it is applied in memory — only
        // the ack (which gates successor delivery) pays the WAL cost.
        commit(std::move(record));
        if (on_durable) {
            const SimTime start = sim_.now();
            sim_.schedule(commitLatency(),
                          [this, start, cb = std::move(on_durable)] {
                              cb(sim_.now() - start);
                          });
        }
        return;
    }

    // Worker-side append: the record rides a control message to the
    // storage node (retried across link outages, never dropped),
    // commits on arrival, and the durability ack travels back.
    const SimTime start = sim_.now();
    auto boxed = std::make_shared<LogRecord>(std::move(record));
    network_.sendMessage(
        from, storage_node_, config_.record_bytes,
        [this, from, start, boxed, cb = std::move(on_durable)]() mutable {
            commit(std::move(*boxed));
            sim_.schedule(commitLatency(), [this, from, start,
                                            cb = std::move(cb)] {
                if (!cb)
                    return;
                network_.sendMessage(storage_node_, from, config_.ack_bytes,
                                     [this, start, cb = std::move(cb)] {
                                         cb(sim_.now() - start);
                                     });
            });
        });
}

void
ProgressLog::bufferAppend(net::NodeId from, LogRecord record,
                          AppendCallback on_durable)
{
    Origin& origin = origins_[from];
    origin.pending.push_back(
        PendingAppend{std::move(record), std::move(on_durable), sim_.now()});
    size_t total = 0;
    for (const auto& [nid, o] : origins_)
        total += o.pending.size();
    stats_.max_pending = std::max(stats_.max_pending, total);

    if (origin.pending.size() >= config_.batch_max_records) {
        flushOrigin(from, /*by_window=*/false);
        return;
    }
    if (!origin.flush_armed) {
        // First record of a fresh batch arms the linger timer; the
        // sequence number keeps a timer that outlived its batch (size
        // flush, dropPending) from flushing a successor batch early.
        origin.flush_armed = true;
        const uint64_t seq = ++origin.arm_seq;
        sim_.schedule(config_.batch_window, [this, from, seq] {
            const auto it = origins_.find(from);
            if (it == origins_.end() || !it->second.flush_armed ||
                it->second.arm_seq != seq) {
                return;
            }
            flushOrigin(from, /*by_window=*/true);
        });
    }
}

void
ProgressLog::noteBatch(size_t records, bool by_window)
{
    ++stats_.batches;
    if (by_window)
        ++stats_.flushes_by_window;
    else
        ++stats_.flushes_by_size;
    stats_.batch_records.add(static_cast<double>(records));
    size_t bucket = 4;
    if (records <= 1)
        bucket = 0;
    else if (records <= 4)
        bucket = 1;
    else if (records <= 8)
        bucket = 2;
    else if (records <= 16)
        bucket = 3;
    ++stats_.batch_size_hist[bucket];
}

void
ProgressLog::flushOrigin(net::NodeId from, bool by_window)
{
    Origin& origin = origins_[from];
    origin.flush_armed = false;
    if (origin.pending.empty())
        return;
    auto batch = std::make_shared<std::vector<PendingAppend>>(
        std::move(origin.pending));
    origin.pending.clear();
    noteBatch(batch->size(), by_window);

    if (from == storage_node_) {
        // Handing the batch to the WAL is the durability point: a crash
        // afterwards cannot un-write it, so the whole batch commits now
        // and one WAL latency — degraded once per *batch* under a
        // brown-out, that is the amortisation — gates the fan-out.
        for (PendingAppend& p : *batch)
            commit(std::move(p.record));
        sim_.schedule(commitLatency(), [this, batch] {
            for (PendingAppend& p : *batch) {
                if (p.on_durable)
                    p.on_durable(sim_.now() - p.issued);
            }
        });
        return;
    }

    // Worker-side batch: every buffered record rides one message to the
    // storage node (retried across link outages, never dropped), the
    // batch commits on arrival, pays one WAL latency, and one ack
    // fans the durability out to every record's callback.
    const int64_t batch_bytes =
        config_.record_bytes * static_cast<int64_t>(batch->size());
    network_.sendMessage(from, storage_node_, batch_bytes,
                         [this, from, batch] {
                             for (PendingAppend& p : *batch)
                                 commit(std::move(p.record));
                             sim_.schedule(commitLatency(), [this, from,
                                                            batch] {
                                 network_.sendMessage(
                                     storage_node_, from, config_.ack_bytes,
                                     [this, batch] {
                                         for (PendingAppend& p : *batch) {
                                             if (p.on_durable)
                                                 p.on_durable(sim_.now() -
                                                              p.issued);
                                         }
                                     });
                             });
                         });
}

std::vector<LogRecord>
ProgressLog::dropPending(net::NodeId origin)
{
    std::vector<LogRecord> lost;
    const auto it = origins_.find(origin);
    if (it == origins_.end())
        return lost;
    for (PendingAppend& append : it->second.pending)
        lost.push_back(std::move(append.record));
    it->second.pending.clear();
    it->second.flush_armed = false;
    stats_.dropped_records += lost.size();
    return lost;
}

void
ProgressLog::flush()
{
    std::vector<net::NodeId> ids;
    for (const auto& [nid, origin] : origins_) {
        if (!origin.pending.empty())
            ids.push_back(nid);
    }
    for (const net::NodeId nid : ids)
        flushOrigin(nid, /*by_window=*/false);
}

size_t
ProgressLog::pendingRecords(net::NodeId origin) const
{
    const auto it = origins_.find(origin);
    return it == origins_.end() ? 0 : it->second.pending.size();
}

size_t
ProgressLog::pendingTotal() const
{
    size_t total = 0;
    for (const auto& [nid, origin] : origins_)
        total += origin.pending.size();
    return total;
}

void
ProgressLog::commit(LogRecord record)
{
    ++stats_.appends;
    stats_.committed_bytes +=
        static_cast<uint64_t>(config_.record_bytes) +
        static_cast<uint64_t>(record.workflow.size() +
                              record.idempotency_key.size());

    Slot& slot = slots_[record.invocation];
    if (record.kind == LogRecordKind::InvocationSubmitted &&
        !record.idempotency_key.empty()) {
        by_key_.emplace(record.idempotency_key, record.invocation);
    }
    const bool finished = record.kind == LogRecordKind::InvocationFinished;
    slot.tail.push_back(std::move(record));
    if (finished || slot.tail.size() >= config_.compaction_threshold)
        compact(slot);
}

void
ProgressLog::compact(Slot& slot)
{
    ++stats_.compactions;
    for (const LogRecord& record : slot.tail)
        fold(slot.ckpt, record);
    slot.tail.clear();
    if (slot.ckpt.finished) {
        // Finished stub: keep only what a retried submit needs.
        slot.ckpt.done.clear();
        slot.ckpt.switch_choice.clear();
    }
}

void
ProgressLog::fold(Checkpoint& ckpt, const LogRecord& record)
{
    switch (record.kind) {
    case LogRecordKind::InvocationSubmitted:
        ckpt.submitted = true;
        ckpt.workflow = record.workflow;
        ckpt.idempotency_key = record.idempotency_key;
        break;
    case LogRecordKind::NodeDone:
        // Last write wins; duplicate completions (at-least-once
        // execution) fold to one exactly-once fact.
        ckpt.done[record.node] =
            NodeFact{record.exec_micros, record.output_worker,
                     record.skipped};
        break;
    case LogRecordKind::StateSignal:
        if (record.switch_id >= 0)
            ckpt.switch_choice[record.switch_id] = record.switch_branch;
        break;
    case LogRecordKind::InvocationFinished:
        ckpt.finished = true;
        break;
    }
}

ReplayState
ProgressLog::replay(uint64_t invocation, size_t node_count)
{
    ++stats_.replays;
    ReplayState state;
    state.node_done.assign(node_count, 0);
    state.node_exec.assign(node_count, SimTime::zero());
    state.node_skipped.assign(node_count, 0);
    state.node_output_worker.assign(node_count, -1);

    const auto it = slots_.find(invocation);
    if (it == slots_.end())
        return state;

    // Fold the tail into a scratch checkpoint so replay sees exactly
    // the committed history without disturbing the slot.
    Checkpoint ckpt = it->second.ckpt;
    for (const LogRecord& record : it->second.tail)
        fold(ckpt, record);

    state.submitted = ckpt.submitted;
    state.finished = ckpt.finished;
    state.workflow = ckpt.workflow;
    for (const auto& [node, fact] : ckpt.done) {
        const size_t idx = static_cast<size_t>(node);
        if (idx >= node_count)
            fatal("progress log: replayed node %d out of range", node);
        state.node_done[idx] = 1;
        state.node_exec[idx] = SimTime::micros(fact.exec_micros);
        state.node_skipped[idx] = fact.skipped;
        state.node_output_worker[idx] = fact.output_worker;
    }
    for (const auto& [sw, branch] : ckpt.switch_choice)
        state.switch_choice[sw] = branch;
    return state;
}

uint64_t
ProgressLog::submissionFor(const std::string& key) const
{
    const auto it = by_key_.find(key);
    return it == by_key_.end() ? 0 : it->second;
}

size_t
ProgressLog::tailLength(uint64_t invocation) const
{
    const auto it = slots_.find(invocation);
    return it == slots_.end() ? 0 : it->second.tail.size();
}

}  // namespace faasflow::storage
