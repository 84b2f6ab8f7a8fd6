#ifndef FAASFLOW_SIM_EVENT_QUEUE_H_
#define FAASFLOW_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "common/inline_fn.h"
#include "common/sim_time.h"

namespace faasflow::sim {

/** Opaque handle for cancelling a scheduled event. */
struct EventId
{
    uint64_t value = 0;

    bool valid() const { return value != 0; }
    bool operator==(const EventId&) const = default;
};

/**
 * Priority queue of timestamped callbacks — the simulator's hottest
 * data structure.
 *
 * Callbacks live in a slab of generation-counted slots: scheduling
 * reuses a free slot (no per-event allocation once the slab is warm),
 * and cancellation just bumps the slot's generation — O(1), no hashing,
 * no tombstone set. Ordering lives in a separate 4-ary implicit heap of
 * (time, seq, slot, gen) keys; entries whose generation no longer
 * matches their slot are skipped lazily at the top. The 4-ary layout
 * halves the sift depth of a binary heap and keeps four child keys in
 * one cache line.
 *
 * Events at equal timestamps fire in scheduling order (FIFO, via the
 * monotone `seq`), which keeps the simulator deterministic. Callbacks
 * are `Callback` (small-buffer optimised, move-only): hot-path events
 * whose captures fit inline never touch the heap.
 */
class EventQueue
{
  public:
    using Callback = InlineFunction<void(), 48>;

    /** Lifetime health counters — cheap enough to keep always-on, and
     *  surfaced through `faasflow_run --stats` / telemetry so queue
     *  pathologies (cancel churn, compaction storms) are diagnosable. */
    struct Stats
    {
        uint64_t scheduled = 0;      ///< schedule() calls
        uint64_t fired = 0;          ///< events popped live
        uint64_t cancelled = 0;      ///< successful cancel() calls
        uint64_t stale_dropped = 0;  ///< stale heap keys skipped
        uint64_t compactions = 0;    ///< heap rebuilds (maybeCompact)
        size_t max_heap = 0;         ///< peak heap size incl. stale keys
    };

    /** Schedules `fn` at absolute time `when`; returns a cancellable id.
     *  A `background` event fires like any other but is counted apart
     *  (see backgroundCount). */
    EventId schedule(SimTime when, Callback fn, bool background = false);

    /** Cancels a pending event; returns false if already fired/cancelled. */
    bool cancel(EventId id);

    bool empty() const { return live_ == 0; }
    size_t liveCount() const { return live_; }

    /** Live events scheduled as background. */
    size_t backgroundCount() const { return background_; }

    /** Timestamp of the earliest live event; SimTime::max() when empty. */
    SimTime nextTime() const;

    /**
     * Pops the earliest live event.
     * @param when receives the event's timestamp
     * @param fn receives the callback
     * @return false when the queue is empty
     */
    bool pop(SimTime& when, Callback& fn);

    const Stats& stats() const { return stats_; }

  private:
    static constexpr uint32_t kNilSlot = ~0u;

    struct Slot
    {
        Callback fn;
        /** Scheduling seq of the currently armed event; a heap key whose
         *  seq differs is stale (seqs are never reused, so no aliasing). */
        uint64_t armed_seq = 0;
        /** Bumped on every fire/cancel; an EventId carrying an older
         *  generation is stale. Never 0, so EventId 0 stays invalid. */
        uint32_t gen = 1;
        uint32_t next_free = kNilSlot;
        bool armed = false;
        bool background = false;
    };

    /** Bits of a packed (seq, slot) word reserved for the slot index.
     *  2^24 concurrent events and 2^40 total schedules are both beyond
     *  any simulated campaign; schedule() panics if either overflows. */
    static constexpr uint32_t kSlotBits = 24;
    static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;

    /** Heap key: 16 bytes (four per cache line in the 4-ary sift),
     *  ordered by (when, seq) — seq occupies the packed word's high bits,
     *  so comparing the word preserves FIFO order at equal timestamps. */
    struct Key
    {
        int64_t when_us;
        uint64_t seq_slot;  ///< (seq << kSlotBits) | slot

        uint32_t slot() const { return static_cast<uint32_t>(seq_slot & kSlotMask); }
        uint64_t seq() const { return seq_slot >> kSlotBits; }

        bool
        earlierThan(const Key& o) const
        {
            if (when_us != o.when_us)
                return when_us < o.when_us;
            return seq_slot < o.seq_slot;
        }
    };

    std::vector<Slot> slots_;
    std::vector<Key> heap_;
    uint32_t free_head_ = kNilSlot;
    size_t live_ = 0;
    size_t background_ = 0;
    uint64_t next_seq_ = 0;
    Stats stats_;

    void heapPush(Key key);
    void heapPopTop();
    void siftDown(size_t i);

    /** Drops stale (cancelled) keys off the heap top. */
    void dropStale() const;

    /** Rebuilds the heap without stale keys once they dominate, so
     *  cancel-heavy reschedule churn cannot bloat it. */
    void maybeCompact();

    void retireSlot(uint32_t idx);
};

}  // namespace faasflow::sim

#endif  // FAASFLOW_SIM_EVENT_QUEUE_H_
