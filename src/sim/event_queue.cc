#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace faasflow::sim {

namespace {

/** 4-ary heap index helpers. */
constexpr size_t
parentOf(size_t i)
{
    return (i - 1) / 4;
}

constexpr size_t
firstChildOf(size_t i)
{
    return 4 * i + 1;
}

}  // namespace

EventId
EventQueue::schedule(SimTime when, Callback fn, bool background)
{
    uint32_t idx;
    if (free_head_ != kNilSlot) {
        idx = free_head_;
        free_head_ = slots_[idx].next_free;
    } else {
        idx = static_cast<uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    const uint64_t seq = next_seq_++;
    if (idx > kSlotMask || (seq >> (64 - kSlotBits)) != 0)
        panic("sim: event queue exceeded its packed-key capacity");
    Slot& slot = slots_[idx];
    slot.fn = std::move(fn);
    slot.armed = true;
    slot.armed_seq = seq;
    slot.background = background;
    heapPush(Key{when.micros(), (seq << kSlotBits) | idx});
    ++live_;
    if (background)
        ++background_;
    ++stats_.scheduled;
    stats_.max_heap = std::max(stats_.max_heap, heap_.size());
    return EventId{(static_cast<uint64_t>(idx) << 32) | slot.gen};
}

bool
EventQueue::cancel(EventId id)
{
    if (!id.valid())
        return false;
    const uint32_t idx = static_cast<uint32_t>(id.value >> 32);
    const uint32_t gen = static_cast<uint32_t>(id.value);
    if (idx >= slots_.size())
        return false;
    Slot& slot = slots_[idx];
    if (!slot.armed || slot.gen != gen)
        return false;  // already fired or already cancelled
    retireSlot(idx);
    --live_;
    ++stats_.cancelled;
    maybeCompact();
    return true;
}

void
EventQueue::maybeCompact()
{
    if (heap_.size() < 64 || heap_.size() <= live_ + (live_ >> 2))
        return;
    ++stats_.compactions;
    stats_.stale_dropped += heap_.size() - live_;
    size_t w = 0;
    for (const Key& key : heap_) {
        const Slot& slot = slots_[key.slot()];
        if (slot.armed && slot.armed_seq == key.seq())
            heap_[w++] = key;
    }
    heap_.resize(w);
    if (w > 1) {
        // Floyd heapify: sift internal nodes bottom-up.
        for (size_t i = (w - 2) / 4 + 1; i-- > 0;)
            siftDown(i);
    }
}

void
EventQueue::retireSlot(uint32_t idx)
{
    Slot& slot = slots_[idx];
    if (slot.background)
        --background_;
    slot.fn = nullptr;
    slot.armed = false;
    slot.background = false;
    if (++slot.gen == 0)  // keep EventId 0 invalid across wraparound
        slot.gen = 1;
    slot.next_free = free_head_;
    free_head_ = idx;
}

void
EventQueue::dropStale() const
{
    // Stale keys (their slot's generation moved on after a cancel) are
    // dropped lazily here rather than dug out of the heap at cancel time.
    auto* self = const_cast<EventQueue*>(this);
    while (!self->heap_.empty()) {
        const Key& top = self->heap_.front();
        const Slot& slot = self->slots_[top.slot()];
        if (slot.armed && slot.armed_seq == top.seq())
            break;
        self->heapPopTop();
        ++self->stats_.stale_dropped;
    }
}

SimTime
EventQueue::nextTime() const
{
    dropStale();
    if (heap_.empty())
        return SimTime::max();
    return SimTime::micros(heap_.front().when_us);
}

bool
EventQueue::pop(SimTime& when, Callback& fn)
{
    // Stale keys are skipped inline rather than via dropStale() so the
    // common case (live top) does one heap read and one slot probe.
    for (;;) {
        if (heap_.empty())
            return false;
        const Key top = heap_.front();
        Slot& slot = slots_[top.slot()];
        if (!slot.armed || slot.armed_seq != top.seq()) {
            heapPopTop();
            ++stats_.stale_dropped;
            continue;
        }
        when = SimTime::micros(top.when_us);
        fn = std::move(slot.fn);
        retireSlot(top.slot());
        --live_;
        ++stats_.fired;
        heapPopTop();
        return true;
    }
}

void
EventQueue::heapPush(Key key)
{
    // Hole insertion: bubble a hole up and write the key once, instead
    // of swapping the key level by level.
    size_t i = heap_.size();
    heap_.push_back(key);
    while (i > 0) {
        const size_t p = parentOf(i);
        if (!key.earlierThan(heap_[p]))
            break;
        heap_[i] = heap_[p];
        i = p;
    }
    heap_[i] = key;
}

void
EventQueue::heapPopTop()
{
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        siftDown(0);
}

void
EventQueue::siftDown(size_t i)
{
    // Hole descent: move winning children up into the hole and write the
    // displaced key once at its final position.
    const Key val = heap_[i];
    const size_t n = heap_.size();
    for (;;) {
        const size_t first = firstChildOf(i);
        if (first >= n)
            break;
        size_t best = first;
        const size_t last = std::min(first + 4, n);
        for (size_t c = first + 1; c < last; ++c) {
            if (heap_[c].earlierThan(heap_[best]))
                best = c;
        }
        if (!heap_[best].earlierThan(val))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = val;
}

}  // namespace faasflow::sim
