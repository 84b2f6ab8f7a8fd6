/** @file Randomized stress tests for the slab/4-ary-heap event queue:
 *  schedule/cancel/pop churn is checked operation by operation against a
 *  trivially correct ordered-set reference model, FIFO order at equal
 *  timestamps is pinned down, and the lazy-compaction path is exercised
 *  with adversarial cancel ratios. */
#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"

namespace faasflow::sim {
namespace {

TEST(EventQueueStressTest, FifoAtEqualTimestamps)
{
    EventQueue q;
    std::vector<int> fired;
    // Interleave two timestamps; within each, pops must follow schedule
    // order (the seq tie-break), regardless of heap shape.
    for (int i = 0; i < 200; ++i) {
        const SimTime when = SimTime::micros(i % 2);
        q.schedule(when, [&fired, i] { fired.push_back(i); });
    }
    SimTime when;
    EventQueue::Callback fn;
    while (q.pop(when, fn))
        fn();
    ASSERT_EQ(fired.size(), 200u);
    // All even-index (t=0) events first, each group in schedule order.
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(fired[static_cast<size_t>(i)], 2 * i);
        EXPECT_EQ(fired[static_cast<size_t>(100 + i)], 2 * i + 1);
    }
}

TEST(EventQueueStressTest, CancelIsIdempotentAndFireInvalidates)
{
    EventQueue q;
    int fired = 0;
    const EventId a = q.schedule(SimTime::micros(1), [&fired] { ++fired; });
    const EventId b = q.schedule(SimTime::micros(2), [&fired] { ++fired; });
    EXPECT_TRUE(q.cancel(a));
    EXPECT_FALSE(q.cancel(a));  // second cancel of the same id
    EXPECT_EQ(q.liveCount(), 1u);
    SimTime when;
    EventQueue::Callback fn;
    ASSERT_TRUE(q.pop(when, fn));
    fn();
    EXPECT_EQ(when, SimTime::micros(2));
    EXPECT_FALSE(q.cancel(b));  // already fired
    EXPECT_FALSE(q.pop(when, fn));
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueStressTest, CompactionPreservesSurvivors)
{
    // Cancel the bulk of a large schedule so the heap crosses the
    // stale-entry compaction threshold several times, then verify the
    // survivors pop complete and ordered.
    EventQueue q;
    std::vector<EventId> ids;
    std::vector<int> fired;
    const int n = 20'000;
    for (int i = 0; i < n; ++i) {
        ids.push_back(
            q.schedule(SimTime::micros(i), [&fired, i] { fired.push_back(i); }));
    }
    for (int i = 0; i < n; ++i) {
        if (i % 16 != 0) {
            EXPECT_TRUE(q.cancel(ids[static_cast<size_t>(i)]));
        }
    }
    EXPECT_EQ(q.liveCount(), static_cast<size_t>(n / 16));
    SimTime when;
    EventQueue::Callback fn;
    SimTime prev = SimTime::micros(-1);
    while (q.pop(when, fn)) {
        EXPECT_LT(prev, when);
        prev = when;
        fn();
    }
    ASSERT_EQ(fired.size(), static_cast<size_t>(n / 16));
    for (size_t i = 0; i < fired.size(); ++i)
        EXPECT_EQ(fired[i], static_cast<int>(16 * i));
    EXPECT_EQ(q.liveCount(), 0u);
    EXPECT_TRUE(q.empty());
}

/**
 * Randomized churn against a reference model: an ordered set of
 * (timestamp, insertion-seq, token) that trivially implements the
 * documented contract. Every queue operation is mirrored in the model
 * and every observable (pop order, fired token, liveCount, nextTime) is
 * compared after each step.
 */
class EventQueueModelTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(EventQueueModelTest, MatchesReferenceModelUnderChurn)
{
    Rng rng(GetParam());
    EventQueue q;
    // model key: (when_us, seq). Slab slots recycle ids, so track live
    // handles by an ever-increasing token.
    struct Pending
    {
        EventId id;
        int64_t when_us;
        uint64_t seq;
        int token;
    };
    std::set<std::tuple<int64_t, uint64_t, int>> model;
    std::vector<Pending> live;  // random-cancel candidates
    uint64_t next_seq = 0;
    int next_token = 0;
    int64_t now = 0;
    std::vector<int> fired;

    for (int step = 0; step < 50'000; ++step) {
        const uint64_t op = rng.uniformInt(0, 9);
        if (op < 6) {  // schedule
            const int64_t when = now + static_cast<int64_t>(
                                           rng.uniformInt(0, 1000));
            const int token = next_token++;
            const EventId id = q.schedule(
                SimTime::micros(when),
                [&fired, token] { fired.push_back(token); });
            const uint64_t seq = next_seq++;
            model.insert({when, seq, token});
            live.push_back(Pending{id, when, seq, token});
        } else if (op < 8) {  // cancel a random live event
            if (!live.empty()) {
                const size_t pick = static_cast<size_t>(
                    rng.uniformInt(0, live.size() - 1));
                const Pending victim = live[pick];
                live[pick] = live.back();
                live.pop_back();
                ASSERT_TRUE(q.cancel(victim.id));
                ASSERT_FALSE(q.cancel(victim.id));
                model.erase({victim.when_us, victim.seq, victim.token});
            }
        } else {  // pop
            SimTime when;
            EventQueue::Callback fn;
            const bool got = q.pop(when, fn);
            ASSERT_EQ(got, !model.empty());
            if (got) {
                const auto [m_when, m_seq, m_token] = *model.begin();
                model.erase(model.begin());
                ASSERT_EQ(when.micros(), m_when);
                const size_t before = fired.size();
                fn();
                ASSERT_EQ(fired.size(), before + 1);
                ASSERT_EQ(fired.back(), m_token);
                now = m_when;
                // Drop the fired event from the cancel candidates; its
                // handle must now be dead.
                for (size_t i = 0; i < live.size(); ++i) {
                    if (live[i].token == m_token) {
                        ASSERT_FALSE(q.cancel(live[i].id));
                        live[i] = live.back();
                        live.pop_back();
                        break;
                    }
                }
            }
        }
        ASSERT_EQ(q.liveCount(), model.size());
        if (step % 997 == 0) {
            const SimTime next = q.nextTime();
            if (model.empty()) {
                ASSERT_EQ(next, SimTime::max());
            } else {
                ASSERT_EQ(next.micros(), std::get<0>(*model.begin()));
            }
        }
    }

    // Drain; the remainder must replay the model exactly.
    SimTime when;
    EventQueue::Callback fn;
    while (q.pop(when, fn)) {
        ASSERT_FALSE(model.empty());
        const auto [m_when, m_seq, m_token] = *model.begin();
        model.erase(model.begin());
        ASSERT_EQ(when.micros(), m_when);
        fn();
        ASSERT_EQ(fired.back(), m_token);
    }
    EXPECT_TRUE(model.empty());
    EXPECT_EQ(q.liveCount(), 0u);
}

/** Two queues fed the same operation stream must fire the same tokens in
 *  the same order — determinism is what makes sim replays bit-exact. */
TEST(EventQueueStressTest, IdenticalStreamsFireIdentically)
{
    auto run = [](std::vector<int>* out) {
        Rng rng(1234);
        EventQueue q;
        std::vector<EventId> ids;
        for (int step = 0; step < 30'000; ++step) {
            const int64_t when = static_cast<int64_t>(
                rng.uniformInt(0, 500));
            ids.push_back(q.schedule(SimTime::micros(when),
                                     [out, step] { out->push_back(step); }));
            if (step % 3 == 1)
                q.cancel(ids[static_cast<size_t>(step) / 2]);
            if (step % 5 == 0) {
                SimTime t;
                EventQueue::Callback fn;
                if (q.pop(t, fn))
                    fn();
            }
        }
        SimTime t;
        EventQueue::Callback fn;
        while (q.pop(t, fn))
            fn();
    };
    std::vector<int> a, b;
    run(&a);
    run(&b);
    EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueModelTest,
                         ::testing::Values(1, 271, 8281, 82845, 904523));

}  // namespace
}  // namespace faasflow::sim
