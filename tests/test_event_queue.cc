/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "src/common/event_queue.h"
#include "src/common/random.h"

namespace recssd
{
namespace
{

TEST(EventQueue, StartsAtZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&]() {
        eq.scheduleAfter(50, [&]() { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 100)
            eq.scheduleAfter(1, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.now(), 99u);
    EXPECT_EQ(eq.executed(), 100u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() { ++fired; });
    eq.schedule(20, [&]() { ++fired; });
    eq.schedule(30, [&]() { ++fired; });
    eq.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle)
{
    EventQueue eq;
    eq.runUntil(500);
    EXPECT_EQ(eq.now(), 0u);  // empty queue: time does not jump
    eq.schedule(100, []() {});
    eq.runUntil(500);
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, []() {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, []() {}), "schedule in the past");
}

TEST(EventQueue, PendingCountsQueuedEvents)
{
    EventQueue eq;
    for (Tick t = 0; t < 10; ++t)
        eq.schedule(t, []() {});
    EXPECT_EQ(eq.pending(), 10u);
    eq.runOne();
    EXPECT_EQ(eq.pending(), 9u);
}


/**
 * Differential check of the keyed heap and slot arena against a
 * reference std::priority_queue on (when, seq). Each seeded trial
 * interleaves schedule, scheduleAfter, runOne and runUntil; some
 * events schedule a child when they fire (at now() or later), same-
 * tick bursts pile up, and runUntil leaves events queued whose slots
 * get reused by later schedules. Pop order, the tick each event fires
 * at, now(), pending() and executed() must all match the oracle.
 */
class EventQueueOracle
{
  public:
    explicit EventQueueOracle(std::uint64_t seed) : rng_(seed) {}

    void
    run(unsigned ops)
    {
        for (unsigned i = 0; i < ops; ++i) {
            std::uint64_t pick = rng_.uniformInt(100);
            if (pick < 35) {
                scheduleRandom(/*relative=*/false);
            } else if (pick < 55) {
                scheduleRandom(/*relative=*/true);
            } else if (pick < 60) {
                // Same-tick burst: FIFO order must hold inside it.
                Tick when = now_ + rng_.uniformInt(3);
                unsigned n = 2 + static_cast<unsigned>(rng_.uniformInt(12));
                for (unsigned b = 0; b < n; ++b)
                    add(when, false);
            } else if (pick < 85) {
                bool ran = eq_.runOne();
                ASSERT_EQ(ran, !oracle_.empty());
                if (ran)
                    popOracle();
            } else {
                Tick limit = now_ + rng_.uniformInt(40);
                eq_.runUntil(limit);
                oracleRunUntil(limit);
            }
            ASSERT_EQ(eq_.now(), now_);
            ASSERT_EQ(eq_.pending(), oracle_.size());
            ASSERT_EQ(eq_.empty(), oracle_.empty());
            ASSERT_EQ(eq_.executed(), executed_);
            ASSERT_EQ(fired_, expected_);
        }
        eq_.run();
        while (!oracle_.empty())
            popOracle();
        EXPECT_EQ(eq_.now(), now_);
        EXPECT_EQ(eq_.executed(), executed_);
        EXPECT_EQ(fired_, expected_);
    }

  private:
    struct Ev
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t id;
    };

    struct Later
    {
        bool
        operator()(const Ev &a, const Ev &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    /** What an event does when it fires, fixed when it is scheduled. */
    struct Plan
    {
        bool spawns;
        Tick childDelay;
    };

    void
    scheduleRandom(bool relative)
    {
        // Mostly near-future ticks so events collide; now and then far.
        Tick delay = rng_.bernoulli(0.1) ? rng_.uniformInt(5000)
                                         : rng_.uniformInt(8);
        add(now_ + delay, relative);
    }

    void
    add(Tick when, bool relative)
    {
        std::uint32_t id = static_cast<std::uint32_t>(plans_.size());
        bool spawns = rng_.bernoulli(0.3);
        plans_.push_back(Plan{spawns, rng_.bernoulli(0.5)
                                          ? Tick(0)
                                          : Tick(rng_.uniformInt(10))});
        EventQueueOracle *self = this;
        auto cb = [self, id]() { self->fire(id); };
        if (relative)
            eq_.scheduleAfter(when - eq_.now(), cb);
        else
            eq_.schedule(when, cb);
        oracle_.push(Ev{when, seq_++, id});
    }

    /** The real queue's callback body. */
    void
    fire(std::uint32_t id)
    {
        fired_.emplace_back(id, eq_.now());
        if (plans_[id].spawns)
            add(eq_.now() + plans_[id].childDelay, false);
    }

    void
    popOracle()
    {
        Ev ev = oracle_.top();
        oracle_.pop();
        now_ = ev.when;
        ++executed_;
        expected_.emplace_back(ev.id, ev.when);
        // The child was already scheduled on the real queue inside
        // fire(); add() pushed its oracle twin with the same seq.
    }

    void
    oracleRunUntil(Tick limit)
    {
        // The real queue already ran; replay the oracle to the same
        // point. Children pushed by fire() are in the oracle already,
        // so draining by the same rule visits them too.
        // An event ran only if the queue held one, and only a run
        // event adds children: an empty oracle means runUntil found
        // the queue empty, and time does not flow.
        if (oracle_.empty())
            return;
        while (!oracle_.empty() && oracle_.top().when <= limit)
            popOracle();
        if (now_ < limit)
            now_ = limit;
    }

    EventQueue eq_;
    Rng rng_;
    std::priority_queue<Ev, std::vector<Ev>, Later> oracle_;
    std::uint64_t seq_ = 0;
    Tick now_ = 0;
    std::uint64_t executed_ = 0;
    std::vector<Plan> plans_;
    std::vector<std::pair<std::uint32_t, Tick>> fired_;
    std::vector<std::pair<std::uint32_t, Tick>> expected_;
};

TEST(EventQueueDifferential, MatchesPriorityQueueOracle)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE(seed);
        EventQueueOracle trial(seed);
        trial.run(600);
        if (HasFatalFailure())
            return;
    }
}

}  // namespace
}  // namespace recssd
