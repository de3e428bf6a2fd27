/**
 * @file
 * Randomized differential test: the 4-ary implicit-heap EventQueue
 * against the preserved binary-heap reference implementation
 * (tests/oracle/event_queue_legacy.hh).
 *
 * Both queues execute the same randomized scripts — schedules with
 * deliberately colliding timestamps, cancellations, reschedules from
 * inside callbacks, and interleaved runOne/runUntil — and must agree
 * on every observable: execution order (including FIFO among equal
 * timestamps), the clock at each step, handle liveness, and pending
 * counts. The scripts are seeded, so a failure reproduces exactly.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "oracle/event_queue_legacy.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace {

using deskpar::sim::EventQueue;
using deskpar::sim::Rng;
using deskpar::sim::SimTime;

/**
 * One queue under script control. The event payload appends its id
 * to the execution log and, while the script says so, re-arms itself
 * with the next scripted delay — both queues consume the same
 * pre-drawn script, never a live RNG, so their executions cannot
 * drift even if one is buggy.
 */
template <typename Queue>
struct Scripted
{
    Queue queue;
    std::vector<typename Queue::Handle> handles;
    std::vector<std::uint32_t> log;

    void
    schedule(std::uint32_t id, SimTime when)
    {
        if (handles.size() <= id)
            handles.resize(id + 1);
        handles[id] = queue.schedule(
            when, [this, id] { log.push_back(id); });
    }
};

/** Drive both queues through one seeded script and compare. */
void
runScript(std::uint64_t seed)
{
    Rng rng(seed);
    Scripted<deskpar::sim::legacy::EventQueue> a;
    Scripted<EventQueue> b;

    std::uint32_t nextId = 0;
    // Interleave phases: a burst of schedules (small time range, so
    // equal timestamps are common), a round of cancellations, then a
    // partial drain via runOne or runUntil.
    for (int phase = 0; phase < 40; ++phase) {
        std::uint32_t burst = 1 + rng.raw() % 24;
        for (std::uint32_t i = 0; i < burst; ++i) {
            SimTime when =
                a.queue.now() + 1 + rng.raw() % 12;
            std::uint32_t id = nextId++;
            a.schedule(id, when);
            b.schedule(id, when);
        }

        std::uint32_t cancels = rng.raw() % 6;
        for (std::uint32_t i = 0; i < cancels; ++i) {
            std::uint32_t victim = rng.raw() % nextId;
            ASSERT_EQ(a.handles[victim].pending(),
                      b.handles[victim].pending())
                << "seed " << seed << " victim " << victim;
            a.queue.cancel(a.handles[victim]);
            b.queue.cancel(b.handles[victim]);
        }

        if (rng.raw() & 1) {
            std::uint32_t steps = 1 + rng.raw() % 8;
            for (std::uint32_t i = 0; i < steps; ++i)
                ASSERT_EQ(a.queue.runOne(), b.queue.runOne())
                    << "seed " << seed;
        } else {
            SimTime until = a.queue.now() + rng.raw() % 20;
            a.queue.runUntil(until);
            b.queue.runUntil(until);
        }

        ASSERT_EQ(a.queue.now(), b.queue.now()) << "seed " << seed;
        ASSERT_EQ(a.queue.pendingCount(), b.queue.pendingCount())
            << "seed " << seed;
        ASSERT_EQ(a.log, b.log) << "seed " << seed;
    }

    a.queue.runAll();
    b.queue.runAll();
    EXPECT_EQ(a.queue.now(), b.queue.now()) << "seed " << seed;
    EXPECT_EQ(a.log, b.log) << "seed " << seed;
    EXPECT_TRUE(b.queue.empty());
}

TEST(EventQueueDiff, RandomScriptsMatchLegacyQueue)
{
    for (std::uint64_t seed = 1; seed <= 50; ++seed)
        runScript(seed);
}

/**
 * Reschedule-from-callback churn: every fired event re-arms itself
 * until a budget runs out, plus a cancel-and-rearm trickle — the
 * steady-state pattern of the simulator, and the shape that
 * exercises node reuse (a recycled node must invalidate stale
 * handles and stale heap entries).
 */
template <typename Queue>
struct Churner
{
    Queue queue;
    std::vector<typename Queue::Handle> handles;
    std::vector<std::uint32_t> log;
    std::uint64_t lcg;
    std::uint32_t armed = 0;
    std::uint32_t target = 0;

    std::uint64_t
    draw()
    {
        lcg = lcg * 6364136223846793005ULL +
              1442695040888963407ULL;
        return lcg >> 33;
    }

    void
    arm(std::uint32_t slot)
    {
        ++armed;
        handles[slot] = this->queue.scheduleAfter(
            1 + draw() % 50, [this, slot] {
                log.push_back(slot);
                if (armed < target)
                    arm(slot);
                if (draw() % 7 == 0 && armed < target) {
                    std::uint32_t victim =
                        static_cast<std::uint32_t>(
                            draw() % handles.size());
                    if (handles[victim].pending()) {
                        queue.cancel(handles[victim]);
                        arm(victim);
                    }
                }
            });
    }

    void
    run(std::uint32_t population, std::uint32_t total,
        std::uint64_t seed)
    {
        lcg = seed | 1;
        handles.resize(population);
        target = total;
        for (std::uint32_t slot = 0; slot < population; ++slot)
            arm(slot);
        queue.runAll();
    }
};

TEST(EventQueueDiff, RescheduleChurnMatchesLegacyQueue)
{
    for (std::uint64_t seed : {7ULL, 99ULL, 123456789ULL}) {
        Churner<deskpar::sim::legacy::EventQueue> a;
        Churner<EventQueue> b;
        a.run(64, 5000, seed);
        b.run(64, 5000, seed);
        ASSERT_EQ(a.queue.now(), b.queue.now()) << "seed " << seed;
        ASSERT_EQ(a.log, b.log) << "seed " << seed;
    }
}

/** reserve() must not perturb behavior, only pre-size the pool. */
TEST(EventQueueDiff, ReserveDoesNotChangeOrder)
{
    Churner<EventQueue> plain;
    Churner<EventQueue> reserved;
    reserved.queue.reserve(512);
    plain.run(64, 5000, 42);
    reserved.run(64, 5000, 42);
    EXPECT_EQ(plain.log, reserved.log);
    EXPECT_EQ(plain.queue.now(), reserved.queue.now());
}

} // namespace
