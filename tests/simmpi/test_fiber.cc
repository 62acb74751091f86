/**
 * @file
 * Fiber engine tests: switching, state machine, unwinding.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/simmpi/errors.hh"
#include "src/simmpi/fiber.hh"

using namespace match::simmpi;

TEST(Fiber, RunsToCompletionWithoutYield)
{
    bool ran = false;
    Fiber fiber([&] { ran = true; });
    fiber.resume();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(fiber.finished());
}

TEST(Fiber, YieldSuspendsAndResumeContinues)
{
    std::vector<int> trace;
    Fiber fiber([&] {
        trace.push_back(1);
        Fiber::current()->yield();
        trace.push_back(2);
    });
    fiber.setState(Fiber::State::Runnable);
    fiber.resume();
    EXPECT_EQ(trace, (std::vector<int>{1}));
    EXPECT_FALSE(fiber.finished());
    fiber.setState(Fiber::State::Runnable);
    fiber.resume();
    EXPECT_EQ(trace, (std::vector<int>{1, 2}));
    EXPECT_TRUE(fiber.finished());
}

TEST(Fiber, CurrentIsNullInSchedulerContext)
{
    EXPECT_EQ(Fiber::current(), nullptr);
    Fiber fiber([&] { EXPECT_NE(Fiber::current(), nullptr); });
    fiber.resume();
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, InterleavesTwoFibers)
{
    std::string log;
    Fiber a([&] {
        log += "a1";
        Fiber::current()->yield();
        log += "a2";
    });
    Fiber b([&] {
        log += "b1";
        Fiber::current()->yield();
        log += "b2";
    });
    a.resume();
    b.resume();
    a.setState(Fiber::State::Runnable);
    a.resume();
    b.setState(Fiber::State::Runnable);
    b.resume();
    EXPECT_EQ(log, "a1b1a2b2");
}

TEST(Fiber, FiberUnwindIsSwallowed)
{
    Fiber fiber([] { throw ProcessKilled{}; });
    fiber.resume();
    EXPECT_TRUE(fiber.finished());
}

TEST(Fiber, DestructorsRunDuringUnwind)
{
    bool destroyed = false;
    struct Sentinel
    {
        bool *flag;
        ~Sentinel() { *flag = true; }
    };
    Fiber fiber([&] {
        Sentinel sentinel{&destroyed};
        throw JobAborted(Err::ProcFailed);
    });
    fiber.resume();
    EXPECT_TRUE(destroyed);
    EXPECT_TRUE(fiber.finished());
}

TEST(Fiber, DeepStackUsageSurvives)
{
    // Recursion touching ~100 KiB of the 512 KiB default stack.
    std::function<int(int)> burn = [&](int depth) -> int {
        volatile char pad[1024];
        pad[0] = static_cast<char>(depth);
        if (depth == 0)
            return pad[0];
        return burn(depth - 1) + (pad[0] ? 1 : 0);
    };
    int result = -1;
    Fiber fiber([&] { result = burn(100); });
    fiber.resume();
    EXPECT_EQ(result, 100);
}

TEST(FiberDeath, EscapingStdExceptionPanics)
{
    Fiber fiber([] { throw std::runtime_error("boom"); });
    EXPECT_DEATH(fiber.resume(), "uncaught exception");
}

TEST(Fiber, SwitchToChainReturnsToScheduler)
{
    // a -> b -> c by direct switches; c yields, which lands back in the
    // scheduler's a.resume(). Each fiber sees itself as current.
    std::string log;
    std::vector<const Fiber *> seen;
    Fiber *pa = nullptr;
    Fiber *pb = nullptr;
    Fiber c([&] {
        seen.push_back(Fiber::current());
        log += "c";
        Fiber::current()->yield();
        seen.push_back(Fiber::current());
        log += "C";
    });
    Fiber b([&] {
        seen.push_back(Fiber::current());
        log += "b";
        pb->switchTo(c);
        seen.push_back(Fiber::current());
        log += "B";
    });
    Fiber a([&] {
        seen.push_back(Fiber::current());
        log += "a";
        pa->switchTo(b);
        seen.push_back(Fiber::current());
        log += "A";
    });
    pa = &a;
    pb = &b;
    a.resume();
    EXPECT_EQ(log, "abc");
    EXPECT_EQ(seen, (std::vector<const Fiber *>{&a, &b, &c}));
    EXPECT_EQ(Fiber::current(), nullptr);
    EXPECT_FALSE(a.finished() || b.finished() || c.finished());

    // Each fiber parked mid-chain resumes from the scheduler and
    // finishes back into it.
    for (Fiber *fiber : {static_cast<Fiber *>(&c), pb, pa}) {
        fiber->resume();
        EXPECT_TRUE(fiber->finished());
        EXPECT_EQ(Fiber::current(), nullptr);
    }
    EXPECT_EQ(log, "abcCBA");
    EXPECT_EQ(seen, (std::vector<const Fiber *>{&a, &b, &c, &c, &b, &a}));
}

TEST(Fiber, FiberFinishingAfterSwitchesReturnsToScheduler)
{
    // a -> b -> c, and c runs to completion: the scheduler's a.resume()
    // returns although a itself is still parked.
    std::string log;
    Fiber *pa = nullptr;
    Fiber *pb = nullptr;
    Fiber c([&] { log += "c"; });
    Fiber b([&] {
        log += "b";
        pb->switchTo(c);
        log += "B";
    });
    Fiber a([&] {
        log += "a";
        pa->switchTo(b);
        log += "A";
    });
    pa = &a;
    pb = &b;
    a.resume();
    EXPECT_EQ(log, "abc");
    EXPECT_TRUE(c.finished());
    EXPECT_FALSE(a.finished());
    EXPECT_FALSE(b.finished());
    EXPECT_EQ(Fiber::current(), nullptr);

    // The fibers parked in switchTo() resume from the scheduler.
    b.resume();
    EXPECT_EQ(log, "abcB");
    EXPECT_TRUE(b.finished());
    a.resume();
    EXPECT_EQ(log, "abcBA");
    EXPECT_TRUE(a.finished());
}

TEST(Fiber, FiberUnwindOnSwitchedToFiber)
{
    // Both a fiber first started by switchTo and one re-entered by it
    // unwind with FiberUnwind, run their destructors and finish into
    // the scheduler.
    struct Sentinel
    {
        int *count;
        ~Sentinel() { ++*count; }
    };
    int destroyed = 0;
    Fiber fresh([&] {
        Sentinel sentinel{&destroyed};
        throw ProcessKilled{};
    });
    Fiber parked([&] {
        Sentinel sentinel{&destroyed};
        Fiber::current()->yield();
        throw JobAborted(Err::ProcFailed);
    });
    Fiber *pa = nullptr;
    Fiber a([&] {
        pa->switchTo(fresh);
        pa->switchTo(parked);
    });
    pa = &a;
    parked.resume();
    EXPECT_EQ(destroyed, 0);
    a.resume(); // a -> fresh, which unwinds and finishes
    EXPECT_TRUE(fresh.finished());
    EXPECT_EQ(destroyed, 1);
    EXPECT_EQ(Fiber::current(), nullptr);
    a.resume(); // a -> parked, which unwinds and finishes
    EXPECT_TRUE(parked.finished());
    EXPECT_EQ(destroyed, 2);
    EXPECT_FALSE(a.finished());
    EXPECT_EQ(Fiber::current(), nullptr);
    a.resume();
    EXPECT_TRUE(a.finished());
}
