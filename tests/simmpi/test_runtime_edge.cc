/**
 * @file
 * Runtime edge cases: accounting invariants, communicator queries,
 * revocation semantics, wildcard interactions with failures, and
 * determinism properties not covered by the main p2p/collective suites.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/simmpi/proc.hh"
#include "src/simmpi/runtime.hh"

using namespace match::simmpi;

namespace
{

JobOptions
options(int nprocs, ErrorPolicy policy = ErrorPolicy::Fatal)
{
    JobOptions opts;
    opts.nprocs = nprocs;
    opts.policy = policy;
    return opts;
}

} // namespace

TEST(RuntimeAccounting, CategoriesPartitionTheClock)
{
    Runtime rt;
    const JobResult result = rt.run(options(4), [&](Proc &proc) {
        proc.compute(4e8); // 0.1 s application
        {
            CategoryScope ckpt(proc, TimeCategory::CkptWrite);
            proc.sleepFor(0.05);
        }
        {
            CategoryScope read(proc, TimeCategory::CkptRead);
            proc.sleepFor(0.01);
        }
        proc.barrier();
    });
    // Per-rank clock equals the sum of its per-category times.
    for (int g = 0; g < 4; ++g) {
        const auto &cats = result.perRank[g];
        EXPECT_NEAR(cats[0] + cats[1] + cats[2] + cats[3],
                    result.makespan, 1e-9);
    }
    EXPECT_NEAR(result.breakdown[1], 0.05, 1e-9);
    EXPECT_NEAR(result.breakdown[2], 0.01, 1e-9);
}

TEST(RuntimeAccounting, CategoryScopeRestoresOnExit)
{
    Runtime rt;
    rt.run(options(1), [&](Proc &proc) {
        EXPECT_EQ(proc.category(), TimeCategory::Application);
        {
            CategoryScope outer(proc, TimeCategory::CkptWrite);
            EXPECT_EQ(proc.category(), TimeCategory::CkptWrite);
            {
                CategoryScope inner(proc, TimeCategory::Recovery);
                EXPECT_EQ(proc.category(), TimeCategory::Recovery);
            }
            EXPECT_EQ(proc.category(), TimeCategory::CkptWrite);
        }
        EXPECT_EQ(proc.category(), TimeCategory::Application);
    });
}

TEST(RuntimeQueries, RankSizeAndGlobalIndex)
{
    Runtime rt;
    std::vector<int> ranks(6, -1);
    rt.run(options(6), [&](Proc &proc) {
        EXPECT_EQ(proc.size(), 6);
        EXPECT_EQ(proc.rank(), proc.globalIndex());
        ranks[proc.rank()] = proc.rank();
    });
    for (int r = 0; r < 6; ++r)
        EXPECT_EQ(ranks[r], r);
}

TEST(RuntimeDeterminism, IdenticalRunsProduceIdenticalClocks)
{
    auto run = [] {
        Runtime rt;
        const JobResult result =
            rt.run(options(16), [&](Proc &proc) {
                for (int i = 0; i < 10; ++i) {
                    proc.compute(1e6 * (proc.rank() + 1));
                    proc.allreduce(1.0);
                }
            });
        return result.makespan;
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

TEST(RuntimeFailures, SendToDeadRankRaisesError)
{
    Runtime rt;
    auto opts = options(2, ErrorPolicy::Return);
    opts.schedule = std::make_shared<InjectionSchedule>(
        InjectionSchedule{{{0, 1}}});
    int handler_hits = 0;
    rt.run(opts, [&](Proc &proc) {
        proc.setErrorHandler([&](Err err) {
            EXPECT_EQ(err, Err::ProcFailed);
            ++handler_hits;
            throw UlfmRestart{};
        });
        try {
            proc.iterationPoint(0); // kills rank 1
            proc.barrier();         // let the failure land
            const int v = 7;
            proc.send(1, 0, &v, sizeof(v));
            FAIL() << "send to dead rank must not succeed";
        } catch (const UlfmRestart &) {
            // expected on the survivor
        }
    });
    EXPECT_EQ(handler_hits, 1);
}

TEST(RuntimeFailures, AnySourceRecvRaisesWhenAnyPeerDead)
{
    Runtime rt;
    auto opts = options(3, ErrorPolicy::Return);
    opts.schedule = std::make_shared<InjectionSchedule>(
        InjectionSchedule{{{0, 2}}});
    bool raised = false;
    rt.run(opts, [&](Proc &proc) {
        proc.setErrorHandler([&](Err) {
            raised = true;
            throw UlfmRestart{};
        });
        try {
            proc.iterationPoint(0);
            int v = 0;
            proc.recv(anySource, anyTag, &v, sizeof(v));
        } catch (const UlfmRestart &) {
        }
    });
    EXPECT_TRUE(raised);
}

TEST(RuntimeFailures, RevokedCommFailsSubsequentOps)
{
    Runtime rt;
    auto opts = options(4, ErrorPolicy::Return);
    opts.schedule = std::make_shared<InjectionSchedule>(
        InjectionSchedule{{{0, 3}}});
    std::vector<Err> seen;
    rt.run(opts, [&](Proc &proc) {
        proc.setErrorHandler([&](Err err) {
            seen.push_back(err);
            CategoryScope rec(proc, TimeCategory::Recovery);
            proc.revoke();
            proc.repairWorld();
            throw UlfmRestart{};
        });
        for (;;) {
            try {
                proc.iterationPoint(0);
                proc.allreduce(1.0);
                return;
            } catch (const UlfmRestart &) {
                continue;
            }
        }
    });
    // Survivors observe either the process failure directly or the
    // revocation raised by the first observer.
    ASSERT_FALSE(seen.empty());
    for (Err err : seen)
        EXPECT_TRUE(err == Err::ProcFailed || err == Err::Revoked);
}

TEST(RuntimeFailures, FailTimePropagatedToResult)
{
    Runtime rt;
    auto opts = options(2, ErrorPolicy::Fatal);
    opts.schedule = std::make_shared<InjectionSchedule>(
        InjectionSchedule{{{5, 0}}});
    const JobResult result = rt.run(opts, [&](Proc &proc) {
        for (int i = 0; i < 10; ++i) {
            proc.iterationPoint(i);
            proc.compute(4e8); // 0.1 s per iteration
            proc.barrier();
        }
    });
    EXPECT_EQ(result.failedRanks, std::vector<Rank>{0});
    // Killed at the top of iteration 5: ~0.5 s of virtual time.
    EXPECT_NEAR(result.failTime, 0.5, 0.05);
}

TEST(RuntimeFailures, ReinitRecoveryCountsSingleFailure)
{
    Runtime rt;
    auto opts = options(4, ErrorPolicy::Reinit);
    opts.schedule = std::make_shared<InjectionSchedule>(
        InjectionSchedule{{{2, 1}}});
    const JobResult result =
        rt.runReinit(opts, [&](Proc &proc, ReinitState) {
            for (int i = 0; i < 5; ++i) {
                proc.iterationPoint(i);
                proc.allreduce(1.0);
            }
        });
    EXPECT_EQ(result.recoveries, 1);
    EXPECT_EQ(rt.failureCount(), 1);
}

TEST(RuntimeTiming, UlfmPolicyInflatesComputeTime)
{
    auto computeTime = [](ErrorPolicy policy) {
        Runtime rt;
        SimTime t = 0.0;
        auto body = [&](Proc &proc) {
            if (policy == ErrorPolicy::Return)
                proc.setErrorHandler([](Err) { throw UlfmRestart{}; });
            proc.compute(4e9);
            t = proc.now();
        };
        rt.run(options(64, policy), body);
        return t;
    };
    const double fatal = computeTime(ErrorPolicy::Fatal);
    const double ulfm = computeTime(ErrorPolicy::Return);
    const CostModel model;
    EXPECT_NEAR(ulfm / fatal, model.ulfmAppFactor(64), 1e-9);
}

TEST(RuntimeTiming, CheckpointCategoryNotInflatedByAppFactor)
{
    // Work charged under CkptWrite uses the (smaller) checkpoint factor,
    // not the application factor.
    Runtime rt;
    SimTime app_dt = 0.0, ckpt_dt = 0.0;
    rt.run(options(64, ErrorPolicy::Return), [&](Proc &proc) {
        proc.setErrorHandler([](Err) { throw UlfmRestart{}; });
        const SimTime t0 = proc.now();
        proc.compute(4e9);
        app_dt = proc.now() - t0;
        CategoryScope ckpt(proc, TimeCategory::CkptWrite);
        const SimTime t1 = proc.now();
        proc.compute(4e9);
        ckpt_dt = proc.now() - t1;
    });
    EXPECT_LT(ckpt_dt, app_dt);
}

TEST(RuntimeComm, WorldSizeOneWorks)
{
    Runtime rt;
    const JobResult result = rt.run(options(1), [&](Proc &proc) {
        EXPECT_EQ(proc.size(), 1);
        proc.barrier();
        EXPECT_DOUBLE_EQ(proc.allreduce(3.5), 3.5);
        EXPECT_EQ(proc.exscan(5), 0);
    });
    EXPECT_FALSE(result.aborted);
}

TEST(RuntimeComm, LargeRankCountSmoke)
{
    Runtime rt;
    const JobResult result = rt.run(options(512), [&](Proc &proc) {
        const double sum = proc.allreduce(1.0);
        EXPECT_DOUBLE_EQ(sum, 512.0);
        proc.barrier();
    });
    EXPECT_GT(result.makespan, 0.0);
}

TEST(RuntimeScheduler, ReturnsToSchedulerOncePerFinishedFiber)
{
    // A blocking rank hands off straight to the next runnable one, so
    // the scheduler is re-entered only when a fiber finishes: once per
    // rank per job, however many messages and collectives ran and in
    // whatever order the ranks arrived.
    constexpr int kProcs = 16;
    Runtime rt;
    auto body = [&](Proc &proc) {
        const int me = proc.rank();
        for (int i = 0; i < 20; ++i) {
            proc.sleepFor(1e-6 * ((me * 5 + i) % 7));
            double token = me;
            proc.send((me + 1) % kProcs, 0, &token, sizeof(token));
            proc.recv((me + kProcs - 1) % kProcs, 0, &token, sizeof(token));
            EXPECT_DOUBLE_EQ(proc.allreduce(token),
                             kProcs * (kProcs - 1) / 2.0);
        }
    };
    rt.run(options(kProcs), body);
    EXPECT_EQ(rt.schedulerTrips(), static_cast<std::uint64_t>(kProcs));
    rt.run(options(kProcs), body);
    EXPECT_EQ(rt.schedulerTrips(), static_cast<std::uint64_t>(2 * kProcs));
}
