/**
 * @file
 * Failure semantics across the three error policies: fatal job abort
 * (Restart), ULFM error-handler recovery, and Reinit global restart.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/simmpi/launcher.hh"
#include "src/simmpi/proc.hh"
#include "src/simmpi/runtime.hh"

using namespace match::simmpi;

namespace
{

/** A one-crash schedule: kill `rank` at `iteration`. */
std::shared_ptr<InjectionSchedule>
plan(int iteration, Rank rank)
{
    return std::make_shared<InjectionSchedule>(
        InjectionSchedule{{{iteration, rank}}});
}

JobOptions
options(int nprocs, ErrorPolicy policy,
        std::shared_ptr<InjectionSchedule> schedule = nullptr)
{
    JobOptions opts;
    opts.nprocs = nprocs;
    opts.policy = policy;
    opts.schedule = std::move(schedule);
    return opts;
}

/** A tiny BSP loop: iterate, allreduce, optionally die. */
void
bspLoop(Proc &proc, int iters, int *completed = nullptr)
{
    for (int i = 0; i < iters; ++i) {
        proc.iterationPoint(i);
        proc.compute(1e7);
        proc.allreduce(1.0);
    }
    if (completed)
        ++*completed;
}

} // namespace

// ---------------------------------------------------------------------------
// Fatal policy (the Restart design's substrate)
// ---------------------------------------------------------------------------

TEST(FatalPolicy, InjectedFailureAbortsJob)
{
    Runtime rt;
    auto p = plan(3, 1);
    int completed = 0;
    const JobResult result =
        rt.run(options(4, ErrorPolicy::Fatal, p),
               [&](Proc &proc) { bspLoop(proc, 10, &completed); });
    EXPECT_TRUE(result.aborted);
    EXPECT_EQ(result.failedRanks, std::vector<Rank>{1});
    EXPECT_EQ(completed, 0);
    EXPECT_TRUE(p->events[0].fired);
}

TEST(FatalPolicy, NoInjectionRunsToCompletion)
{
    Runtime rt;
    int completed = 0;
    const JobResult result = rt.run(
        options(4, ErrorPolicy::Fatal),
        [&](Proc &proc) { bspLoop(proc, 10, &completed); });
    EXPECT_FALSE(result.aborted);
    EXPECT_TRUE(result.failedRanks.empty());
    EXPECT_EQ(completed, 4);
}

TEST(FatalPolicy, LauncherRedeploysAfterAbort)
{
    auto p = plan(5, 2);
    int completions = 0;
    const LaunchReport report = launchWithRestart(
        options(4, ErrorPolicy::Fatal, p),
        [&](Proc &proc) { bspLoop(proc, 10, &completions); });
    EXPECT_EQ(report.attempts, 2);
    EXPECT_FALSE(report.failedRanks.empty());
    // Second attempt runs all 4 ranks to completion.
    EXPECT_EQ(completions, 4);
    // Redeployment time is charged to recovery.
    const CostModel model;
    EXPECT_GE(report.breakdown[static_cast<int>(TimeCategory::Recovery)],
              model.restartRecovery(4));
}

TEST(FatalPolicy, LaunchOnceWithoutFailure)
{
    const LaunchReport report = launchOnce(
        options(2, ErrorPolicy::Fatal),
        [](Proc &proc) { bspLoop(proc, 3); });
    EXPECT_EQ(report.attempts, 1);
    EXPECT_TRUE(report.failedRanks.empty());
    EXPECT_GT(report.totalTime, 0.0);
}

// ---------------------------------------------------------------------------
// Reinit policy
// ---------------------------------------------------------------------------

TEST(ReinitPolicy, GlobalRestartReentersResilientMain)
{
    Runtime rt;
    auto p = plan(4, 1);
    std::vector<int> entries(4, 0);
    std::vector<int> restarted_entries(4, 0);
    int finished = 0;
    const JobResult result = rt.runReinit(
        options(4, ErrorPolicy::Reinit, p),
        [&](Proc &proc, ReinitState state) {
            ++entries[proc.globalIndex()];
            if (state == ReinitState::Restarted)
                ++restarted_entries[proc.globalIndex()];
            bspLoop(proc, 8);
            ++finished;
        });
    EXPECT_FALSE(result.aborted);
    EXPECT_EQ(result.recoveries, 1);
    EXPECT_FALSE(result.failedRanks.empty());
    EXPECT_EQ(finished, 4);
    for (int g = 0; g < 4; ++g) {
        // Every slot's first entry is New (the killed rank entered New
        // and died; its replacement re-enters as Restarted), and all
        // slots re-enter exactly once after the single failure.
        EXPECT_EQ(entries[g], 2) << g;
        EXPECT_EQ(restarted_entries[g], 1) << g;
    }
}

TEST(ReinitPolicy, NoFailureMeansSinglePass)
{
    Runtime rt;
    int news = 0, restarts = 0;
    const JobResult result = rt.runReinit(
        options(4, ErrorPolicy::Reinit),
        [&](Proc &proc, ReinitState state) {
            state == ReinitState::New ? ++news : ++restarts;
            bspLoop(proc, 5);
        });
    EXPECT_EQ(result.recoveries, 0);
    EXPECT_EQ(news, 4);
    EXPECT_EQ(restarts, 0);
}

TEST(ReinitPolicy, RecoveryTimeChargedAndNearConstant)
{
    auto recoveryTime = [](int procs) {
        Runtime rt;
        auto p = plan(3, procs / 2);
        const JobResult result = rt.runReinit(
            options(procs, ErrorPolicy::Reinit, p),
            [&](Proc &proc, ReinitState) { bspLoop(proc, 8); });
        return result.breakdown[static_cast<int>(TimeCategory::Recovery)];
    };
    const double r8 = recoveryTime(8);
    const double r64 = recoveryTime(64);
    EXPECT_GT(r8, 0.0);
    // Paper: Reinit recovery is independent of the scaling size.
    EXPECT_LT(r64 / r8, 1.6);
}

TEST(ReinitPolicy, StateRestartedOnlyAfterFailure)
{
    Runtime rt;
    auto p = plan(2, 0);
    std::set<int> states_seen;
    rt.runReinit(options(2, ErrorPolicy::Reinit, p),
                 [&](Proc &proc, ReinitState state) {
                     states_seen.insert(static_cast<int>(state));
                     bspLoop(proc, 6);
                     (void)proc;
                 });
    EXPECT_TRUE(states_seen.count(static_cast<int>(ReinitState::New)));
    EXPECT_TRUE(
        states_seen.count(static_cast<int>(ReinitState::Restarted)));
}

TEST(ReinitPolicy, RolledBackSenderDoesNotFillAParkedReceiversOldBuffer)
{
    // Rank 0 forwards one message per iteration to rank 1 after it
    // hears from rank 2; rank 2 dies at iteration 3. When the failure
    // fires, rank 1 is parked in a recv from rank 0. Recovery wakes it,
    // but rank 0 has the lower clock, so it resumes first, rolls back,
    // re-enters resilient_main and sends before rank 1 has resumed. That
    // send must go to rank 1's mailbox: taking the rendezvous fast path
    // into the old incarnation's posted buffer would lose the message
    // when rank 1 unwinds, and the job would deadlock.
    constexpr int kIters = 6;
    Runtime rt;
    auto p = plan(3, 2);
    std::vector<int> received;
    int finished = 0;
    const JobResult result = rt.runReinit(
        options(3, ErrorPolicy::Reinit, p),
        [&](Proc &proc, ReinitState state) {
            if (proc.rank() == 1 && state == ReinitState::Restarted)
                received.clear();
            for (int i = 0; i < kIters; ++i) {
                proc.iterationPoint(i);
                int value = i;
                if (proc.rank() == 0) {
                    proc.send(1, 0, &value, sizeof(value));
                    proc.recv(2, 0, &value, sizeof(value));
                } else if (proc.rank() == 1) {
                    proc.recv(0, 0, &value, sizeof(value));
                    received.push_back(value);
                } else {
                    proc.send(0, 0, &value, sizeof(value));
                }
            }
            ++finished;
        });
    EXPECT_FALSE(result.aborted);
    EXPECT_EQ(result.recoveries, 1);
    EXPECT_TRUE(p->events[0].fired);
    EXPECT_EQ(finished, 3);
    EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

// ---------------------------------------------------------------------------
// ULFM (Return) policy
// ---------------------------------------------------------------------------

namespace
{

/**
 * The paper's Figure 3 structure: error handler revokes + repairs, then
 * unwinds to a restart point in main via UlfmRestart (the longjmp).
 */
void
ulfmMain(Proc &proc, int iters, std::vector<int> *completions,
         int *handler_calls = nullptr)
{
    proc.setErrorHandler([&proc, handler_calls](Err err) {
        EXPECT_TRUE(err == Err::ProcFailed || err == Err::Revoked);
        if (handler_calls)
            ++*handler_calls;
        CategoryScope recovery(proc, TimeCategory::Recovery);
        proc.revoke();
        proc.repairWorld();
        throw UlfmRestart{};
    });

    // Restart scope (the paper's setjmp).
    for (;;) {
        try {
            const int start = 0; // no checkpointing in this unit test
            for (int i = start; i < iters; ++i) {
                proc.iterationPoint(i);
                proc.compute(1e7);
                proc.allreduce(1.0);
            }
            break;
        } catch (const UlfmRestart &) {
            continue;
        }
    }
    if (completions)
        ++(*completions)[proc.globalIndex()];
}

} // namespace

TEST(UlfmPolicy, RepairAndRestartCompletesAllRanks)
{
    Runtime rt;
    auto p = plan(4, 2);
    std::vector<int> completions(6, 0);
    int handler_calls = 0;
    const JobResult result = rt.run(
        options(6, ErrorPolicy::Return, p), [&](Proc &proc) {
            ulfmMain(proc, 10, &completions, &handler_calls);
        });
    EXPECT_FALSE(result.aborted);
    EXPECT_EQ(result.recoveries, 1);
    // Every slot (survivors + the respawned one) completes exactly once.
    for (int g = 0; g < 6; ++g)
        EXPECT_EQ(completions[g], 1) << g;
    // All five survivors enter the error handler.
    EXPECT_EQ(handler_calls, 5);
}

TEST(UlfmPolicy, RespawnedRankIsMarked)
{
    Runtime rt;
    auto p = plan(2, 1);
    std::vector<int> respawned_flags(4, -1);
    rt.run(options(4, ErrorPolicy::Return, p), [&](Proc &proc) {
        ulfmMain(proc, 6, nullptr);
        respawned_flags[proc.globalIndex()] =
            proc.isRespawned() ? 1 : 0;
    });
    EXPECT_EQ(respawned_flags[0], 0);
    EXPECT_EQ(respawned_flags[1], 1);
    EXPECT_EQ(respawned_flags[2], 0);
    EXPECT_EQ(respawned_flags[3], 0);
}

TEST(UlfmPolicy, WorldCommunicatorIsReplacedAfterRepair)
{
    Runtime rt;
    auto p = plan(2, 0);
    std::set<CommId> worlds_seen;
    rt.run(options(3, ErrorPolicy::Return, p), [&](Proc &proc) {
        worlds_seen.insert(proc.world());
        ulfmMain(proc, 6, nullptr);
        worlds_seen.insert(proc.world());
    });
    EXPECT_EQ(worlds_seen.size(), 2u);
}

TEST(UlfmPolicy, NewWorldHasFullSizeAfterNonShrinkingRepair)
{
    Runtime rt;
    auto p = plan(3, 1);
    int final_size = 0;
    rt.run(options(5, ErrorPolicy::Return, p), [&](Proc &proc) {
        ulfmMain(proc, 8, nullptr);
        if (proc.rank() == 0)
            final_size = proc.size();
    });
    EXPECT_EQ(final_size, 5);
}

TEST(UlfmPolicy, ShrinkingRepairDropsFailedRank)
{
    Runtime rt;
    auto p = plan(2, 3);
    int final_size = -1;
    rt.run(options(4, ErrorPolicy::Return, p), [&](Proc &proc) {
        proc.setErrorHandler([&proc](Err) {
            CategoryScope recovery(proc, TimeCategory::Recovery);
            proc.revoke();
            proc.shrinkWorld();
            throw UlfmRestart{};
        });
        for (;;) {
            try {
                for (int i = 0; i < 8; ++i) {
                    proc.iterationPoint(i);
                    proc.allreduce(1.0);
                }
                break;
            } catch (const UlfmRestart &) {
                continue;
            }
        }
        if (proc.rank() == 0)
            final_size = proc.size();
    });
    EXPECT_EQ(final_size, 3);
}

TEST(UlfmPolicy, RecoveryGrowsWithScale)
{
    auto recoveryTime = [](int procs) {
        Runtime rt;
        auto p = plan(3, procs / 2);
        const JobResult result = rt.run(
            options(procs, ErrorPolicy::Return, p),
            [&](Proc &proc) { ulfmMain(proc, 8, nullptr); });
        return result.breakdown[static_cast<int>(TimeCategory::Recovery)];
    };
    const double r8 = recoveryTime(8);
    const double r64 = recoveryTime(64);
    EXPECT_GT(r64, r8 * 1.2); // paper: ULFM does not scale well
}

TEST(UlfmPolicy, BackgroundOverheadSlowsApplication)
{
    // The same failure-free loop must take longer under ULFM than under
    // the Fatal policy (heartbeat + wrapper overhead).
    auto appTime = [](ErrorPolicy policy) {
        Runtime rt;
        JobResult result;
        if (policy == ErrorPolicy::Return) {
            result = rt.run(options(16, policy), [&](Proc &proc) {
                proc.setErrorHandler([](Err) { throw UlfmRestart{}; });
                bspLoop(proc, 20);
            });
        } else {
            result = rt.run(options(16, policy),
                            [&](Proc &proc) { bspLoop(proc, 20); });
        }
        return result
            .breakdown[static_cast<int>(TimeCategory::Application)];
    };
    const double fatal = appTime(ErrorPolicy::Fatal);
    const double ulfm = appTime(ErrorPolicy::Return);
    EXPECT_GT(ulfm, fatal * 1.05);
}

TEST(UlfmPolicy, RecoveryOrderingAcrossPolicies)
{
    // For the same workload and failure point: Restart recovery > ULFM
    // recovery > Reinit recovery (Figures 7 and 10).
    const int procs = 32;
    const int kill_iter = 4;
    const Rank kill_rank = 7;

    // Restart.
    const LaunchReport restart = launchWithRestart(
        options(procs, ErrorPolicy::Fatal, plan(kill_iter, kill_rank)),
        [&](Proc &proc) { bspLoop(proc, 10); });
    const double restart_rec =
        restart.breakdown[static_cast<int>(TimeCategory::Recovery)];

    // ULFM.
    Runtime rt_ulfm;
    const JobResult ulfm = rt_ulfm.run(
        options(procs, ErrorPolicy::Return, plan(kill_iter, kill_rank)),
        [&](Proc &proc) { ulfmMain(proc, 10, nullptr); });
    const double ulfm_rec =
        ulfm.breakdown[static_cast<int>(TimeCategory::Recovery)];

    // Reinit.
    Runtime rt_reinit;
    const JobResult reinit = rt_reinit.runReinit(
        options(procs, ErrorPolicy::Reinit, plan(kill_iter, kill_rank)),
        [&](Proc &proc, ReinitState) { bspLoop(proc, 10); });
    const double reinit_rec =
        reinit.breakdown[static_cast<int>(TimeCategory::Recovery)];

    EXPECT_GT(restart_rec, ulfm_rec);
    EXPECT_GT(ulfm_rec, reinit_rec);
    EXPECT_GT(reinit_rec, 0.0);
}

TEST(Injection, FiresExactlyOnceAcrossRestarts)
{
    auto p = plan(2, 1);
    int fires_observed = 0;
    launchWithRestart(options(3, ErrorPolicy::Fatal, p),
                      [&](Proc &proc) {
                          for (int i = 0; i < 5; ++i) {
                              proc.iterationPoint(i);
                              proc.allreduce(1.0);
                          }
                      });
    fires_observed = p->events[0].fired ? 1 : 0;
    EXPECT_EQ(fires_observed, 1);
}

TEST(Injection, DeterministicGivenSamePlan)
{
    auto run = [] {
        Runtime rt;
        const JobResult r = rt.runReinit(
            options(8, ErrorPolicy::Reinit, plan(3, 5)),
            [&](Proc &proc, ReinitState) { bspLoop(proc, 10); });
        return r.total();
    };
    EXPECT_DOUBLE_EQ(run(), run());
}
