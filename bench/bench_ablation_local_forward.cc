/**
 * @file
 * Ablation: ULFM local-FORWARD recovery vs global-restart recovery
 * (paper Section V-E: "the ULFM global non-shrinking recovery can be
 * replaced with the ULFM local forward recovery").
 *
 * Workload: a master/worker task farm — the natural fit for forward
 * recovery. Under local-forward, a worker failure shrinks the world and
 * the master simply reassigns the lost tasks: no rollback, no
 * checkpoint data needed. Under global restart (Reinit + FTI), the
 * whole job rolls back to the master's last checkpointed bookkeeping.
 */

#include <cstdio>
#include <unistd.h>
#include <vector>

#include "bench/common.hh"
#include "src/ft/design.hh"
#include "src/fti/fti.hh"
#include "src/simmpi/launcher.hh"
#include "src/simmpi/proc.hh"
#include "src/util/logging.hh"
#include "src/util/table.hh"

using namespace match;
using namespace match::simmpi;

namespace
{

constexpr Tag tagTask = 1;
constexpr Tag tagDone = 2;
constexpr Tag tagStop = 3;
constexpr double taskFlops = 4.0e8; // ~0.1 s of work per task

/**
 * Master/worker farm with ULFM local-forward recovery. The master's
 * bookkeeping lives OUTSIDE the restart scope, so after a shrink it
 * continues forward, reassigning only unfinished tasks.
 */
double
runLocalForward(int procs, int tasks, int fail_task, Rank fail_rank)
{
    JobOptions opts;
    opts.nprocs = procs;
    opts.policy = ErrorPolicy::Return;
    opts.schedule = std::make_shared<InjectionSchedule>(
        InjectionSchedule{{{fail_task, fail_rank}}});

    double total = 0.0;
    Runtime runtime;
    const JobResult result = runtime.run(opts, [&](Proc &proc) {
        proc.setErrorHandler([&proc](Err) {
            CategoryScope recovery(proc, TimeCategory::Recovery);
            proc.revoke();
            proc.shrinkWorld(); // local repair: survivors only
            throw UlfmRestart{};
        });

        if (proc.globalIndex() == 0) {
            // ---- master: state survives restarts (forward recovery).
            std::vector<double> results(tasks, 0.0);
            std::vector<bool> done(tasks, false);
            for (;;) {
                try {
                    // (Re)assign the unfinished tasks round-robin over
                    // the CURRENT world's workers until all are done.
                    // Duplicate DONEs (a straggler that computed through
                    // the failure) are harmless: the next pass reassigns
                    // only what is still missing.
                    for (;;) {
                        const int workers = proc.size() - 1;
                        int assigned = 0;
                        std::vector<int> inflight;
                        for (int t = 0; t < tasks; ++t) {
                            if (done[t])
                                continue;
                            const int w = 1 + (assigned++ % workers);
                            proc.send(w, tagTask, &t, sizeof(t));
                            inflight.push_back(t);
                        }
                        if (inflight.empty())
                            break;
                        for (std::size_t i = 0; i < inflight.size();
                             ++i) {
                            double payload[2];
                            proc.recv(anySource, tagDone, payload,
                                      sizeof(payload));
                            const int t = static_cast<int>(payload[0]);
                            results[t] = payload[1];
                            done[t] = true;
                        }
                    }
                    const int stop = 1;
                    for (int w = 1; w < proc.size(); ++w)
                        proc.send(w, tagStop, &stop, sizeof(stop));
                    break;
                } catch (const UlfmRestart &) {
                    continue; // forward: keep `done`, reassign the rest
                }
            }
            for (double r : results)
                total += r;
        } else {
            // ---- worker: serve tasks until the STOP message.
            for (;;) {
                try {
                    for (;;) {
                        int task = -1;
                        const RecvStatus status =
                            proc.recv(0, anyTag, &task, sizeof(task));
                        if (status.tag == tagStop)
                            break;
                        proc.iterationPoint(task); // injection site
                        proc.compute(taskFlops);
                        double payload[2] = {static_cast<double>(task),
                                             task + 0.5};
                        proc.send(0, tagDone, payload, sizeof(payload));
                    }
                    break;
                } catch (const UlfmRestart &) {
                    continue;
                }
            }
        }
    });
    const double expect = tasks * (tasks - 1) / 2.0 + tasks * 0.5;
    if (total != expect)
        util::warn("task farm result mismatch: %.1f vs %.1f", total,
                   expect);
    return result.makespan;
}

/** The same farm under global-restart recovery (Reinit + FTI). */
double
runGlobalRestart(const std::string &sandbox_dir, int procs, int tasks,
                 int fail_task, Rank fail_rank)
{
    JobOptions opts;
    opts.nprocs = procs;
    opts.policy = ErrorPolicy::Reinit;
    opts.schedule = std::make_shared<InjectionSchedule>(
        InjectionSchedule{{{fail_task, fail_rank}}});

    fti::FtiConfig fcfg;
    fcfg.ckptDir = sandbox_dir;
    // Pid-qualified like core::execId: two processes sharing the
    // sandbox root must never purge each other's checkpoints.
    fcfg.execId = "localfwd-global-p" + std::to_string(procs) + "-t" +
                  std::to_string(tasks) + "-f" +
                  std::to_string(fail_task) + "r" +
                  std::to_string(fail_rank) + "-" +
                  std::to_string(::getpid());
    fti::Fti::purge(fcfg);

    Runtime runtime;
    const JobResult result = runtime.runReinit(opts, [&](Proc &proc,
                                                         ReinitState) {
        // Every rank processes a static slice of the tasks; the loop
        // counter is checkpointed so the global restart resumes.
        fti::Fti fti(proc, fcfg);
        int iter = 0;
        fti.protect(0, &iter, sizeof(iter));
        const int per_rank = (tasks + proc.size() - 1) / proc.size();
        for (; iter < per_rank; ++iter) {
            proc.iterationPoint(iter * proc.size() + proc.rank());
            if (fti.status() != 0)
                fti.recover();
            if (iter > 0 && iter % 10 == 0)
                fti.checkpoint(iter / 10);
            proc.compute(taskFlops);
            proc.allreduce(1.0); // progress heartbeat (BSP-ish)
        }
        fti.finalize();
    });
    fti::Fti::purge(fcfg);
    return result.makespan;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto options = match::bench::BenchOptions::parse(argc, argv);

    std::printf("=== Ablation: ULFM local-forward vs global-restart "
                "recovery (task farm, one worker failure) ===\n\n");
    util::Table table({"#Processes", "#Tasks", "LocalForward(s)",
                       "GlobalRestart(s)", "Speedup"});
    for (int procs : {8, 16, 32}) {
        const int tasks = procs * 8;
        const int fail_task = tasks / 3;
        const Rank fail_rank = procs / 2;
        const double fwd =
            runLocalForward(procs, tasks, fail_task, fail_rank);
        const double global = runGlobalRestart(
            options.spec.sandboxDir, procs, tasks, fail_task, fail_rank);
        table.addRow({std::to_string(procs), std::to_string(tasks),
                      util::Table::cell(fwd),
                      util::Table::cell(global),
                      util::Table::cell(global / fwd, 2) + "x"});
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf("Trade-off, not a winner: local-forward recovery needs "
                "no checkpoints and no rollback (only the lost tasks "
                "are redone on P-1 processes), but pays ULFM's repair "
                "and background overhead and the farm's master "
                "serialization; global restart redoes at most one "
                "checkpoint stride of everyone's work. Which side wins "
                "depends on task granularity, stride, and the ULFM "
                "overhead — exactly the kind of question MATCH is "
                "built to answer (paper Sec. V-E).\n");
    return 0;
}
