/**
 * @file
 * MPI compatibility shim tests, including the paper's Figure-1 listing
 * compiled nearly verbatim against the simulator.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/fti/fti.hh"
#include "src/simmpi/mpi_compat.hh"
#include "src/simmpi/runtime.hh"

using namespace match;
using namespace match::simmpi;
using namespace match::simmpi::compat;

namespace
{

JobOptions
options(int nprocs)
{
    JobOptions opts;
    opts.nprocs = nprocs;
    return opts;
}

} // namespace

TEST(MpiCompat, RankAndSize)
{
    Runtime rt;
    rt.run(options(4), [&](Proc &proc) {
        BindProc bind(proc);
        int argc = 0;
        char **argv = nullptr;
        MPI_Init(&argc, &argv);
        int rank = -1, size = -1;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        MPI_Comm_size(MPI_COMM_WORLD, &size);
        EXPECT_EQ(rank, proc.rank());
        EXPECT_EQ(size, 4);
        MPI_Finalize();
    });
}

TEST(MpiCompat, SendRecvWithStatus)
{
    Runtime rt;
    rt.run(options(2), [&](Proc &proc) {
        BindProc bind(proc);
        if (proc.rank() == 0) {
            const double values[3] = {1.5, 2.5, 3.5};
            MPI_Send(values, 3, MPI_DOUBLE, 1, 9, MPI_COMM_WORLD);
        } else {
            double values[3] = {0, 0, 0};
            MPI_Status status;
            MPI_Recv(values, 3, MPI_DOUBLE, MPI_ANY_SOURCE, MPI_ANY_TAG,
                     MPI_COMM_WORLD, &status);
            EXPECT_EQ(status.MPI_SOURCE, 0);
            EXPECT_EQ(status.MPI_TAG, 9);
            EXPECT_EQ(status.count, 3);
            EXPECT_DOUBLE_EQ(values[2], 3.5);
        }
    });
}

TEST(MpiCompat, CollectivesMatchNativeApi)
{
    Runtime rt;
    rt.run(options(8), [&](Proc &proc) {
        BindProc bind(proc);
        double mine = proc.rank() + 1.0;
        double sum = 0.0;
        MPI_Allreduce(&mine, &sum, 1, MPI_DOUBLE, MPI_SUM,
                      MPI_COMM_WORLD);
        EXPECT_DOUBLE_EQ(sum, 36.0);

        int imax = proc.rank();
        int out = -1;
        MPI_Allreduce(&imax, &out, 1, MPI_INT, MPI_MAX, MPI_COMM_WORLD);
        EXPECT_EQ(out, 7);

        int root_value = proc.rank() == 2 ? 77 : 0;
        MPI_Bcast(&root_value, 1, MPI_INT, 2, MPI_COMM_WORLD);
        EXPECT_EQ(root_value, 77);

        MPI_Barrier(MPI_COMM_WORLD);
        EXPECT_GE(MPI_Wtime(), 0.0);
    });
}

TEST(MpiCompat, PaperFigure1CompilesAndRuns)
{
    // The paper's Figure 1 ("a sample implementation of FTI"),
    // transliterated with the shim: MPI calls keep their C shape.
    const fti::FtiConfig fcfg = [] {
        fti::FtiConfig cfg;
        cfg.ckptDir = "/tmp/match-compat";
        cfg.execId = "fig1";
        return cfg;
    }();
    fti::Fti::purge(fcfg);

    JobOptions opts = options(4);
    opts.policy = ErrorPolicy::Reinit;
    opts.schedule = std::make_shared<InjectionSchedule>(
        InjectionSchedule{{{27, 1}}});

    std::vector<double> finals(4, 0.0);
    Runtime rt;
    rt.runReinit(opts, [&](Proc &proc, ReinitState) {
        BindProc bind(proc);
        int argc = 0;
        char **argv = nullptr;
        MPI_Init(&argc, &argv);

        // FTI_Init(argv[1], MPI_COMM_WORLD);
        fti::Fti fti(proc, fcfg);

        // Add FTI protection to data objects (right before the loop).
        int iter_num = 0;
        double state = 0.0;
        fti.protect(0, &iter_num, sizeof(iter_num));
        fti.protect(1, &state, sizeof(state));

        const int cp_stride = 10;
        for (; iter_num < 40; ++iter_num) {
            proc.iterationPoint(iter_num);
            // "If the execution is a restart"
            if (fti.status() != 0)
                fti.recover();
            // "do FTI checkpointing"
            if (iter_num > 0 && iter_num % cp_stride == 0)
                fti.checkpoint(iter_num / cp_stride);

            double contribution = 1.0, sum = 0.0;
            MPI_Allreduce(&contribution, &sum, 1, MPI_DOUBLE, MPI_SUM,
                          MPI_COMM_WORLD);
            state += sum;
        }

        fti.finalize(); // FTI_Finalize();
        MPI_Finalize();
        finals[proc.globalIndex()] = state;
    });

    for (double f : finals)
        EXPECT_DOUBLE_EQ(f, 40 * 4.0);
    fti::Fti::purge(fcfg);
}

TEST(MpiCompatDeath, CallOutsideBindPanics)
{
    EXPECT_DEATH(
        {
            int rank;
            MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        },
        "outside a BindProc");
}
