/**
 * @file
 * FTI recovery under storage-tier faults: the newest-first ladder must
 * make the SAME rung decision on every rank. The meta files are shared
 * rank-less objects, so strike budgets have to be charged per actor —
 * with a single global counter, the first ranks' retries drain the
 * window's strikes and a later rank's attempt crosses the boundary and
 * succeeds, splitting the job across two checkpoint ids. A PFS read
 * exhausted past the retry budget ends its rung alike with and without
 * sdcChecks.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <vector>

#include "src/fti/fti.hh"
#include "src/simmpi/runtime.hh"
#include "src/storage/faults.hh"

namespace fs = std::filesystem;
using namespace match;
using namespace match::simmpi;
using match::fti::Fti;
using match::fti::FtiConfig;
using match::storage::FaultKind;
using match::storage::FaultWindow;
using match::storage::PathClass;

namespace
{

FtiConfig
cfg(const std::string &exec_id)
{
    FtiConfig config;
    config.ckptDir =
        (fs::temp_directory_path() / "match-fti-fault-tests").string();
    config.execId = exec_id;
    config.defaultLevel = 1;
    config.groupSize = 4;
    config.parityShards = 4;
    // Keep both rungs on disk so the recovery ladder has somewhere to
    // fall.
    config.keepOnlyLatest = false;
    return config;
}

JobOptions
options(int nprocs)
{
    JobOptions opts;
    opts.nprocs = nprocs;
    return opts;
}

} // namespace

TEST(FtiFaults, RecoveryLadderStaysRankUniformOnSharedMeta)
{
    auto config = cfg("ladder-uniform");
    Fti::purge(config);
    const int procs = 4;

    // Phase 1, faults off: commit checkpoints 1 and 2.
    Runtime rt1;
    rt1.run(options(procs), [&](Proc &proc) {
        Fti fti(proc, config);
        int iter = 0;
        fti.protect(0, &iter, sizeof(iter));
        for (int id = 1; id <= 2; ++id) {
            iter = id;
            fti.checkpoint(id);
        }
        fti.finalize();
    });

    // Phase 2: a ReadFault window pins checkpoint 2's epoch with more
    // strikes than ONE rank's retry budget (4 attempts at limit 3) but
    // fewer than the job's combined attempts. A global strike counter
    // would let rank 0 and rank 1 burn 6 strikes between them and hand
    // rank 2 a healed window — rank 2 restores checkpoint 2 while the
    // others fell to 1. Per-(actor, path) budgets fail every rank's
    // meta read identically, so the whole job walks down together.
    storage::StorageFaultPlan plan;
    plan.windows = {{2, 2, PathClass::Local, FaultKind::ReadFault, 6}};
    config.backend = std::make_shared<storage::FaultInjectingBackend>(
        storage::makeBackend(storage::Kind::Disk), plan,
        /*retryLimit=*/3);

    Runtime rt2;
    rt2.run(options(procs), [&](Proc &proc) {
        Fti fti(proc, config);
        int iter = -1;
        fti.protect(0, &iter, sizeof(iter));
        fti.recover();
        EXPECT_EQ(fti.lastCheckpointId(), 1)
            << "rank " << proc.rank()
            << " restored a different rung than its peers";
        EXPECT_EQ(iter, 1) << "rank " << proc.rank();
        fti.finalize();
    });
    Fti::purge(config);
}

class FtiPfsReadOutage : public ::testing::TestWithParam<bool>
{
};

TEST_P(FtiPfsReadOutage, ExhaustedPfsReadEndsTheRungInBothModes)
{
    // A PFS read exhausted past the retry budget is not a lost object:
    // with or without sdcChecks (the parameter) it ends the rung, and
    // every rank restores the older L4 checkpoint instead of failing.
    auto config = cfg(GetParam() ? "pfs-outage-sdc" : "pfs-outage-plain");
    config.defaultLevel = 4;
    config.sdcChecks = GetParam();
    Fti::purge(config);
    const int procs = 4;

    Runtime rt1;
    rt1.run(options(procs), [&](Proc &proc) {
        Fti fti(proc, config);
        int iter = 0;
        fti.protect(0, &iter, sizeof(iter));
        for (int id = 1; id <= 2; ++id) {
            iter = id;
            fti.checkpoint(id);
        }
        fti.finalize();
    });

    // Far more strikes than the retry budget: a persistent outage of
    // checkpoint 2's PFS objects (its meta lives on the local tier).
    storage::StorageFaultPlan plan;
    plan.windows = {{2, 2, PathClass::Pfs, FaultKind::ReadFault, 100}};
    config.backend = std::make_shared<storage::FaultInjectingBackend>(
        storage::makeBackend(storage::Kind::Disk), plan,
        /*retryLimit=*/3);

    Runtime rt2;
    rt2.run(options(procs), [&](Proc &proc) {
        Fti fti(proc, config);
        int iter = -1;
        fti.protect(0, &iter, sizeof(iter));
        EXPECT_EQ(fti.status(), 2);
        fti.recover();
        EXPECT_EQ(fti.lastCheckpointId(), 1) << "rank " << proc.rank();
        EXPECT_EQ(iter, 1) << "rank " << proc.rank();
        fti.finalize();
    });
    Fti::purge(config);
}

INSTANTIATE_TEST_SUITE_P(SdcChecks, FtiPfsReadOutage, ::testing::Bool());
