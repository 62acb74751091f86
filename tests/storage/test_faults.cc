/**
 * @file
 * Storage-fault engine tests: plan generation determinism, the
 * replayable trace format, the decorator's injection semantics (window
 * gating by epoch/class/kind, per-(actor, path) strike healing,
 * torn-write prefixes, ENOSPC, metadata passthrough), and the pure
 * exhaustion queries the checkpoint clients base their degradation
 * decisions on.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/storage/backend.hh"
#include "src/storage/faults.hh"
#include "src/util/rng.hh"

using namespace match;
using match::storage::FaultInjectingBackend;
using match::storage::FaultKind;
using match::storage::FaultWindow;
using match::storage::PathClass;
using match::storage::StorageError;
using match::storage::StorageFaultConfig;
using match::storage::StorageFaultPlan;

namespace
{

std::shared_ptr<FaultInjectingBackend>
faulty(std::vector<FaultWindow> windows, int retry_limit = 3,
       storage::Kind inner = storage::Kind::Mem)
{
    StorageFaultPlan plan;
    plan.windows = std::move(windows);
    return std::make_shared<FaultInjectingBackend>(
        storage::makeBackend(inner), std::move(plan), retry_limit);
}

storage::Blob
blobOf(const std::string &text)
{
    return storage::BlobPool::local().copyOf(text.data(), text.size());
}

void
put(storage::Backend &backend, const std::string &path,
    const std::string &text)
{
    backend.write(path, blobOf(text));
}

std::string
get(const storage::Backend &backend, const std::string &path)
{
    const storage::Blob blob = backend.read(path);
    if (!blob)
        return {};
    return {reinterpret_cast<const char *>(blob.data()), blob.size()};
}

} // namespace

TEST(FaultPlan, GenerationIsDeterministic)
{
    StorageFaultConfig config;
    config.windows = 4;
    util::Rng a(42, 7), b(42, 7);
    const StorageFaultPlan pa = storage::generatePlan(config, 10, a);
    const StorageFaultPlan pb = storage::generatePlan(config, 10, b);
    EXPECT_EQ(pa, pb);
    ASSERT_EQ(pa.windows.size(), 4u);
    for (const FaultWindow &w : pa.windows) {
        EXPECT_GE(w.firstEpoch, 1);
        EXPECT_LE(w.firstEpoch, 10);
        EXPECT_GE(w.lastEpoch, w.firstEpoch);
        EXPECT_LE(w.lastEpoch, 10);
        EXPECT_EQ(w.strikes, config.strikes);
    }
}

TEST(FaultPlan, SeedChangesTheDraw)
{
    StorageFaultConfig config;
    config.windows = 4;
    util::Rng a(42, 7), b(43, 7);
    EXPECT_FALSE(storage::generatePlan(config, 10, a) ==
                 storage::generatePlan(config, 10, b));
}

TEST(FaultPlan, TraceReplaysVerbatimWithoutDraws)
{
    StorageFaultConfig config;
    config.windows = 2; // ignored when a trace is present
    config.trace = {{2, 5, PathClass::Pfs, FaultKind::WriteFault, 9},
                    {1, 1, PathClass::Local, FaultKind::Enospc, 1}};
    util::Rng rng(42);
    const StorageFaultPlan plan = storage::generatePlan(config, 10, rng);
    EXPECT_EQ(plan.windows, config.trace);
    // Zero draws consumed: the generator still produces the raw
    // sequence an untouched twin does.
    util::Rng twin(42);
    EXPECT_EQ(rng.next(), twin.next());
}

TEST(FaultPlan, ZeroWindowsGivesEmptyPlan)
{
    StorageFaultConfig config;
    util::Rng rng(42);
    EXPECT_TRUE(storage::generatePlan(config, 10, rng).empty());
}

TEST(FaultPlan, ExhaustionQueries)
{
    StorageFaultPlan plan;
    plan.windows = {
        {2, 3, PathClass::Pfs, FaultKind::WriteFault, 2},  // transient
        {5, 5, PathClass::Pfs, FaultKind::WriteFault, 99}, // persistent
        {6, 6, PathClass::Local, FaultKind::Enospc, 1},    // always out
        {7, 7, PathClass::Pfs, FaultKind::ReadFault, 99},
        {8, 8, PathClass::Local, FaultKind::LatencySpike, 1},
    };
    const int limit = 3;
    // Transient window: retries ride it out, never exhausted.
    EXPECT_FALSE(plan.writeExhausted(2, PathClass::Pfs, limit));
    EXPECT_EQ(plan.transientWriteStrikes(2, PathClass::Pfs, limit), 2);
    // Outside the window's epochs: clean.
    EXPECT_EQ(plan.transientWriteStrikes(4, PathClass::Pfs, limit), 0);
    // Persistent write outage: pre-detected, never retried.
    EXPECT_TRUE(plan.writeExhausted(5, PathClass::Pfs, limit));
    EXPECT_EQ(plan.transientWriteStrikes(5, PathClass::Pfs, limit), 0);
    // Wrong class stays clean.
    EXPECT_FALSE(plan.writeExhausted(5, PathClass::Local, limit));
    // ENOSPC exhausts regardless of strikes vs limit.
    EXPECT_TRUE(plan.writeExhausted(6, PathClass::Local, limit));
    EXPECT_FALSE(plan.readExhausted(6, PathClass::Local, limit));
    // Read outage is a read-side property only.
    EXPECT_TRUE(plan.readExhausted(7, PathClass::Pfs, limit));
    EXPECT_FALSE(plan.writeExhausted(7, PathClass::Pfs, limit));
    // Latency spikes never fail anything.
    EXPECT_TRUE(plan.latencySpike(8, PathClass::Local));
    EXPECT_FALSE(plan.writeExhausted(8, PathClass::Local, limit));
    EXPECT_FALSE(plan.latencySpike(8, PathClass::Pfs));
}

TEST(FaultPlan, OverlappingWindowsCompoundStrikes)
{
    // The decorator fails an attempt for every open window with
    // strikes left, so two individually transient windows over the
    // same (epoch, class) compound to their SUM of consecutive
    // failures. The queries must report that: 2 + 2 > limit 3 means
    // the epoch is exhausted (degrade/skip), not transient — or the
    // retry loop blows through its budget mid-write.
    StorageFaultPlan plan;
    plan.windows = {
        {1, 4, PathClass::Local, FaultKind::WriteFault, 2},
        {3, 6, PathClass::Local, FaultKind::TornWrite, 2},
        {3, 3, PathClass::Pfs, FaultKind::ReadFault, 2},
        {3, 3, PathClass::Pfs, FaultKind::ReadFault, 2},
    };
    const int limit = 3;
    // Single-window epochs stay transient.
    EXPECT_FALSE(plan.writeExhausted(2, PathClass::Local, limit));
    EXPECT_EQ(plan.transientWriteStrikes(2, PathClass::Local, limit), 2);
    EXPECT_FALSE(plan.writeExhausted(5, PathClass::Local, limit));
    // The overlap (epochs 3-4) sums to 4 > 3: exhausted, never retried.
    EXPECT_TRUE(plan.writeExhausted(3, PathClass::Local, limit));
    EXPECT_EQ(plan.transientWriteStrikes(3, PathClass::Local, limit), 0);
    EXPECT_TRUE(plan.writeExhausted(4, PathClass::Local, limit));
    // Reads compound identically.
    EXPECT_TRUE(plan.readExhausted(3, PathClass::Pfs, limit));
    EXPECT_EQ(plan.transientReadStrikes(3, PathClass::Pfs, limit), 0);
    // A roomier budget turns the same overlap back into a transient
    // rideable with the summed strike count.
    EXPECT_FALSE(plan.writeExhausted(3, PathClass::Local, 4));
    EXPECT_EQ(plan.transientWriteStrikes(3, PathClass::Local, 4), 4);
}

TEST(FaultPlan, CopyExhaustedSumsBothLegs)
{
    // Backend::copy spends one retry budget across the src read and
    // the dst write: two windows that are each rideable alone (2 <= 3)
    // compound to 4 consecutive failures and exhaust a retried copy.
    StorageFaultPlan plan;
    plan.windows = {
        {1, 1, PathClass::Local, FaultKind::ReadFault, 2},
        {1, 1, PathClass::Local, FaultKind::WriteFault, 2},
        {2, 2, PathClass::Local, FaultKind::ReadFault, 2},
        {3, 3, PathClass::Pfs, FaultKind::Enospc, 1},
    };
    const int limit = 3;
    // Each side alone passes the per-side queries...
    EXPECT_FALSE(plan.readExhausted(1, PathClass::Local, limit));
    EXPECT_FALSE(plan.writeExhausted(1, PathClass::Local, limit));
    // ...but the copy's combined budget is exhausted.
    EXPECT_TRUE(plan.copyExhausted(1, PathClass::Local,
                                   PathClass::Local, limit));
    // A single transient leg stays rideable.
    EXPECT_FALSE(plan.copyExhausted(2, PathClass::Local,
                                    PathClass::Local, limit));
    // ENOSPC on the destination exhausts regardless of strikes.
    EXPECT_TRUE(plan.copyExhausted(3, PathClass::Local, PathClass::Pfs,
                                   limit));
    EXPECT_FALSE(plan.copyExhausted(3, PathClass::Pfs,
                                    PathClass::Local, limit));
    // A roomier budget rides the summed strikes out.
    EXPECT_FALSE(plan.copyExhausted(1, PathClass::Local,
                                    PathClass::Local, 4));
}

TEST(FaultTrace, RoundTripsThroughTextAndFile)
{
    const std::vector<FaultWindow> windows = {
        {1, 4, PathClass::Pfs, FaultKind::WriteFault, 2},
        {2, 2, PathClass::Local, FaultKind::ReadFault, 99},
        {3, 6, PathClass::Pfs, FaultKind::TornWrite, 1},
        {5, 5, PathClass::Local, FaultKind::Enospc, 1},
        {6, 9, PathClass::Pfs, FaultKind::LatencySpike, 1},
    };
    EXPECT_EQ(storage::parseFaultTrace(
                  storage::serializeFaultTrace(windows)),
              windows);
    const std::string path = "/tmp/match-fault-trace-test.trace";
    storage::writeFaultTraceFile(path, windows);
    EXPECT_EQ(storage::readFaultTraceFile(path), windows);
}

TEST(FaultTrace, ParserSkipsCommentsAndBlankLines)
{
    const auto windows = storage::parseFaultTrace(
        "# storage-fault trace\n"
        "\n"
        "2 5 pfs write 3   # a transient PFS window\n"
        "1 1 local enospc 1\n");
    ASSERT_EQ(windows.size(), 2u);
    EXPECT_EQ(windows[0].firstEpoch, 2);
    EXPECT_EQ(windows[0].lastEpoch, 5);
    EXPECT_EQ(windows[0].cls, PathClass::Pfs);
    EXPECT_EQ(windows[0].kind, FaultKind::WriteFault);
    EXPECT_EQ(windows[0].strikes, 3);
    EXPECT_EQ(windows[1].kind, FaultKind::Enospc);
}

TEST(FaultTraceDeathTest, ParserRejectsLinesThatAreNotWindows)
{
    // A line with any token left after the '#' strip is a window or a
    // fatal error, never a silently skipped blank line.
    for (const char *garbage :
         {"pfs 1 2 write 2", "99999999999 3 local read 1", "x",
          "-- 2 pfs write 2", "1 99999999999 local read 1"}) {
        EXPECT_EXIT(storage::parseFaultTrace(
                        std::string("1 2 pfs write 2\n") + garbage +
                        "  # comment\n"),
                    ::testing::ExitedWithCode(1),
                    "storage-fault trace line 2: want 'firstEpoch "
                    "lastEpoch class kind strikes'")
            << garbage;
    }
}

TEST(FaultBackend, ClassifiesPathsByPfsSegmentAndPrefix)
{
    auto backend = faulty({});
    EXPECT_EQ(backend->classify("/tmp/x/pfs/ckpt-4-obj"),
              PathClass::Pfs);
    EXPECT_EQ(backend->classify("/tmp/x/local/ckpt-1-obj"),
              PathClass::Local);
    EXPECT_EQ(backend->classify("/tmp/x/meta/ckpt.fti"),
              PathClass::Local);
    EXPECT_EQ(backend->classify("/tmp/scr/prefix/job/d1"),
              PathClass::Local);
    backend->addPfsPrefix("/tmp/scr/prefix");
    EXPECT_EQ(backend->classify("/tmp/scr/prefix/job/d1"),
              PathClass::Pfs);
}

TEST(FaultBackend, WriteWindowStrikesThenHealsPerPath)
{
    auto backend =
        faulty({{1, 1, PathClass::Local, FaultKind::WriteFault, 2}});
    backend->setEpoch(1);
    const std::string data = "payload";
    // Two strikes per path, then the tier heals for that path.
    EXPECT_THROW(put(*backend, "/t/local/a", data), StorageError);
    EXPECT_THROW(put(*backend, "/t/local/a", data), StorageError);
    EXPECT_NO_THROW(put(*backend, "/t/local/a", data));
    EXPECT_EQ(get(*backend, "/t/local/a"), data);
    // The strike budget is per path: a fresh path fails again.
    EXPECT_THROW(put(*backend, "/t/local/b", data), StorageError);
    // Reads and the other class are untouched by a local write window.
    EXPECT_NO_THROW(put(*backend, "/t/pfs/c", data));
    EXPECT_EQ(get(*backend, "/t/local/a"), data);
}

TEST(FaultBackend, WindowIsEpochGated)
{
    auto backend =
        faulty({{2, 3, PathClass::Local, FaultKind::WriteFault, 99}});
    backend->setEpoch(1);
    EXPECT_NO_THROW(put(*backend, "/t/local/a", "x"));
    backend->setEpoch(2);
    EXPECT_THROW(put(*backend, "/t/local/a", "x"), StorageError);
    backend->setEpoch(4);
    EXPECT_NO_THROW(put(*backend, "/t/local/a", "x"));
}

TEST(FaultBackend, ReadWindowFailsReadsOnly)
{
    auto backend =
        faulty({{1, 1, PathClass::Pfs, FaultKind::ReadFault, 2}});
    backend->setEpoch(1);
    EXPECT_NO_THROW(put(*backend, "/t/pfs/a", "x"));
    EXPECT_THROW(backend->read("/t/pfs/a"), StorageError);
    EXPECT_THROW(backend->read("/t/pfs/a"), StorageError);
    EXPECT_TRUE(backend->read("/t/pfs/a")); // healed
}

TEST(FaultBackend, EachReadConsumesOneStrikeOverEitherInnerKind)
{
    // One read call is one decorator hook: a window of N strikes fails
    // exactly the next N reads of a path, whichever backend sits
    // underneath and whether or not the object exists — a read that
    // finds nothing must not reach the hook a second time.
    for (const storage::Kind kind : {storage::Kind::Mem,
                                     storage::Kind::Disk}) {
        const std::string root =
            (std::filesystem::temp_directory_path() /
             "match-fault-tests" / storage::kindName(kind))
                .string();
        auto backend = faulty(
            {{1, 1, PathClass::Local, FaultKind::ReadFault, 2}}, 3, kind);
        backend->removeTree(root);
        backend->setEpoch(0); // no window open yet: seed an object
        put(*backend, root + "/present", "x");
        backend->setEpoch(1);
        const std::uint64_t before =
            storage::faultGlobalStats().injectedReadFaults;
        for (const char *name : {"/present", "/absent"}) {
            EXPECT_THROW(backend->read(root + name), StorageError);
            EXPECT_THROW(backend->read(root + name), StorageError);
        }
        EXPECT_EQ(get(*backend, root + "/present"), "x"); // healed
        EXPECT_FALSE(backend->read(root + "/absent"));
        EXPECT_EQ(storage::faultGlobalStats().injectedReadFaults,
                  before + 4)
            << storage::kindName(kind);
        backend->removeTree(root);
    }
}

TEST(FaultBackend, TornWritePersistsAPrefix)
{
    auto backend =
        faulty({{1, 1, PathClass::Pfs, FaultKind::TornWrite, 1}});
    backend->setEpoch(1);
    const std::string data = "0123456789";
    EXPECT_THROW(put(*backend, "/t/pfs/a", data), StorageError);
    // Half the object landed: exactly the rot a crash-torn PFS write
    // leaves, which recovery must detect (CRC) and vote lost.
    EXPECT_EQ(get(*backend, "/t/pfs/a"), "01234");
    EXPECT_NO_THROW(put(*backend, "/t/pfs/a", data)); // healed
    EXPECT_EQ(get(*backend, "/t/pfs/a"), data);
}

TEST(FaultBackend, StrikeBudgetsAreKeyedPerActor)
{
    // A shared object (FTI's rank-less meta file) read by several
    // simulated ranks must charge each rank its OWN strike budget:
    // with a global counter, the first ranks' retries would heal the
    // window for later ones, and identical recovery ladders would
    // silently restore different checkpoint ids across ranks.
    auto backend =
        faulty({{1, 1, PathClass::Local, FaultKind::ReadFault, 2}});
    backend->setEpoch(0);
    put(*backend, "/t/meta/shared", "x");
    backend->setEpoch(1);
    const auto read_as = [&](int actor) {
        storage::FaultEpochScope scope(backend.get(), 1, actor);
        return static_cast<bool>(backend->read("/t/meta/shared"));
    };
    // Rank 0 consumes its two strikes, then heals — for itself only.
    EXPECT_THROW(read_as(0), StorageError);
    EXPECT_THROW(read_as(0), StorageError);
    EXPECT_TRUE(read_as(0));
    // Rank 1 still faces the full, untouched budget on the same path.
    EXPECT_THROW(read_as(1), StorageError);
    EXPECT_THROW(read_as(1), StorageError);
    EXPECT_TRUE(read_as(1));
    // The unbound bucket (no scope) is independent of both.
    EXPECT_THROW(backend->read("/t/meta/shared"), StorageError);
}

TEST(FaultBackend, TornAtomicWritePersistsNothing)
{
    // writeAtomic's contract — a reader never observes a partial
    // write, the previous object stays intact — must hold under an
    // injected tear too: FTI commit records and SCR markers are detected
    // by a bare exists() with no CRC, so a persisted prefix would be
    // trusted as a complete object after a crash.
    auto backend =
        faulty({{1, 1, PathClass::Local, FaultKind::TornWrite, 1}});
    backend->setEpoch(0);
    backend->writeAtomic("/t/meta/a", blobOf("old"));
    backend->setEpoch(1);
    EXPECT_THROW(backend->writeAtomic("/t/meta/a", blobOf("0123456789")),
                 StorageError);
    // The tear landed in the discarded tmp object: the previous
    // content is untouched, no half-written object is observable.
    EXPECT_EQ(get(*backend, "/t/meta/a"), "old");
    backend->writeAtomic("/t/meta/a", blobOf("0123456789")); // healed
    EXPECT_EQ(get(*backend, "/t/meta/a"), "0123456789");
    // A fresh path sees no prefix either - absent, not truncated.
    auto torn =
        faulty({{1, 1, PathClass::Local, FaultKind::TornWrite, 1}});
    torn->setEpoch(1);
    EXPECT_THROW(torn->writeAtomic("/t/meta/b", blobOf("0123456789")),
                 StorageError);
    EXPECT_FALSE(torn->exists("/t/meta/b"));
}

TEST(FaultBackend, EnospcNeverHeals)
{
    auto backend =
        faulty({{1, 1, PathClass::Local, FaultKind::Enospc, 1}});
    backend->setEpoch(1);
    for (int attempt = 0; attempt < 8; ++attempt)
        EXPECT_THROW(put(*backend, "/t/local/a", "x"), StorageError);
    EXPECT_EQ(get(*backend, "/t/local/a"), "");
}

TEST(FaultBackend, LatencySpikeNeverFails)
{
    auto backend =
        faulty({{1, 1, PathClass::Pfs, FaultKind::LatencySpike, 1}});
    backend->setEpoch(1);
    EXPECT_NO_THROW(put(*backend, "/t/pfs/a", "x"));
    EXPECT_EQ(get(*backend, "/t/pfs/a"), "x");
}

TEST(FaultBackend, MetadataOperationsPassThrough)
{
    auto backend = faulty({{1, 9, PathClass::Local,
                            FaultKind::WriteFault, 99},
                           {1, 9, PathClass::Local, FaultKind::ReadFault,
                            99}});
    backend->setEpoch(0); // no window open yet: seed an object
    put(*backend, "/t/local/a", "x");
    backend->setEpoch(1);
    // Namespace operations are never injected, even mid-outage.
    EXPECT_TRUE(backend->exists("/t/local/a"));
    std::size_t bytes = 0;
    EXPECT_TRUE(backend->size("/t/local/a", bytes));
    EXPECT_EQ(bytes, 1u);
    EXPECT_EQ(backend->listDir("/t/local"),
              (std::vector<std::string>{"a"}));
    EXPECT_NO_THROW(backend->remove("/t/local/a"));
    EXPECT_NO_THROW(backend->removeTree("/t/local"));
}

TEST(FaultBackend, EpochScopeOverridesPerThread)
{
    auto backend =
        faulty({{3, 3, PathClass::Pfs, FaultKind::WriteFault, 99}});
    backend->setEpoch(1); // simulation is already past the window...
    {
        // ...but this drain job was enqueued at epoch 3.
        storage::FaultEpochScope scope(backend.get(), 3);
        EXPECT_THROW(put(*backend, "/t/pfs/a", "x"), StorageError);
    }
    EXPECT_NO_THROW(put(*backend, "/t/pfs/a", "x"));
    // A null backend makes the scope a no-op (faults off).
    storage::FaultEpochScope off(nullptr, 3);
}
