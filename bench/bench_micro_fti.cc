/**
 * @file
 * Micro-benchmarks of the FTI library: checkpoint wall cost per level
 * (real serialization + file I/O) and recovery, plus the blob
 * data-plane counters that make the zero-copy claim measurable — on
 * the MemBackend hot path, `bytesCopied` must stay near zero while
 * `bytesStored` counts every checkpoint byte admitted to the store —
 * and the drain-stage RLE codec's bytes/s.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <filesystem>
#include <vector>

#include "src/fti/fti.hh"
#include "src/simmpi/runtime.hh"
#include "src/storage/blob.hh"
#include "src/storage/transform.hh"
#include "src/util/crc32c.hh"

using namespace match;
using namespace match::simmpi;

namespace
{

fti::FtiConfig
benchConfig(int level)
{
    fti::FtiConfig cfg;
    cfg.ckptDir = std::filesystem::exists("/dev/shm")
                      ? "/dev/shm/match-fti-micro"
                      : "/tmp/match-fti-micro";
    cfg.execId = "micro-l" + std::to_string(level);
    cfg.defaultLevel = level;
    cfg.groupSize = 4;
    cfg.parityShards = 4;
    return cfg;
}

void
BM_CheckpointLevel(benchmark::State &state)
{
    const int level = static_cast<int>(state.range(0));
    const std::size_t doubles = static_cast<std::size_t>(state.range(1));
    const auto cfg = benchConfig(level);
    for (auto _ : state) {
        fti::Fti::purge(cfg);
        Runtime runtime;
        JobOptions opts;
        opts.nprocs = 8;
        runtime.run(opts, [&](Proc &proc) {
            fti::Fti fti(proc, cfg);
            std::vector<double> data(doubles, 1.5);
            fti.protect(0, data.data(), data.size() * sizeof(double));
            for (int id = 1; id <= 4; ++id)
                fti.checkpoint(id);
        });
    }
    fti::Fti::purge(cfg);
    state.SetBytesProcessed(state.iterations() * 4 * 8 *
                            static_cast<std::int64_t>(doubles) *
                            sizeof(double));
}
BENCHMARK(BM_CheckpointLevel)
    ->Args({1, 1 << 12})
    ->Args({2, 1 << 12})
    ->Args({3, 1 << 12})
    ->Args({4, 1 << 12})
    ->Args({1, 1 << 16});

/**
 * The grid's checkpoint hot path: the same loop as BM_CheckpointLevel
 * but on a MemBackend (the simulation default), reporting the blob
 * layer's allocation/copy counters. `copiedPerStored` is the fraction
 * of admitted checkpoint payload that was memcpy'd — the zero-copy
 * data plane keeps it ~0 (the seed's vector-based plane copied every
 * byte at least once, ratio >= 1).
 */
void
BM_CheckpointMemDataPlane(benchmark::State &state)
{
    const int level = static_cast<int>(state.range(0));
    const std::size_t doubles = static_cast<std::size_t>(state.range(1));
    auto cfg = benchConfig(level);
    cfg.execId = "micro-mem-l" + std::to_string(level);
    cfg.backend = match::storage::makeBackend(match::storage::Kind::Mem);
    const auto before = match::storage::BlobPool::globalStats();
    for (auto _ : state) {
        fti::Fti::purge(cfg);
        Runtime runtime;
        JobOptions opts;
        opts.nprocs = 8;
        runtime.run(opts, [&](Proc &proc) {
            fti::Fti fti(proc, cfg);
            std::vector<double> data(doubles, 1.5);
            fti.protect(0, data.data(), data.size() * sizeof(double));
            for (int id = 1; id <= 4; ++id)
                fti.checkpoint(id);
            fti.finalize();
        });
    }
    const auto after = match::storage::BlobPool::globalStats();
    const auto stored =
        static_cast<double>(after.bytesStored - before.bytesStored);
    state.counters["blobAllocs"] = benchmark::Counter(
        static_cast<double>(after.allocs - before.allocs));
    state.counters["blobPoolHits"] = benchmark::Counter(
        static_cast<double>(after.poolHits - before.poolHits));
    state.counters["bytesCopied"] = benchmark::Counter(
        static_cast<double>(after.bytesCopied - before.bytesCopied));
    state.counters["bytesStored"] = benchmark::Counter(stored);
    state.counters["copiedPerStored"] = benchmark::Counter(
        stored > 0.0 ? static_cast<double>(after.bytesCopied -
                                           before.bytesCopied) /
                           stored
                     : 0.0);
    state.SetBytesProcessed(state.iterations() * 4 * 8 *
                            static_cast<std::int64_t>(doubles) *
                            sizeof(double));
}
BENCHMARK(BM_CheckpointMemDataPlane)
    ->Args({1, 1 << 12})
    ->Args({2, 1 << 12})
    ->Args({3, 1 << 12})
    ->Args({4, 1 << 12});

/**
 * Raw CRC32C throughput: the checksum every sealed checkpoint blob now
 * pays once (and the SDC recovery ladder re-pays per verification).
 * The slice-by-8 software kernel should sustain multiple GB/s; a
 * regression here taxes every checkpoint commit.
 */
void
BM_Crc32c(benchmark::State &state)
{
    const std::size_t bytes = static_cast<std::size_t>(state.range(0));
    std::vector<std::uint8_t> data(bytes);
    for (std::size_t i = 0; i < bytes; ++i)
        data[i] = static_cast<std::uint8_t>(i * 131u + 17u);
    std::uint64_t sum = 0;
    for (auto _ : state) {
        sum ^= util::crc32c(data.data(), data.size());
        benchmark::DoNotOptimize(sum);
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Crc32c)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

/** Checkpoint images for the codec rows: 18 KiB, an HPCCG p64 rank's
 *  protected state. */
constexpr std::size_t kCodecDoubles = 2304;

std::uint64_t
lcgNext(std::uint64_t &state)
{
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 11;
}

storage::Blob
sealDoubles(const std::vector<double> &values)
{
    return storage::BlobPool::local().copyOf(
        values.data(), values.size() * sizeof(double));
}

/** 0: HPCCG-like doubles (incompressible: the stored fallback);
 *  1: an image 90% zero bytes (one double in ten set);
 *  2: the delta envelope between two consecutive sparse images (every
 *  third 256-byte block updated). */
storage::Blob
codecInput(int kind)
{
    std::uint64_t rng = 12345;
    std::vector<double> image(kCodecDoubles, 0.0);
    for (std::size_t k = 0; k < image.size(); ++k) {
        const double noise = static_cast<double>(lcgNext(rng) % 1000000) *
                             1e-9;
        if (kind == 0)
            image[k] = 1.0 + 0.25 * std::sin(0.01 * k) + noise;
        else if (lcgNext(rng) % 10 == 0)
            image[k] = 0.5 + noise;
    }
    if (kind != 2)
        return sealDoubles(image);
    std::vector<double> next = image;
    constexpr std::size_t kBlockDoubles = 256 / sizeof(double);
    for (std::size_t k = 0; k < next.size(); ++k)
        if ((k / kBlockDoubles) % 3 == 0 && next[k] != 0.0)
            next[k] *= 1.0001;
    return storage::deltaEncode(sealDoubles(next), sealDoubles(image), 1,
                                256);
}

const char *
codecLabel(int kind)
{
    return kind == 0 ? "doubles" : kind == 1 ? "sparse90" : "delta";
}

/**
 * The drain-stage RLE encoder (every L4/SCR flush under a compress
 * transform) on the three checkpoint shapes above; bytes/s counts
 * input bytes.
 */
void
BM_CompressEncode(benchmark::State &state)
{
    const int kind = static_cast<int>(state.range(0));
    const storage::Blob input = codecInput(kind);
    std::size_t envelope_bytes = 0;
    for (auto _ : state) {
        const storage::Blob envelope = storage::compressEncode(input);
        envelope_bytes = envelope.size();
        benchmark::DoNotOptimize(envelope.data());
    }
    state.SetLabel(codecLabel(kind));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(input.size()));
    state.counters["outPerIn"] =
        static_cast<double>(envelope_bytes) /
        static_cast<double>(input.size());
}
BENCHMARK(BM_CompressEncode)->DenseRange(0, 2);

/** The matching decode (L4/SCR recovery reads); bytes/s counts decoded
 *  bytes. */
void
BM_CompressDecode(benchmark::State &state)
{
    const int kind = static_cast<int>(state.range(0));
    const storage::Blob input = codecInput(kind);
    const storage::Blob envelope = storage::compressEncode(input);
    for (auto _ : state) {
        const storage::Blob decoded = storage::compressDecode(envelope);
        benchmark::DoNotOptimize(decoded.data());
    }
    state.SetLabel(codecLabel(kind));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_CompressDecode)->DenseRange(0, 2);

/**
 * Checkpoint hot path with SDC hardening on: identical loop to
 * BM_CheckpointMemDataPlane at L1, plus the blob-seal CRC32C. The
 * delta against the MemDataPlane L1 row is the wall cost the checksum
 * adds per committed checkpoint.
 */
void
BM_CheckpointChecksummed(benchmark::State &state)
{
    const std::size_t doubles = static_cast<std::size_t>(state.range(0));
    auto cfg = benchConfig(1);
    cfg.execId = "micro-crc-l1";
    cfg.backend = match::storage::makeBackend(match::storage::Kind::Mem);
    cfg.sdcChecks = true;
    for (auto _ : state) {
        fti::Fti::purge(cfg);
        Runtime runtime;
        JobOptions opts;
        opts.nprocs = 8;
        runtime.run(opts, [&](Proc &proc) {
            fti::Fti fti(proc, cfg);
            std::vector<double> data(doubles, 1.5);
            fti.protect(0, data.data(), data.size() * sizeof(double));
            for (int id = 1; id <= 4; ++id)
                fti.checkpoint(id);
            fti.finalize();
        });
    }
    state.SetBytesProcessed(state.iterations() * 4 * 8 *
                            static_cast<std::int64_t>(doubles) *
                            sizeof(double));
}
BENCHMARK(BM_CheckpointChecksummed)->Arg(1 << 12)->Arg(1 << 16);

void
BM_Recover(benchmark::State &state)
{
    const auto cfg = benchConfig(1);
    fti::Fti::purge(cfg);
    {
        Runtime runtime;
        JobOptions opts;
        opts.nprocs = 8;
        runtime.run(opts, [&](Proc &proc) {
            fti::Fti fti(proc, cfg);
            std::vector<double> data(1 << 14, 2.5);
            fti.protect(0, data.data(), data.size() * sizeof(double));
            fti.checkpoint(1);
        });
    }
    for (auto _ : state) {
        Runtime runtime;
        JobOptions opts;
        opts.nprocs = 8;
        runtime.run(opts, [&](Proc &proc) {
            fti::Fti fti(proc, cfg);
            std::vector<double> data(1 << 14, 0.0);
            fti.protect(0, data.data(), data.size() * sizeof(double));
            fti.recover();
            benchmark::DoNotOptimize(data.data());
        });
    }
    fti::Fti::purge(cfg);
    state.SetBytesProcessed(state.iterations() * 8 *
                            static_cast<std::int64_t>(1 << 14) *
                            sizeof(double));
}
BENCHMARK(BM_Recover);

/**
 * Recovery at scale, the FTI share of a Fig. 6/9 recovery cell: a
 * fresh P-rank job scans the committed meta records and restores the
 * newest link of a delta chain (a full checkpoint plus three deltas).
 * Each iteration first commits new epochs, untimed, as in a grid where
 * every cell writes its own. Every rank fetches and checks every
 * commit record, so the meta reads grow with P.
 */
void
BM_RecoverScaling(benchmark::State &state)
{
    const int procs = static_cast<int>(state.range(0));
    constexpr int kEpochs = 4;
    auto cfg = benchConfig(1);
    cfg.execId = "micro-recover-p" + std::to_string(procs);
    cfg.backend = match::storage::makeBackend(match::storage::Kind::Mem);
    cfg.transform = match::storage::TransformKind::Delta;
    JobOptions opts;
    opts.nprocs = procs;
    int round = 0;
    for (auto _ : state) {
        state.PauseTiming();
        fti::Fti::purge(cfg);
        ++round;
        Runtime writer;
        writer.run(opts, [&](Proc &proc) {
            fti::Fti fti(proc, cfg);
            std::vector<double> data(1 << 10, round + proc.rank());
            fti.protect(0, data.data(), data.size() * sizeof(double));
            for (int id = 1; id <= kEpochs; ++id) {
                data[static_cast<std::size_t>(id)] += id;
                fti.checkpoint(id);
            }
            fti.finalize();
        });
        state.ResumeTiming();
        Runtime runtime;
        runtime.run(opts, [&](Proc &proc) {
            fti::Fti fti(proc, cfg);
            std::vector<double> data(1 << 10, 0.0);
            fti.protect(0, data.data(), data.size() * sizeof(double));
            fti.recover();
            benchmark::DoNotOptimize(data.data());
            fti.finalize();
        });
    }
    fti::Fti::purge(cfg);
}
BENCHMARK(BM_RecoverScaling)->Arg(64)->Arg(512)->Unit(
    benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
