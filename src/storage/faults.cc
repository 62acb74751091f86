#include "src/storage/faults.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/util/logging.hh"

namespace match::storage
{

const char *
pathClassName(PathClass cls)
{
    switch (cls) {
      case PathClass::Local: return "local";
      case PathClass::Pfs: return "pfs";
    }
    return "unknown";
}

bool
parsePathClass(const std::string &name, PathClass &out)
{
    for (const PathClass cls : {PathClass::Local, PathClass::Pfs}) {
        if (name == pathClassName(cls)) {
            out = cls;
            return true;
        }
    }
    return false;
}

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::ReadFault: return "read";
      case FaultKind::WriteFault: return "write";
      case FaultKind::TornWrite: return "torn";
      case FaultKind::Enospc: return "enospc";
      case FaultKind::LatencySpike: return "latency";
    }
    return "unknown";
}

bool
parseFaultKind(const std::string &name, FaultKind &out)
{
    for (const FaultKind kind :
         {FaultKind::ReadFault, FaultKind::WriteFault,
          FaultKind::TornWrite, FaultKind::Enospc,
          FaultKind::LatencySpike}) {
        if (name == faultKindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

namespace
{

/** Whether `kind` strikes the write path. */
bool
isWriteKind(FaultKind kind)
{
    return kind == FaultKind::WriteFault ||
           kind == FaultKind::TornWrite || kind == FaultKind::Enospc;
}

bool
covers(const FaultWindow &window, int epoch, PathClass cls)
{
    return window.cls == cls && epoch >= window.firstEpoch &&
           epoch <= window.lastEpoch;
}

} // anonymous namespace

bool
StorageFaultPlan::writeExhausted(int epoch, PathClass cls,
                                 int retryLimit) const
{
    // Overlapping windows compound: the decorator fails an attempt for
    // every open window that still has strikes left, so the number of
    // consecutive failures a write sees is the SUM of the open
    // windows' strikes — the queries must aggregate the same way or a
    // pair of individually transient windows slips past the pre-flight
    // and exhausts the retry loop mid-write.
    int strikes = 0;
    for (const FaultWindow &w : windows) {
        if (!covers(w, epoch, cls) || !isWriteKind(w.kind))
            continue;
        if (w.kind == FaultKind::Enospc)
            return true; // retry never helps a full tier
        strikes += w.strikes;
    }
    return strikes > retryLimit;
}

bool
StorageFaultPlan::readExhausted(int epoch, PathClass cls,
                                int retryLimit) const
{
    int strikes = 0;
    for (const FaultWindow &w : windows) {
        if (covers(w, epoch, cls) && w.kind == FaultKind::ReadFault)
            strikes += w.strikes;
    }
    return strikes > retryLimit;
}

bool
StorageFaultPlan::copyExhausted(int epoch, PathClass srcCls,
                                PathClass dstCls, int retryLimit) const
{
    // Backend::copy spends ONE retry budget across both legs: the
    // decorator fails the src read until its strikes drain, then the
    // dst write until its strikes drain, so the consecutive failures a
    // retried copy sees is the sum of both sides — two individually
    // rideable windows can together exceed the budget.
    int strikes = 0;
    for (const FaultWindow &w : windows) {
        if (covers(w, epoch, srcCls) && w.kind == FaultKind::ReadFault)
            strikes += w.strikes;
        if (covers(w, epoch, dstCls) && isWriteKind(w.kind)) {
            if (w.kind == FaultKind::Enospc)
                return true; // retry never helps a full tier
            strikes += w.strikes;
        }
    }
    return strikes > retryLimit;
}

int
StorageFaultPlan::transientWriteStrikes(int epoch, PathClass cls,
                                        int retryLimit) const
{
    if (writeExhausted(epoch, cls, retryLimit))
        return 0; // handled by degrade/skip, not by retrying
    int strikes = 0;
    for (const FaultWindow &w : windows) {
        if (covers(w, epoch, cls) && isWriteKind(w.kind) &&
            w.kind != FaultKind::Enospc) {
            strikes += w.strikes;
        }
    }
    return strikes;
}

int
StorageFaultPlan::transientReadStrikes(int epoch, PathClass cls,
                                       int retryLimit) const
{
    if (readExhausted(epoch, cls, retryLimit))
        return 0;
    int strikes = 0;
    for (const FaultWindow &w : windows) {
        if (covers(w, epoch, cls) && w.kind == FaultKind::ReadFault)
            strikes += w.strikes;
    }
    return strikes;
}

bool
StorageFaultPlan::latencySpike(int epoch, PathClass cls) const
{
    for (const FaultWindow &w : windows) {
        if (covers(w, epoch, cls) && w.kind == FaultKind::LatencySpike)
            return true;
    }
    return false;
}

StorageFaultPlan
generatePlan(const StorageFaultConfig &config, int epochs,
             util::Rng &rng)
{
    StorageFaultPlan plan;
    if (!config.trace.empty()) {
        // Trace replay consumes zero draws, like the process-failure
        // trace model: replaying a generated plan is bit-exact.
        plan.windows = config.trace;
        return plan;
    }
    const int horizon = std::max(1, epochs);
    const int mean = std::max(1, config.meanEpochs);
    for (int i = 0; i < config.windows; ++i) {
        FaultWindow window;
        window.firstEpoch = 1 + static_cast<int>(rng.below(
            static_cast<std::uint64_t>(horizon)));
        const int length = 1 + static_cast<int>(rng.below(
            static_cast<std::uint64_t>(2 * mean - 1)));
        window.lastEpoch =
            std::min(horizon, window.firstEpoch + length - 1);
        window.cls = rng.uniform() < config.pfsBias ? PathClass::Pfs
                                                    : PathClass::Local;
        // Kind mix: writes dominate (they are what the degradation
        // machinery exists for), with reads, torn writes, ENOSPC and
        // latency spikes each getting a fixed share. One draw per
        // window keeps the sequence a pure function of the knobs.
        const double k = rng.uniform();
        if (k < 0.35)
            window.kind = FaultKind::WriteFault;
        else if (k < 0.55)
            window.kind = FaultKind::ReadFault;
        else if (k < 0.70)
            window.kind = FaultKind::TornWrite;
        else if (k < 0.85)
            window.kind = FaultKind::Enospc;
        else
            window.kind = FaultKind::LatencySpike;
        window.strikes = std::max(1, config.strikes);
        plan.windows.push_back(window);
    }
    return plan;
}

std::string
serializeFaultTrace(const std::vector<FaultWindow> &windows)
{
    std::string text = "# match storage-fault trace: "
                       "firstEpoch lastEpoch class kind strikes\n";
    for (const FaultWindow &w : windows) {
        char line[96];
        std::snprintf(line, sizeof(line), "%d %d %s %s %d\n",
                      w.firstEpoch, w.lastEpoch, pathClassName(w.cls),
                      faultKindName(w.kind), w.strikes);
        text += line;
    }
    return text;
}

std::vector<FaultWindow>
parseFaultTrace(const std::string &text)
{
    std::vector<FaultWindow> windows;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        if (line.find_first_not_of(" \t\r\v\f") == std::string::npos)
            continue; // blank or comment-only line
        std::istringstream fields(line);
        FaultWindow window;
        std::string cls, kind;
        if (!(fields >> window.firstEpoch >> window.lastEpoch >> cls >>
              kind >> window.strikes)) {
            util::fatal("storage-fault trace line %d: want "
                        "'firstEpoch lastEpoch class kind strikes', "
                        "got '%s'",
                        lineno, line.c_str());
        }
        std::string extra;
        if (fields >> extra) {
            util::fatal("storage-fault trace line %d: trailing '%s'",
                        lineno, extra.c_str());
        }
        if (!parsePathClass(cls, window.cls)) {
            util::fatal("storage-fault trace line %d: unknown class "
                        "'%s' (want local or pfs)",
                        lineno, cls.c_str());
        }
        if (!parseFaultKind(kind, window.kind)) {
            util::fatal("storage-fault trace line %d: unknown kind "
                        "'%s' (want read, write, torn, enospc or "
                        "latency)",
                        lineno, kind.c_str());
        }
        if (window.firstEpoch < 0 || window.lastEpoch < window.firstEpoch ||
            window.strikes < 0) {
            util::fatal("storage-fault trace line %d: invalid window "
                        "[%d, %d] strikes %d",
                        lineno, window.firstEpoch, window.lastEpoch,
                        window.strikes);
        }
        windows.push_back(window);
    }
    return windows;
}

void
writeFaultTraceFile(const std::string &path,
                    const std::vector<FaultWindow> &windows)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const std::string text = serializeFaultTrace(windows);
    out.write(text.data(),
              static_cast<std::streamsize>(text.size()));
    if (!out)
        util::fatal("cannot write storage-fault trace %s", path.c_str());
}

std::vector<FaultWindow>
readFaultTraceFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        util::fatal("cannot read storage-fault trace %s", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return parseFaultTrace(text.str());
}

// --- Process-global fault counters -----------------------------------

namespace
{

struct GlobalFaultCounters
{
    std::atomic<std::uint64_t> injectedReadFaults{0};
    std::atomic<std::uint64_t> injectedWriteFaults{0};
    std::atomic<std::uint64_t> tornWrites{0};
    std::atomic<std::uint64_t> enospcHits{0};
    std::atomic<std::uint64_t> pricedRetries{0};
    std::atomic<std::uint64_t> latencySpikes{0};
    std::atomic<std::uint64_t> degradedCkpts{0};
    std::atomic<std::uint64_t> skippedEpochs{0};
    std::atomic<std::uint64_t> failedFlushes{0};
};

GlobalFaultCounters &
counters()
{
    static GlobalFaultCounters instance;
    return instance;
}

/** Thread-local (epoch, actor) binding installed by FaultEpochScope;
 *  -1 when no scope is active on this thread. Safe under the fiber
 *  scheduler because scopes never span a yield point (see the class
 *  comment). */
thread_local int tlsEpochOverride = -1;
thread_local int tlsActor = -1;

} // anonymous namespace

FaultStats
faultGlobalStats()
{
    const GlobalFaultCounters &c = counters();
    FaultStats stats;
    stats.injectedReadFaults = c.injectedReadFaults.load();
    stats.injectedWriteFaults = c.injectedWriteFaults.load();
    stats.tornWrites = c.tornWrites.load();
    stats.enospcHits = c.enospcHits.load();
    stats.pricedRetries = c.pricedRetries.load();
    stats.latencySpikes = c.latencySpikes.load();
    stats.degradedCkpts = c.degradedCkpts.load();
    stats.skippedEpochs = c.skippedEpochs.load();
    stats.failedFlushes = c.failedFlushes.load();
    return stats;
}

void
notePricedRetries(std::uint64_t count)
{
    counters().pricedRetries.fetch_add(count,
                                       std::memory_order_relaxed);
}

void
noteLatencySpike()
{
    counters().latencySpikes.fetch_add(1, std::memory_order_relaxed);
}

void
noteDegradedCkpt()
{
    counters().degradedCkpts.fetch_add(1, std::memory_order_relaxed);
}

void
noteSkippedEpoch()
{
    counters().skippedEpochs.fetch_add(1, std::memory_order_relaxed);
}

void
noteFailedFlush()
{
    counters().failedFlushes.fetch_add(1, std::memory_order_relaxed);
}

// --- FaultInjectingBackend -------------------------------------------

FaultInjectingBackend::FaultInjectingBackend(
    std::shared_ptr<Backend> inner, StorageFaultPlan plan,
    int retryLimit)
    : inner_(std::move(inner)), plan_(std::move(plan)),
      retryLimit_(retryLimit)
{
    MATCH_ASSERT(inner_ != nullptr,
                 "fault decorator needs a real backend");
}

void
FaultInjectingBackend::addPfsPrefix(std::string prefix)
{
    if (!prefix.empty())
        pfsPrefixes_.push_back(std::move(prefix));
}

PathClass
FaultInjectingBackend::classify(const std::string &path) const
{
    if (path.find("/pfs/") != std::string::npos)
        return PathClass::Pfs;
    for (const std::string &prefix : pfsPrefixes_) {
        if (path.rfind(prefix, 0) == 0)
            return PathClass::Pfs;
    }
    return PathClass::Local;
}

int
FaultInjectingBackend::effectiveEpoch() const
{
    return tlsEpochOverride >= 0 ? tlsEpochOverride : epoch();
}

const FaultWindow *
FaultInjectingBackend::failingWindow(const std::string &path,
                                     bool writeOp) const
{
    const int epoch = effectiveEpoch();
    const PathClass cls = classify(path);
    for (std::size_t i = 0; i < plan_.windows.size(); ++i) {
        const FaultWindow &w = plan_.windows[i];
        if (!covers(w, epoch, cls))
            continue;
        if (writeOp ? !isWriteKind(w.kind)
                    : w.kind != FaultKind::ReadFault)
            continue;
        if (w.kind == FaultKind::Enospc)
            return &w; // a full tier fails every attempt
        std::lock_guard<std::mutex> lock(mu_);
        // Keyed per actor: a shared object (FTI's rank-less meta file)
        // must charge each simulated rank its own strike budget, or
        // the first ranks' retries would heal the window for later
        // ones and identical ladders would restore different ids.
        int &tried = attempts_[{i, tlsActor, path}];
        if (tried < w.strikes) {
            ++tried;
            return &w;
        }
    }
    return nullptr;
}

void
FaultInjectingBackend::failWrite(const std::string &path,
                                 const Blob &blob, bool atomicOp)
{
    const FaultWindow *window = failingWindow(path, /*writeOp=*/true);
    if (!window)
        return;
    GlobalFaultCounters &c = counters();
    switch (window->kind) {
      case FaultKind::TornWrite:
        // The fault every checksum exists for: a prefix of the object
        // lands before the error surfaces. A later full rewrite (the
        // retry) replaces it; an abandoned object is caught by the
        // CRC/marker machinery, never silently restored. writeAtomic
        // keeps its contract even here: the tear lands in the tmp
        // object the failed rename discards, so nothing is persisted
        // and the previous object stays intact — FTI commit records
        // and SCR markers are detected by a bare exists() and must
        // never be observable half-written.
        c.tornWrites.fetch_add(1, std::memory_order_relaxed);
        if (!atomicOp && blob.size() > 0)
            inner_->write(path, BlobPool::local().copyOf(
                                    blob.data(), blob.size() / 2));
        throw StorageError("write", path, 0, "injected torn write");
      case FaultKind::Enospc:
        c.enospcHits.fetch_add(1, std::memory_order_relaxed);
        throw StorageError("write", path, 28 /* ENOSPC */,
                           "injected ENOSPC window");
      default:
        c.injectedWriteFaults.fetch_add(1, std::memory_order_relaxed);
        throw StorageError("write", path, 0, "injected write fault");
    }
}

Blob
FaultInjectingBackend::read(const std::string &path) const
{
    if (failingWindow(path, /*writeOp=*/false)) {
        counters().injectedReadFaults.fetch_add(
            1, std::memory_order_relaxed);
        throw StorageError("read", path, 0, "injected read fault");
    }
    return inner_->read(path);
}

void
FaultInjectingBackend::write(const std::string &path, Blob blob)
{
    failWrite(path, blob, /*atomicOp=*/false);
    inner_->write(path, std::move(blob));
}

void
FaultInjectingBackend::writeAtomic(const std::string &path, Blob blob)
{
    failWrite(path, blob, /*atomicOp=*/true);
    inner_->writeAtomic(path, std::move(blob));
}

bool
FaultInjectingBackend::exists(const std::string &path) const
{
    return inner_->exists(path);
}

bool
FaultInjectingBackend::size(const std::string &path,
                            std::size_t &bytes) const
{
    return inner_->size(path, bytes);
}

bool
FaultInjectingBackend::copy(const std::string &src,
                            const std::string &dst)
{
    // A copy reads the source and writes the destination: both ends'
    // windows apply (partner copies cross tiers in spirit, so this is
    // the honest classification).
    if (failingWindow(src, /*writeOp=*/false)) {
        counters().injectedReadFaults.fetch_add(
            1, std::memory_order_relaxed);
        throw StorageError("read", src, 0, "injected read fault");
    }
    failWrite(dst, Blob(), /*atomicOp=*/false);
    return inner_->copy(src, dst);
}

void
FaultInjectingBackend::remove(const std::string &path)
{
    inner_->remove(path);
}

void
FaultInjectingBackend::removeTree(const std::string &dir)
{
    inner_->removeTree(dir);
}

std::vector<std::string>
FaultInjectingBackend::listDir(const std::string &dir) const
{
    return inner_->listDir(dir);
}

// --- FaultEpochScope -------------------------------------------------

FaultEpochScope::FaultEpochScope(const FaultInjectingBackend *backend,
                                 int epoch, int actor)
{
    if (!backend)
        return;
    active_ = true;
    prevEpoch_ = tlsEpochOverride;
    prevActor_ = tlsActor;
    tlsEpochOverride = epoch;
    tlsActor = actor;
}

FaultEpochScope::~FaultEpochScope()
{
    if (active_) {
        tlsEpochOverride = prevEpoch_;
        tlsActor = prevActor_;
    }
}

} // namespace match::storage
