#include "src/ckpt/io.hh"

namespace match::ckpt
{

CkptIo::CkptIo(simmpi::Proc &proc,
               const std::shared_ptr<storage::Backend> &backend,
               double virtualFactor, storage::TransformKind transform)
    : proc_(proc), store_(storage::resolve(backend)),
      faults_(dynamic_cast<storage::FaultInjectingBackend *>(&store_)),
      virtualFactor_(virtualFactor),
      compress_(storage::transformHasCompress(transform))
{}

void
CkptIo::setEpoch(int epoch)
{
    epoch_ = epoch;
    if (faults_)
        faults_->setEpoch(epoch);
}

int
CkptIo::retryLimit() const
{
    return faults_ ? faults_->retryLimit() : storage::kDefaultIoRetryLimit;
}

storage::Blob
CkptIo::readSoft(const std::string &path) const
{
    try {
        return retry([&] { return store_.read(path); });
    } catch (const storage::StorageError &) {
        return storage::Blob();
    }
}

bool
CkptIo::copySoft(const std::string &src, const std::string &dst)
{
    try {
        return retry([&] { return store_.copy(src, dst); });
    } catch (const storage::StorageError &) {
        return false;
    }
}

bool
CkptIo::writeSoft(const std::string &path, const storage::Blob &blob)
{
    try {
        retry([&] { store_.write(path, blob); });
        return true;
    } catch (const storage::StorageError &) {
        return false;
    }
}

double
CkptIo::price(std::uint64_t shipped, std::uint64_t inVirtBytes, int procs,
              double factor) const
{
    // The flush job returns the wall bytes it shipped (the compressed
    // envelope when the compress stage is on). A virtual factor of 1
    // is exact: every shipped size is far below 2^53.
    const simmpi::CostModel &model = proc_.runtime().costModel();
    const double virt_shipped =
        static_cast<double>(shipped) * virtualFactor_;
    double cost =
        model.drainFlush(static_cast<std::size_t>(virt_shipped), procs);
    if (compress_)
        cost += model.transformCompress(
            static_cast<std::size_t>(inVirtBytes));
    return cost * factor;
}

void
CkptIo::reserve(std::uint64_t bytes, std::uint64_t capacity)
{
    const double stall = channel_.reserve(
        proc_.now(), bytes, capacity,
        [this](std::uint64_t shipped, std::uint64_t in_bytes, int procs,
               double factor) {
            return price(shipped, in_bytes, procs, factor);
        });
    if (stall > 0.0)
        proc_.sleepFor(stall);
}

void
CkptIo::barrier()
{
    const double wait = channel_.resolve(
        proc_.now(),
        [this](std::uint64_t shipped, std::uint64_t in_bytes, int procs,
               double factor) {
            return price(shipped, in_bytes, procs, factor);
        });
    if (wait > 0.0)
        proc_.sleepFor(wait);
}

} // namespace match::ckpt
