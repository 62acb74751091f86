#include "src/storage/transform.hh"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <vector>

#include "src/util/logging.hh"

namespace match::storage
{

namespace
{

// Envelope magics, chosen to never collide with the region framing of a
// raw serialized image (region ids are small ints).
constexpr std::uint32_t kDeltaMagic = 0x544c444dU;    // "MDLT"
constexpr std::uint32_t kCompressMagic = 0x504d434dU; // "MCMP"

constexpr std::uint8_t kFormFull = 0;
constexpr std::uint8_t kFormDelta = 1;
constexpr std::uint8_t kMethodStored = 0;
constexpr std::uint8_t kMethodRle = 1;

// [u32 magic][u8 form][3 pad][u64 imageBytes]
constexpr std::size_t kDeltaHeaderBytes = 16;
// delta form adds [u32 baseCkptId][u32 blockSize]
constexpr std::size_t kDeltaDiffExtraBytes = 8;
// each dirty record: [u64 offset][u64 length][length bytes]
constexpr std::size_t kDeltaRecordBytes = 16;
// [u32 magic][u8 method][3 pad][u64 rawBytes]
constexpr std::size_t kCompressHeaderBytes = 16;

struct StageCounters
{
    std::atomic<std::uint64_t> bytesIn{0};
    std::atomic<std::uint64_t> bytesOut{0};
    std::atomic<std::uint64_t> applies{0};
    std::atomic<std::uint64_t> reverses{0};
};

StageCounters g_delta;
StageCounters g_compress;

StageCounters &
counters(TransformStage stage)
{
    return stage == TransformStage::Delta ? g_delta : g_compress;
}

void
noteEncode(TransformStage stage, std::size_t in, std::size_t out)
{
    StageCounters &c = counters(stage);
    c.applies.fetch_add(1, std::memory_order_relaxed);
    c.bytesIn.fetch_add(in, std::memory_order_relaxed);
    c.bytesOut.fetch_add(out, std::memory_order_relaxed);
}

void
noteDecode(TransformStage stage)
{
    counters(stage).reverses.fetch_add(1, std::memory_order_relaxed);
}

void
putU32(std::uint8_t *p, std::uint32_t v)
{
    std::memcpy(p, &v, sizeof(v));
}

void
putU64(std::uint8_t *p, std::uint64_t v)
{
    std::memcpy(p, &v, sizeof(v));
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** Decoding soft-fails on malformed bytes: the caller (a recovery
 *  rung) decides whether a lost image is fatal or a fallback. */
Blob
malformed(const char *what)
{
    MATCH_DEBUG("transform: %s", what);
    return Blob();
}

// The RLE scans below read 8 input bytes per unaligned load and locate
// the first interesting byte with a count of trailing zero bits, which
// names the lowest-addressed byte only on a little-endian host (the
// fiber layer is x86-64 only already).
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "the word-at-a-time RLE scan assumes little-endian loads");

/** Longest RLE literal chunk and longest repeat run. */
constexpr std::size_t kMaxChunk = 128;
constexpr std::uint64_t kLowBits = 0x0101010101010101ULL;
constexpr std::uint64_t kHighBits = 0x8080808080808080ULL;

/** Index of the lowest-addressed nonzero byte of a nonzero word. */
std::size_t
lowByteIndex(std::uint64_t w)
{
    return static_cast<std::size_t>(__builtin_ctzll(w)) >> 3;
}

/** End of the run of bytes equal to in[i] that starts at i, capped at
 *  `limit`: XOR against the broadcast byte, 8 bytes per step. */
std::size_t
repeatEnd(const std::uint8_t *in, std::size_t i, std::size_t limit)
{
    const std::uint64_t pattern = in[i] * kLowBits;
    std::size_t k = i + 1;
    for (; k + 8 <= limit; k += 8) {
        const std::uint64_t diff = getU64(in + k) ^ pattern;
        if (diff != 0)
            return k + lowByteIndex(diff);
    }
    while (k < limit && in[k] == in[i])
        ++k;
    return k;
}

/** First j in [i, limit) that starts a triple in[j] == in[j+1] ==
 *  in[j+2] lying inside the n input bytes, else `limit`. A zero byte b
 *  of (w0 ^ w1) | (w1 ^ w2), over loads at in+j, in+j+1 and in+j+2,
 *  marks a triple at j+b; the lowest zero byte is found exactly by the
 *  SWAR test (borrows only propagate upward from a zero byte). */
std::size_t
literalEnd(const std::uint8_t *in, std::size_t n, std::size_t i,
           std::size_t limit)
{
    std::size_t j = i;
    for (; j < limit && j + 10 <= n; j += 8) {
        const std::uint64_t w1 = getU64(in + j + 1);
        const std::uint64_t x =
            (getU64(in + j) ^ w1) | (w1 ^ getU64(in + j + 2));
        const std::uint64_t zero = (x - kLowBits) & ~x & kHighBits;
        if (zero != 0)
            return std::min(limit, j + lowByteIndex(zero));
    }
    for (; j < limit; ++j)
        if (j + 2 < n && in[j] == in[j + 1] && in[j] == in[j + 2])
            return j;
    return limit;
}

/** Per-thread RLE staging area: grows to the largest request seen on
 *  this thread, then is reused, so a warm encoder never allocates. */
std::uint8_t *
stagingBuffer(std::size_t bytes)
{
    thread_local std::unique_ptr<std::uint8_t[]> buffer;
    thread_local std::size_t capacity = 0;
    if (capacity < bytes) {
        // Default-initialized: no memset of bytes about to be written.
        buffer.reset(new std::uint8_t[bytes]);
        capacity = bytes;
    }
    return buffer.get();
}

} // namespace

const char *
transformKindName(TransformKind kind)
{
    switch (kind) {
      case TransformKind::None: return "none";
      case TransformKind::Delta: return "delta";
      case TransformKind::Compress: return "compress";
      case TransformKind::DeltaCompress: return "delta+compress";
    }
    return "unknown";
}

bool
parseTransformKind(const std::string &name, TransformKind &kind)
{
    if (name == "none")
        kind = TransformKind::None;
    else if (name == "delta")
        kind = TransformKind::Delta;
    else if (name == "compress")
        kind = TransformKind::Compress;
    else if (name == "delta+compress" || name == "delta-compress")
        kind = TransformKind::DeltaCompress;
    else
        return false;
    return true;
}

TransformStats
transformGlobalStats(TransformStage stage)
{
    const StageCounters &c = counters(stage);
    TransformStats stats;
    stats.bytesIn = c.bytesIn.load(std::memory_order_relaxed);
    stats.bytesOut = c.bytesOut.load(std::memory_order_relaxed);
    stats.applies = c.applies.load(std::memory_order_relaxed);
    stats.reverses = c.reverses.load(std::memory_order_relaxed);
    return stats;
}

Blob
deltaEncode(const Blob &image, const Blob &base, int baseCkptId,
            std::size_t blockSize)
{
    MATCH_ASSERT(blockSize > 0, "delta block size must be positive");
    const std::uint8_t *a = image.data();
    const std::size_t n = image.size();

    if (!base || base.size() != n) {
        // No usable reference: emit the image as a full envelope.
        MutableBlob out = BlobPool::local().acquire(kDeltaHeaderBytes + n);
        std::uint8_t *p = out.data();
        putU32(p, kDeltaMagic);
        p[4] = kFormFull;
        p[5] = p[6] = p[7] = 0;
        putU64(p + 8, n);
        if (n > 0)
            std::memcpy(p + kDeltaHeaderBytes, a, n);
        Blob env = std::move(out).seal();
        noteEncode(TransformStage::Delta, n, env.size());
        return env;
    }

    // Dirty scan with coalescing: adjacent dirty blocks merge into one
    // record, so a fully-dirty image costs one record's framing.
    struct Range
    {
        std::uint64_t off = 0;
        std::uint64_t len = 0;
    };
    std::vector<Range> ranges;
    std::uint64_t payload = 0;
    const std::uint8_t *b = base.data();
    for (std::size_t off = 0; off < n;) {
        const std::size_t len = std::min(blockSize, n - off);
        if (std::memcmp(a + off, b + off, len) != 0) {
            if (!ranges.empty() &&
                ranges.back().off + ranges.back().len == off)
                ranges.back().len += len;
            else
                ranges.push_back(Range{off, len});
            payload += len;
        }
        off += len;
    }

    const std::size_t total = kDeltaHeaderBytes + kDeltaDiffExtraBytes +
                              ranges.size() * kDeltaRecordBytes +
                              payload;
    MutableBlob out = BlobPool::local().acquire(total);
    std::uint8_t *p = out.data();
    putU32(p, kDeltaMagic);
    p[4] = kFormDelta;
    p[5] = p[6] = p[7] = 0;
    putU64(p + 8, n);
    putU32(p + 16, static_cast<std::uint32_t>(baseCkptId));
    putU32(p + 20, static_cast<std::uint32_t>(blockSize));
    std::size_t w = kDeltaHeaderBytes + kDeltaDiffExtraBytes;
    for (const Range &range : ranges) {
        putU64(p + w, range.off);
        putU64(p + w + 8, range.len);
        std::memcpy(p + w + kDeltaRecordBytes, a + range.off,
                    static_cast<std::size_t>(range.len));
        w += kDeltaRecordBytes + static_cast<std::size_t>(range.len);
    }
    Blob env = std::move(out).seal();
    noteEncode(TransformStage::Delta, n, env.size());
    return env;
}

DeltaInfo
deltaInspect(const Blob &envelope)
{
    DeltaInfo info;
    if (!envelope || envelope.size() < kDeltaHeaderBytes)
        return info;
    const std::uint8_t *p = envelope.data();
    if (getU32(p) != kDeltaMagic)
        return info;
    const std::uint8_t form = p[4];
    const std::uint64_t image_bytes = getU64(p + 8);
    if (form == kFormFull) {
        if (envelope.size() != kDeltaHeaderBytes + image_bytes)
            return info;
        info.valid = true;
        info.isFull = true;
        info.imageBytes = image_bytes;
        return info;
    }
    if (form != kFormDelta)
        return info;
    if (envelope.size() < kDeltaHeaderBytes + kDeltaDiffExtraBytes)
        return info;
    if (getU32(p + 20) == 0) // blockSize
        return info;
    info.valid = true;
    info.isFull = false;
    info.baseCkptId = static_cast<int>(getU32(p + 16));
    info.imageBytes = image_bytes;
    return info;
}

Blob
deltaDecode(const Blob &envelope, const Blob &base)
{
    const DeltaInfo info = deltaInspect(envelope);
    if (!info.valid)
        return malformed("not a delta envelope");

    const std::size_t image_bytes =
        static_cast<std::size_t>(info.imageBytes);
    if (info.isFull) {
        MutableBlob out = BlobPool::local().acquire(image_bytes);
        if (image_bytes > 0)
            std::memcpy(out.data(), envelope.data() + kDeltaHeaderBytes,
                        image_bytes);
        noteDecode(TransformStage::Delta);
        return std::move(out).seal();
    }

    if (!base || base.size() != image_bytes)
        return malformed("delta base image missing or mis-sized");
    MutableBlob out = BlobPool::local().acquire(image_bytes);
    if (image_bytes > 0)
        std::memcpy(out.data(), base.data(), image_bytes);
    const std::uint8_t *p = envelope.data();
    std::size_t r = kDeltaHeaderBytes + kDeltaDiffExtraBytes;
    while (r < envelope.size()) {
        if (envelope.size() - r < kDeltaRecordBytes)
            return malformed("truncated delta record");
        const std::uint64_t off = getU64(p + r);
        const std::uint64_t len = getU64(p + r + 8);
        r += kDeltaRecordBytes;
        if (len > envelope.size() - r)
            return malformed("delta record overruns the envelope");
        if (off > info.imageBytes || len > info.imageBytes - off)
            return malformed("delta record outside the image");
        std::memcpy(out.data() + off, p + r,
                    static_cast<std::size_t>(len));
        r += static_cast<std::size_t>(len);
    }
    noteDecode(TransformStage::Delta);
    return std::move(out).seal();
}

Blob
compressEncode(const Blob &raw)
{
    const std::uint8_t *in = raw.data();
    const std::size_t n = raw.size();

    // PackBits-style RLE: control c in [0,127] prefixes c+1 literal
    // bytes; c in [129,255] repeats the next byte 257-c times (runs of
    // 3..128); 128 is a decoder noop. Encoding stops once the output
    // reaches n bytes, so the last chunk overshoots by at most 128.
    std::uint8_t *rle = stagingBuffer(n + kMaxChunk);
    std::size_t out = 0;
    std::size_t i = 0;
    while (i < n && out < n) {
        const std::size_t limit = std::min(n, i + kMaxChunk);
        const std::size_t run = repeatEnd(in, i, limit) - i;
        if (run >= 3) {
            rle[out++] = static_cast<std::uint8_t>(257 - run);
            rle[out++] = in[i];
            i += run;
            continue;
        }
        const std::size_t j = literalEnd(in, n, i, limit);
        rle[out++] = static_cast<std::uint8_t>(j - i - 1);
        std::memcpy(rle + out, in + i, j - i);
        out += j - i;
        i = j;
    }

    // Stored fallback: an incompressible input ships verbatim, so the
    // envelope never exceeds input + header.
    const bool stored = i < n || out >= n;
    const std::size_t payload = stored ? n : out;
    MutableBlob envelope =
        BlobPool::local().acquire(kCompressHeaderBytes + payload);
    std::uint8_t *p = envelope.data();
    putU32(p, kCompressMagic);
    p[4] = stored ? kMethodStored : kMethodRle;
    p[5] = p[6] = p[7] = 0;
    putU64(p + 8, n);
    if (payload > 0)
        std::memcpy(p + kCompressHeaderBytes, stored ? in : rle, payload);
    Blob env = std::move(envelope).seal();
    noteEncode(TransformStage::Compress, n, env.size());
    return env;
}

Blob
compressDecode(const Blob &envelope)
{
    if (!envelope || envelope.size() < kCompressHeaderBytes ||
        getU32(envelope.data()) != kCompressMagic)
        return malformed("not a compress envelope");
    const std::uint8_t *p = envelope.data();
    const std::uint8_t method = p[4];
    const std::uint64_t raw64 = getU64(p + 8);
    const std::size_t raw = static_cast<std::size_t>(raw64);
    const std::uint8_t *payload = p + kCompressHeaderBytes;
    const std::size_t pn = envelope.size() - kCompressHeaderBytes;

    if (method == kMethodStored) {
        if (pn != raw)
            return malformed("stored payload size mismatch");
        MutableBlob out = BlobPool::local().acquire(raw);
        if (raw > 0)
            std::memcpy(out.data(), payload, raw);
        noteDecode(TransformStage::Compress);
        return std::move(out).seal();
    }
    if (method != kMethodRle)
        return malformed("unknown compress method");
    // A repeat run turns 2 payload bytes into at most 128: a larger
    // claim is a garbled header, rejected before it sizes the buffer.
    if (raw64 / 64 > pn)
        return malformed("RLE size claim exceeds the payload");

    MutableBlob out = BlobPool::local().acquire(raw);
    std::size_t w = 0;
    for (std::size_t r = 0; r < pn;) {
        const std::uint8_t c = payload[r++];
        if (c <= 127) {
            const std::size_t len = static_cast<std::size_t>(c) + 1;
            if (len > pn - r || len > raw - w)
                return malformed("RLE literal run overruns");
            std::memcpy(out.data() + w, payload + r, len);
            w += len;
            r += len;
        } else if (c == 128) {
            continue;
        } else {
            const std::size_t len = 257 - static_cast<std::size_t>(c);
            if (r >= pn || len > raw - w)
                return malformed("RLE repeat run overruns");
            std::memset(out.data() + w, payload[r++], len);
            w += len;
        }
    }
    if (w != raw)
        return malformed("RLE decode size mismatch");
    noteDecode(TransformStage::Compress);
    return std::move(out).seal();
}

std::uint64_t
compressRawBytes(const Blob &envelope)
{
    if (!envelope || envelope.size() < kCompressHeaderBytes ||
        getU32(envelope.data()) != kCompressMagic)
        return 0;
    return getU64(envelope.data() + 8);
}

} // namespace match::storage
