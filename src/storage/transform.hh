/**
 * @file
 * Checkpoint data-reduction transforms: sealed Blob in, sealed Blob out.
 *
 * The paper's cost model charges every checkpoint level by the bytes it
 * moves, so the highest-leverage lever a checkpointing stack has is to
 * move fewer bytes. This module supplies the two classic reducers as
 * pluggable stages over the zero-copy blob plane:
 *
 *  - Delta (differential checkpoints): compare the freshly serialized
 *    image against the previous epoch's sealed image at a fixed block
 *    granularity and emit only the dirty ranges, wrapped in a
 *    self-describing envelope that names the base checkpoint it applies
 *    to. Recovery follows the base links back to the last full envelope
 *    and reassembles the image. Adjacent dirty blocks coalesce into one
 *    record, so a densely-changing image degrades to a single record
 *    (full payload + ~40 bytes of framing) instead of per-block
 *    overhead, while a converged solver (miniVite's community labels)
 *    produces a near-empty delta.
 *
 *  - Compress: a PackBits-style byte RLE with a stored fallback when
 *    the input is incompressible, so the envelope never grows by more
 *    than its fixed header. No external codec dependency: the point is
 *    pricing shipped-bytes-vs-transform-CPU in virtual time, not
 *    state-of-the-art ratios. Applied in the drain stage so L4/SCR
 *    flushes ship compressed bytes.
 *
 * Envelopes are self-describing (magic + form tags + sizes) and always
 * present when the owning transform is enabled — decode is config
 * driven, never byte-sniffed, so transforms-off runs store raw bytes
 * bit-identical to the pre-transform code. Every encoder/decoder
 * validates structure; decode returns a null Blob on malformed input
 * (a recovery rung treats it like a checksum miss).
 *
 * Accounting: every encode/decode updates process-global per-stage
 * bytesIn/bytesOut counters (transformGlobalStats) that benches
 * snapshot-and-diff to prove the byte reduction.
 */

#ifndef MATCH_STORAGE_TRANSFORM_HH
#define MATCH_STORAGE_TRANSFORM_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "src/storage/blob.hh"

namespace match::storage
{

/** Which reducers a configuration enables (an experiment grid axis). */
enum class TransformKind
{
    None,          ///< raw bytes, bit-identical to the pre-transform plane
    Delta,         ///< differential checkpoints vs the previous epoch
    Compress,      ///< RLE-compress L4/SCR drain traffic
    DeltaCompress, ///< both: delta at serialize, compress at drain
};

/** Lower-case label ("none", "delta", "compress", "delta+compress"). */
const char *transformKindName(TransformKind kind);

/** Parse a transformKindName() label; false on an unknown name. */
bool parseTransformKind(const std::string &name, TransformKind &kind);

inline bool
transformHasDelta(TransformKind kind)
{
    return kind == TransformKind::Delta ||
           kind == TransformKind::DeltaCompress;
}

inline bool
transformHasCompress(TransformKind kind)
{
    return kind == TransformKind::Compress ||
           kind == TransformKind::DeltaCompress;
}

/** Encode/decode counters of one transform stage. bytesIn/bytesOut
 *  are encoder-side (the byte-reduction proof: out < in means the
 *  stage shipped fewer bytes than it was handed). */
struct TransformStats
{
    std::uint64_t bytesIn = 0;   ///< bytes entering the encoder
    std::uint64_t bytesOut = 0;  ///< envelope bytes leaving it
    std::uint64_t applies = 0;   ///< encode calls
    std::uint64_t reverses = 0;  ///< decode calls
};

/** The two stages with process-global counters. */
enum class TransformStage
{
    Delta,
    Compress,
};

/** Process-wide counters of one stage: every encode/decode in the
 *  process, across threads (drain workers included). Benches
 *  snapshot-and-diff this around a measured region. */
TransformStats transformGlobalStats(TransformStage stage);

/** Peeked header of a delta envelope. */
struct DeltaInfo
{
    bool valid = false;          ///< envelope is structurally sound
    bool isFull = false;         ///< full image, not a diff
    int baseCkptId = 0;          ///< checkpoint the diff applies to
    std::uint64_t imageBytes = 0; ///< decoded image size
};

/**
 * Encode `image` against `base` at `blockSize` granularity. Emits a
 * full envelope when `base` is null or its size differs from the
 * image's (a delta only makes sense between same-shape epochs), a
 * delta envelope naming `baseCkptId` otherwise.
 */
Blob deltaEncode(const Blob &image, const Blob &base, int baseCkptId,
                 std::size_t blockSize);

/** Validate and peek a delta envelope without decoding the payload. */
DeltaInfo deltaInspect(const Blob &envelope);

/**
 * Decode a delta envelope back to the image. Full envelopes ignore
 * `base`; delta envelopes apply their dirty records over it (the
 * caller resolves baseCkptId to the decoded base image first). Null
 * Blob on malformed input.
 */
Blob deltaDecode(const Blob &envelope, const Blob &base);

/** RLE-compress `raw` (stored fallback when incompressible). */
Blob compressEncode(const Blob &raw);

/** Undo compressEncode(). Null Blob on malformed input. */
Blob compressDecode(const Blob &envelope);

/** Decoded size a compress envelope claims (0 when malformed) — for
 *  pricing a decompression without performing it. */
std::uint64_t compressRawBytes(const Blob &envelope);

/**
 * Differential-checkpoint stage. Holds the reference image (the
 * previous epoch's full serialized image) and the checkpoint id that
 * stored it; apply() emits a delta against the reference — or a full
 * envelope when there is none — and the owner then promotes the new
 * image with setReference(). Clearing the reference forces the next
 * apply() full (the rebase cadence lives in the owner, which also
 * tracks which stored checkpoints the live chain still needs).
 */
class DeltaTransform
{
  public:
    /** `blockSize` is the dirty-scan granularity: adjacent dirty
     *  blocks coalesce into one record, so small blocks cost framing
     *  only where the image is sparsely dirty. */
    explicit DeltaTransform(std::size_t blockSize = 256)
        : blockSize_(blockSize)
    {}

    bool hasReference() const { return static_cast<bool>(ref_); }
    int referenceCkptId() const { return refCkptId_; }
    std::size_t referenceSize() const { return ref_.size(); }

    void
    setReference(Blob image, int ckptId)
    {
        ref_ = std::move(image);
        refCkptId_ = ckptId;
    }

    void
    clearReference()
    {
        ref_ = Blob();
        refCkptId_ = 0;
    }

    /** Encode `input` against the reference (full when none). */
    Blob
    apply(const Blob &input)
    {
        return deltaEncode(input, ref_, refCkptId_, blockSize_);
    }

  private:
    std::size_t blockSize_;
    Blob ref_;
    int refCkptId_ = 0;
};

} // namespace match::storage

#endif // MATCH_STORAGE_TRANSFORM_HH
