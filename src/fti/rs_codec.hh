/**
 * @file
 * Reed-Solomon erasure codec over GF(2^8) for FTI's L3 checkpoint level.
 *
 * A stripe is a group of k equally-sized data shards (one per group
 * member's checkpoint file, zero-padded to the longest). Encoding
 * produces m parity shards such that the stripe survives the loss of any
 * m shards (FTI: "the breakdown of half of the nodes within a checkpoint
 * encoding group").
 */

#ifndef MATCH_FTI_RS_CODEC_HH
#define MATCH_FTI_RS_CODEC_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "src/storage/blob.hh"

namespace match::fti
{

/** Reed-Solomon codec for a fixed (k data, m parity) geometry. */
class RsCodec
{
  public:
    /**
     * @param k number of data shards (group size), k >= 1
     * @param m number of parity shards, m >= 0, k + m <= 255
     */
    RsCodec(int k, int m);

    int dataShards() const { return k_; }
    int parityShards() const { return m_; }

    /** A borrowed, possibly short, data shard (pointer + length). */
    using ShardView = std::pair<const std::uint8_t *, std::size_t>;

    /**
     * Encode parity shards from k equal-length data shards.
     * @param data k shards, all the same size
     * @return m parity shards of the same size
     */
    std::vector<std::vector<std::uint8_t>>
    encode(const std::vector<std::vector<std::uint8_t>> &data) const;

    /**
     * Encode from borrowed shard views without copying or padding:
     * each view shorter than `stripe` is treated as zero-padded to it
     * (zero bytes contribute nothing to parity, so the padding is
     * never materialized).
     *
     * The pass is fused and cache-blocked: each data shard block is
     * streamed once while all m parity rows are updated (the first
     * contribution per block seeds the row via gf256::mulCopy), on top
     * of whatever GF(256) kernel the runtime dispatch selected.
     * Results are bit-identical for every kernel and any block size.
     *
     * @param data k views, none longer than stripe
     * @return m parity shards of `stripe` bytes
     */
    std::vector<std::vector<std::uint8_t>>
    encode(const std::vector<ShardView> &data, std::size_t stripe) const;

    /**
     * Same fused pass, but the m parity rows are built directly in
     * pooled buffers and returned as sealed blobs, ready for a
     * zero-copy write into the storage backend.
     * Bit-identical to the vector overloads for every kernel.
     */
    std::vector<storage::Blob>
    encode(const std::vector<ShardView> &data, std::size_t stripe,
           storage::BlobPool &pool) const;

    /**
     * Reconstruct the full set of k data shards from any k survivors.
     *
     * @param shards k+m entries indexed by shard id (0..k-1 data,
     *               k..k+m-1 parity); a missing shard is nullopt
     * @return the k data shards, or empty when fewer than k survive
     */
    std::vector<std::vector<std::uint8_t>>
    reconstruct(const std::vector<std::optional<std::vector<std::uint8_t>>>
                    &shards) const;

  private:
    int k_;
    int m_;
    /** (k+m) x k systematic encoding matrix; top k rows are identity. */
    std::vector<std::uint8_t> encodeMatrix_;

    std::uint8_t enc(int row, int col) const;

    /** The fused cache-blocked pass shared by the encode overloads;
     *  `rows` are m pre-zeroed parity buffers of `stripe` bytes. */
    void encodeInto(const std::vector<ShardView> &data,
                    std::size_t stripe,
                    std::uint8_t *const *rows) const;
};

} // namespace match::fti

#endif // MATCH_FTI_RS_CODEC_HH
