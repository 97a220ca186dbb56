// Block-compressed posting-list codec: stored format version 3, the only
// format a store holds. Any other version byte — including the flat
// prefix-delta version 2 that stores once used — is Corruption.
//
// A record is a sequence of fixed-capacity blocks of prefix-delta postings.
// Each block is self-contained (its first posting carries the full label)
// and headed by its byte length, posting count, and max Dewey label, so a
// reader can skip whole blocks — either to decode lazily block by block, or
// to jump straight to the block that could contain a probe label without
// decoding anything before it. Layout:
//
//   byte    version            (= 3)
//   varint  total posting count
//   varint  block capacity     (postings per full block; last may be short)
//   blocks, back to back:
//     varint  payload bytes    (encoded size of this block's postings)
//     varint  posting count    (1 .. block capacity)
//     varint  max-label depth, then that many varint components
//     payload: per posting — varint type, varint reuse, varint fresh,
//              `fresh` varint components (prefix-delta vs the previous
//              posting IN THIS BLOCK; the first posting has reuse 0)
//
// Every count and length is validated against the remaining bytes, a block
// must decode to exactly its declared posting count consuming exactly its
// declared payload bytes, the per-block counts must sum to the record's
// total, trailing bytes after the last block are corruption, and so is a
// label component of 2^32-1 (no builder emits one: child ordinals stay
// below the node count, and the scan loops bound a partition by
// incrementing a component) — a truncated or bit-flipped record yields a
// non-OK Status, never a silently short list.
#ifndef XREFINE_INDEX_POSTING_BLOCKS_H_
#define XREFINE_INDEX_POSTING_BLOCKS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "index/flat_postings.h"
#include "xml/dewey.h"

namespace xrefine::index {

/// Postings per block. 128 keeps a decoded block (~a few KiB) inside L1/L2
/// while making the skip directory ~1% of the posting count.
inline constexpr size_t kDefaultPostingBlockCapacity = 128;

/// Encodes `list` in the block format.
std::string EncodePostingsBlocked(
    const FlatPostingList& list,
    size_t block_capacity = kDefaultPostingBlockCapacity);

/// Lazy reader over an encoded block record. Opening parses only the record
/// header and the per-block headers (payload length, count, max label) into
/// a skip directory; payloads are decoded on demand, one block at a time,
/// instead of materialising the whole list. `data` must outlive the
/// cursor.
class BlockedPostingCursor {
 public:
  /// Validates headers and builds the skip directory. Rejects non-v3
  /// records, truncated headers, counts that disagree with the total, and
  /// trailing bytes.
  [[nodiscard]] static StatusOr<BlockedPostingCursor> Open(
      std::string_view data);

  size_t posting_count() const { return posting_count_; }
  size_t block_count() const { return blocks_.size(); }

  /// Max (last) label of block `b` — the skip key: a probe label v belongs
  /// in the first block whose max is >= v.
  xml::DeweyRef block_max(size_t b) const {
    const BlockMeta& m = blocks_[b];
    return xml::DeweyRef(max_components_.data() + m.max_offset, m.max_len);
  }
  /// Number of postings in block `b`.
  size_t block_size(size_t b) const { return blocks_[b].count; }
  /// Index of the first posting of block `b` within the whole list.
  size_t block_first_posting(size_t b) const { return blocks_[b].first; }

  /// First block whose max label is >= `v` (block_count() when every block
  /// ends before v). Binary search over the skip directory only.
  size_t FindBlock(const xml::DeweyRef& v) const;

  /// Decodes block `b`'s payload, appending its postings to `out`.
  /// Validates that the payload decodes to exactly the declared count and
  /// consumes exactly the declared bytes.
  [[nodiscard]] Status DecodeBlock(size_t b, FlatPostingList* out) const;

  /// Decodes every block in order (the eager path DecodePostingsFlat uses).
  [[nodiscard]] Status DecodeAll(FlatPostingList* out) const;

 private:
  struct BlockMeta {
    size_t payload_offset;  // into data_
    size_t payload_bytes;
    uint32_t count;
    size_t first;        // index of the block's first posting in the list
    uint32_t max_offset;  // into max_components_
    uint32_t max_len;
  };

  BlockedPostingCursor() = default;

  std::string_view data_;
  size_t posting_count_ = 0;
  std::vector<BlockMeta> blocks_;
  std::vector<uint32_t> max_components_;  // all block-max labels, flattened
};

/// Reads only the posting count from a record's first bytes (the version
/// byte plus one varint — at most 6 bytes of input), without decoding the
/// list. Used to size vocabularies cheaply. Rejects every version but 3,
/// as DecodePostingsFlat does.
[[nodiscard]] Status DecodePostingCount(std::string_view data_prefix,
                                        uint32_t* count);

/// Decodes a stored posting record straight into the columnar layout with
/// zero per-posting allocations, appending to `out`: the one decoder, used
/// by the store-backed source and LoadCorpus alike.
[[nodiscard]] Status DecodePostingsFlat(std::string_view data,
                                        FlatPostingList* out);

}  // namespace xrefine::index

#endif  // XREFINE_INDEX_POSTING_BLOCKS_H_
