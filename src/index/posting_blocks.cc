#include "index/posting_blocks.h"

#include <algorithm>

#include "storage/serde.h"

namespace xrefine::index {

namespace {

using storage::GetVarint32;
using storage::PutVarint32;

constexpr uint8_t kFormatBlocked = 3;

// A label component no valid record holds (see the header comment).
constexpr uint32_t kMaxComponent = 0xffffffffu;

// Appends one posting to `dst` in prefix-delta form: `reuse` leading
// components are shared with the previous posting in the block (0 for a
// block's first posting).
void PutDeltaPosting(std::string* dst, const xml::DeweyRef& label,
                     xml::TypeId type, uint32_t reuse) {
  PutVarint32(dst, type);
  PutVarint32(dst, reuse);
  PutVarint32(dst, label.len - reuse);
  for (uint32_t d = reuse; d < label.len; ++d) PutVarint32(dst, label[d]);
}

// Reads a record's version byte, which must be kFormatBlocked, and the
// total posting count after it.
Status ReadRecordHead(const char** p, const char* limit, uint32_t* total) {
  if (*p >= limit) return Status::Corruption("postings: empty record");
  uint8_t version = static_cast<uint8_t>(*(*p)++);
  if (version != kFormatBlocked) {
    return Status::Corruption("postings: unsupported format version " +
                              std::to_string(version));
  }
  if (!GetVarint32(p, limit, total)) {
    return Status::Corruption("postings: bad count");
  }
  return Status::OK();
}

// Reads one label component, rejecting kMaxComponent.
Status GetComponent(const char** p, const char* limit, uint32_t* c) {
  if (!GetVarint32(p, limit, c)) {
    return Status::Corruption("postings: truncated dewey");
  }
  if (*c == kMaxComponent) {
    return Status::Corruption("postings: dewey component out of range");
  }
  return Status::OK();
}

// Decodes one block's `count` prefix-delta postings from
// [*p, payload_limit) into `out`.
Status DecodeDeltaRun(const char** p, const char* payload_limit, uint32_t count,
                      FlatPostingList* out) {
  std::vector<uint32_t> label;  // the previous posting's label
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t type = 0;
    uint32_t reuse = 0;
    uint32_t fresh = 0;
    if (!GetVarint32(p, payload_limit, &type) ||
        !GetVarint32(p, payload_limit, &reuse) ||
        !GetVarint32(p, payload_limit, &fresh)) {
      return Status::Corruption("postings: truncated header");
    }
    if (reuse > label.size()) {
      return Status::Corruption("postings: reuse exceeds previous depth");
    }
    label.resize(reuse);
    for (uint32_t d = 0; d < fresh; ++d) {
      uint32_t c = 0;
      XREFINE_RETURN_IF_ERROR(GetComponent(p, payload_limit, &c));
      label.push_back(c);
    }
    out->Append(
        xml::DeweyRef(label.data(), static_cast<uint32_t>(label.size())), type);
  }
  return Status::OK();
}

}  // namespace

std::string EncodePostingsBlocked(const FlatPostingList& list,
                                  size_t block_capacity) {
  if (block_capacity == 0) block_capacity = kDefaultPostingBlockCapacity;
  std::string out;
  out.push_back(static_cast<char>(kFormatBlocked));
  PutVarint32(&out, static_cast<uint32_t>(list.size()));
  PutVarint32(&out, static_cast<uint32_t>(block_capacity));
  std::string payload;
  for (size_t begin = 0; begin < list.size(); begin += block_capacity) {
    size_t end = std::min(begin + block_capacity, list.size());
    payload.clear();
    for (size_t i = begin; i < end; ++i) {
      size_t reuse = i == begin ? 0
                                : xml::CommonPrefixDepth(list.label(i - 1),
                                                         list.label(i));
      PutDeltaPosting(&payload, list.label(i), list.type(i),
                      static_cast<uint32_t>(reuse));
    }
    PutVarint32(&out, static_cast<uint32_t>(payload.size()));
    PutVarint32(&out, static_cast<uint32_t>(end - begin));
    xml::DeweyRef max = list.label(end - 1);
    PutVarint32(&out, max.len);
    for (uint32_t d = 0; d < max.len; ++d) PutVarint32(&out, max[d]);
    out += payload;
  }
  return out;
}

StatusOr<BlockedPostingCursor> BlockedPostingCursor::Open(
    std::string_view data) {
  BlockedPostingCursor cursor;
  cursor.data_ = data;
  const char* p = data.data();
  const char* limit = data.data() + data.size();
  uint32_t total = 0;
  XREFINE_RETURN_IF_ERROR(ReadRecordHead(&p, limit, &total));
  uint32_t capacity = 0;
  if (!GetVarint32(&p, limit, &capacity)) {
    return Status::Corruption("postings: bad record header");
  }
  if (capacity == 0) {
    return Status::Corruption("postings: zero block capacity");
  }
  cursor.posting_count_ = total;
  uint64_t seen = 0;
  while (p < limit) {
    BlockMeta meta;
    uint32_t payload_bytes = 0;
    uint32_t count = 0;
    uint32_t max_depth = 0;
    if (!GetVarint32(&p, limit, &payload_bytes) ||
        !GetVarint32(&p, limit, &count) ||
        !GetVarint32(&p, limit, &max_depth)) {
      return Status::Corruption("postings: truncated block header");
    }
    if (count == 0 || count > capacity) {
      return Status::Corruption("postings: bad block count");
    }
    // A max label deeper than the remaining bytes could encode is hostile
    // (each component costs >= 1 byte) — reject before reserving.
    if (max_depth > static_cast<size_t>(limit - p)) {
      return Status::Corruption("postings: block max depth exceeds record");
    }
    meta.max_offset = static_cast<uint32_t>(cursor.max_components_.size());
    meta.max_len = max_depth;
    for (uint32_t d = 0; d < max_depth; ++d) {
      uint32_t c = 0;
      XREFINE_RETURN_IF_ERROR(GetComponent(&p, limit, &c));
      cursor.max_components_.push_back(c);
    }
    if (payload_bytes > static_cast<size_t>(limit - p)) {
      return Status::Corruption("postings: block payload exceeds record");
    }
    // Each posting costs at least 3 bytes (three one-byte varints).
    if (count > payload_bytes / 3) {
      return Status::Corruption("postings: block count exceeds payload");
    }
    meta.payload_offset = static_cast<size_t>(p - data.data());
    meta.payload_bytes = payload_bytes;
    meta.count = count;
    meta.first = static_cast<size_t>(seen);
    seen += count;
    p += payload_bytes;
    cursor.blocks_.push_back(meta);
    // The skip directory is only usable if block maxes are in document
    // order — FindBlock binary-searches them. A record whose maxes go
    // backwards would not crash, it would silently mis-route probes and
    // drop postings from query results, so treat it as corruption here.
    const size_t b = cursor.blocks_.size() - 1;
    if (b > 0 && cursor.block_max(b) < cursor.block_max(b - 1)) {
      return Status::Corruption("postings: block max labels out of order");
    }
  }
  if (seen != total) {
    return Status::Corruption("postings: block counts sum to " +
                              std::to_string(seen) + ", record declares " +
                              std::to_string(total));
  }
  return cursor;
}

size_t BlockedPostingCursor::FindBlock(const xml::DeweyRef& v) const {
  size_t lo = 0;
  size_t hi = blocks_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (block_max(mid) < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Status BlockedPostingCursor::DecodeBlock(size_t b, FlatPostingList* out) const {
  const BlockMeta& meta = blocks_[b];
  const char* p = data_.data() + meta.payload_offset;
  const char* payload_limit = p + meta.payload_bytes;
  XREFINE_RETURN_IF_ERROR(DecodeDeltaRun(&p, payload_limit, meta.count, out));
  if (p != payload_limit) {
    return Status::Corruption("postings: block payload has trailing bytes");
  }
  // The decoded last label must match the header's skip key, or the skip
  // directory would silently route probes past real postings.
  if (out->empty() || out->label(out->size() - 1) != block_max(b)) {
    return Status::Corruption("postings: block max label mismatch");
  }
  return Status::OK();
}

Status BlockedPostingCursor::DecodeAll(FlatPostingList* out) const {
  for (size_t b = 0; b < blocks_.size(); ++b) {
    XREFINE_RETURN_IF_ERROR(DecodeBlock(b, out));
  }
  return Status::OK();
}

Status DecodePostingCount(std::string_view data_prefix, uint32_t* count) {
  const char* p = data_prefix.data();
  return ReadRecordHead(&p, data_prefix.data() + data_prefix.size(), count);
}

Status DecodePostingsFlat(std::string_view data, FlatPostingList* out) {
  auto cursor_or = BlockedPostingCursor::Open(data);
  if (!cursor_or.ok()) return cursor_or.status();
  out->Reserve(out->size() + cursor_or.value().posting_count(), 0);
  return cursor_or.value().DecodeAll(out);
}

}  // namespace xrefine::index
