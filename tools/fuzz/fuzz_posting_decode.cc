// Fuzz surface: stored posting records — the one decoder
// (DecodePostingsFlat), the cheap count-only header read, and the lazy
// BlockedPostingCursor (Open → FindBlock probes → DecodeBlock → DecodeAll)
// with probe sequences drawn from the input. Invariants checked:
//  * no decoder reads outside the record or loops forever;
//  * every decode is non-OK or yields exactly the declared posting count,
//    and the count-only read agrees with it;
//  * only format version 3 decodes: a record in any other layout (the
//    retired v2 among them) is rejected by every entry point;
//  * cursor block sizes sum to posting_count(), and block-by-block decode
//    matches DecodeAll.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "index/flat_postings.h"
#include "index/posting_blocks.h"
#include "tools/fuzz/fuzz_driver.h"
#include "xml/dewey.h"

namespace {

using xrefine::fuzz::ByteReader;

void Require(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "posting-decode invariant violated: %s\n", what);
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  ByteReader in(data, size);
  // A handful of probe choices off the front; the rest is the record.
  uint32_t probe_a = in.U32();
  uint32_t probe_b = in.U32();
  std::string_view record = in.Rest();

  xrefine::index::FlatPostingList flat;
  bool flat_ok = xrefine::index::DecodePostingsFlat(record, &flat).ok();

  uint32_t declared = 0;
  bool count_ok = xrefine::index::DecodePostingCount(record, &declared).ok();
  if (flat_ok) {
    Require(count_ok, "full decode succeeded but count-only read failed");
    Require(declared == flat.size(),
            "decoded posting count differs from declared count");
  }
  if (!record.empty() && record[0] != 3) {
    Require(!flat_ok && !count_ok, "a record of another format decoded");
  }

  auto cursor_or = xrefine::index::BlockedPostingCursor::Open(record);
  if (!cursor_or.ok()) {
    Require(!flat_ok, "Open rejected a record the decoder accepted");
    return 0;
  }
  const auto& cursor = cursor_or.value();

  size_t total = 0;
  for (size_t b = 0; b < cursor.block_count(); ++b) {
    Require(cursor.block_first_posting(b) == total,
            "block first-posting index out of step");
    total += cursor.block_size(b);
  }
  Require(total == cursor.posting_count(),
          "block sizes do not sum to the record's posting count");

  // Probe labels derived from the input: FindBlock must stay in range and
  // agree with a linear scan of the block-max directory.
  uint32_t comps[4] = {probe_a, probe_b, probe_a ^ probe_b, probe_b >> 3};
  for (uint32_t len = 0; len <= 4; ++len) {
    xrefine::xml::DeweyRef probe(comps, len);
    size_t found = cursor.FindBlock(probe);
    Require(found <= cursor.block_count(), "FindBlock out of range");
    for (size_t b = 0; b < cursor.block_count(); ++b) {
      bool contains = !(cursor.block_max(b) < probe);
      Require(contains == (b >= found),
              "FindBlock disagrees with the block-max directory");
    }
  }

  // Block-at-a-time decode must reproduce DecodeAll exactly — and if the
  // decoder rejected the record, some block must fail too.
  xrefine::index::FlatPostingList by_block;
  bool all_blocks_ok = true;
  for (size_t b = 0; b < cursor.block_count(); ++b) {
    if (!cursor.DecodeBlock(b, &by_block).ok()) {
      all_blocks_ok = false;
      break;
    }
  }
  xrefine::index::FlatPostingList all;
  bool decode_all_ok = cursor.DecodeAll(&all).ok();
  Require(all_blocks_ok == decode_all_ok,
          "DecodeBlock loop and DecodeAll disagree on validity");
  Require(decode_all_ok == flat_ok,
          "DecodeAll and DecodePostingsFlat disagree on validity");
  if (decode_all_ok) {
    Require(all.size() == cursor.posting_count(),
            "DecodeAll did not yield the declared posting count");
    Require(by_block.size() == all.size(),
            "block-at-a-time decode yields a different count than DecodeAll");
    for (size_t i = 0; i < all.size(); ++i) {
      Require(by_block.label(i) == all.label(i) &&
                  by_block.type(i) == all.type(i),
              "block-at-a-time decode diverges from DecodeAll");
    }
  }
  return 0;
}
