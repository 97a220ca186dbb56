// Tests for the block-compressed posting codec (stored format v3, the only
// format a store holds): round-trips, block geometry, the skip directory,
// and — the load-bearing part — corruption fuzzing. The decode contract is
// "non-OK Status or exactly the declared postings": a truncated or
// bit-flipped record must never yield a silently short list, and a record
// in the retired v2 layout is rejected outright.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "index/posting_blocks.h"
#include "storage/serde.h"
#include "tests/test_helpers.h"

namespace xrefine::index {
namespace {

// A list of the given labels, all of type 0.
FlatPostingList ListOf(const std::vector<std::vector<uint32_t>>& labels) {
  FlatPostingList list;
  for (const auto& label : labels) list.Append(xml::Dewey(label), 0);
  return list;
}

// A random document-ordered posting list with deep chains, duplicate
// labels, and ancestor/descendant pairs in the same list.
FlatPostingList RandomList(Random& rng, size_t n, size_t max_depth) {
  FlatPostingList list;
  std::vector<uint32_t> label = {0};
  for (size_t i = 0; i < n; ++i) {
    // Random walk in document order: either descend (append components),
    // or move to a later sibling at a random depth.
    if (rng.OneIn(0.4) && label.size() < max_depth) {
      size_t grow = static_cast<size_t>(rng.Uniform(1, 3));
      for (size_t g = 0; g < grow && label.size() < max_depth; ++g) {
        label.push_back(static_cast<uint32_t>(rng.Uniform(0, 4)));
      }
    } else if (!rng.OneIn(0.2)) {  // 0.2: emit a duplicate label
      size_t cut = static_cast<size_t>(
          rng.Uniform(1, static_cast<int64_t>(label.size())));
      label.resize(cut);
      label.back() += static_cast<uint32_t>(rng.Uniform(1, 3));
    }
    list.Append(xml::Dewey(label),
                static_cast<xml::TypeId>(rng.Uniform(0, 7)));
  }
  return list;
}

void ExpectRoundTrip(const FlatPostingList& list, size_t block_capacity) {
  std::string record = EncodePostingsBlocked(list, block_capacity);
  FlatPostingList flat;
  ASSERT_TRUE(DecodePostingsFlat(record, &flat).ok());
  EXPECT_TRUE(flat == list);
  uint32_t count = 0;
  ASSERT_TRUE(DecodePostingCount(record, &count).ok());
  EXPECT_EQ(count, list.size());
}

TEST(PostingBlocksTest, RoundTripAcrossCapacities) {
  Random rng(7);
  FlatPostingList list = RandomList(rng, 1000, 12);
  for (size_t capacity : {1u, 2u, 3u, 7u, 128u, 2048u}) {
    ExpectRoundTrip(list, capacity);
  }
}

TEST(PostingBlocksTest, RoundTripEmptyList) {
  ExpectRoundTrip(FlatPostingList{}, 128);
  std::string record = EncodePostingsBlocked(FlatPostingList{});
  auto cursor_or = BlockedPostingCursor::Open(record);
  ASSERT_TRUE(cursor_or.ok());
  EXPECT_EQ(cursor_or.value().posting_count(), 0u);
  EXPECT_EQ(cursor_or.value().block_count(), 0u);
}

TEST(PostingBlocksTest, RoundTripSinglePosting) {
  ExpectRoundTrip(ListOf({{0, 3, 1}}), 128);
  // Root (depth-0) label is representable too.
  ExpectRoundTrip(ListOf({{}}), 128);
}

TEST(PostingBlocksTest, RoundTripMaxDepthLabel) {
  // A pathologically deep label (the parser's depth guard allows up to
  // 512). deep starts with 0, so document order is {0} < deep < {1}.
  std::vector<uint32_t> deep;
  for (uint32_t d = 0; d < 512; ++d) deep.push_back(d % 5);
  FlatPostingList list = ListOf({{0}, deep, {1}});
  for (size_t capacity : {1u, 2u, 128u}) ExpectRoundTrip(list, capacity);
}

TEST(PostingBlocksTest, BlockBoundaryStraddle) {
  // capacity*2+1 postings: two full blocks plus a one-posting tail, with a
  // deep shared prefix crossing the boundary so the first posting of each
  // block must re-carry the full label (blocks are self-contained).
  const size_t capacity = 4;
  FlatPostingList list;
  for (uint32_t i = 0; i < 2 * capacity + 1; ++i) {
    list.Append(xml::Dewey({0, 1, 2, 3, i}), 0);
  }
  std::string record = EncodePostingsBlocked(list, capacity);
  auto cursor_or = BlockedPostingCursor::Open(record);
  ASSERT_TRUE(cursor_or.ok());
  const auto& cursor = cursor_or.value();
  ASSERT_EQ(cursor.block_count(), 3u);
  EXPECT_EQ(cursor.block_size(0), capacity);
  EXPECT_EQ(cursor.block_size(1), capacity);
  EXPECT_EQ(cursor.block_size(2), 1u);
  EXPECT_EQ(cursor.block_first_posting(0), 0u);
  EXPECT_EQ(cursor.block_first_posting(1), capacity);
  EXPECT_EQ(cursor.block_first_posting(2), 2 * capacity);

  // Decoding only the middle block yields exactly its slice.
  FlatPostingList middle;
  ASSERT_TRUE(cursor.DecodeBlock(1, &middle).ok());
  ASSERT_EQ(middle.size(), capacity);
  for (size_t i = 0; i < capacity; ++i) {
    EXPECT_EQ(middle.label(i), list.label(capacity + i));
    EXPECT_EQ(middle.type(i), list.type(capacity + i));
  }
  ExpectRoundTrip(list, capacity);
}

TEST(PostingBlocksTest, SkipHeadersRouteEveryLabelToItsBlock) {
  Random rng(17);
  FlatPostingList list = RandomList(rng, 700, 10);
  const size_t capacity = 16;
  std::string record = EncodePostingsBlocked(list, capacity);
  auto cursor_or = BlockedPostingCursor::Open(record);
  ASSERT_TRUE(cursor_or.ok());
  const auto& cursor = cursor_or.value();

  // Each block's max label is its last posting's label.
  for (size_t b = 0; b < cursor.block_count(); ++b) {
    size_t last = cursor.block_first_posting(b) + cursor.block_size(b) - 1;
    EXPECT_EQ(cursor.block_max(b), list.label(last));
  }
  // FindBlock lands every posting's own label in a block that contains an
  // occurrence of it (duplicates may end a block, putting later copies in
  // the next one — FindBlock returns the first block whose max >= v).
  for (size_t i = 0; i < list.size(); ++i) {
    xml::DeweyRef v = list.label(i);
    size_t b = cursor.FindBlock(v);
    ASSERT_LT(b, cursor.block_count());
    FlatPostingList decoded;
    ASSERT_TRUE(cursor.DecodeBlock(b, &decoded).ok());
    bool found = false;
    for (size_t j = 0; j < decoded.size(); ++j) {
      if (decoded.label(j) == v) found = true;
    }
    EXPECT_TRUE(found) << "posting " << i << " not in block " << b;
    // No earlier block can contain it: their maxes are < v.
    if (b > 0) {
      EXPECT_LT(cursor.block_max(b - 1), v);
    }
  }
  // A label past the end of the list routes past the last block.
  xml::Dewey beyond({0xffffffff});
  EXPECT_EQ(cursor.FindBlock(xml::DeweyRef(beyond)), cursor.block_count());
}

// --- corruption fuzzing ------------------------------------------------------

// Declared posting count at the head of a record (it follows the version
// byte).
bool ReadDeclaredCount(const std::string& record, uint32_t* count) {
  if (record.empty()) return false;
  const char* p = record.data() + 1;
  return storage::GetVarint32(&p, record.data() + record.size(), count);
}

// The decode contract under arbitrary corruption: either a non-OK Status,
// or an OK decode of exactly the count the (corrupt) record declares —
// never a silently short or long list, never a crash (ASan/UBSan legs run
// this test too).
void ExpectFailsOrExactCount(const std::string& record) {
  FlatPostingList flat;
  Status st = DecodePostingsFlat(record, &flat);
  if (!st.ok()) return;
  uint32_t declared = 0;
  ASSERT_TRUE(ReadDeclaredCount(record, &declared));
  EXPECT_EQ(flat.size(), declared);
}

TEST(PostingBlocksFuzzTest, EveryTruncationFailsLoudly) {
  Random rng(27);
  std::string record = EncodePostingsBlocked(RandomList(rng, 300, 8));
  for (size_t len = 0; len < record.size(); ++len) {
    std::string truncated = record.substr(0, len);
    FlatPostingList flat;
    Status st = DecodePostingsFlat(truncated, &flat);
    // A strict prefix can never decode to the full declared count, so OK
    // is unconditionally a silent-truncation bug here.
    EXPECT_FALSE(st.ok()) << "decoded a " << len << "-byte prefix of a "
                          << record.size() << "-byte record";
  }
}

TEST(PostingBlocksFuzzTest, TrailingBytesAreRejected) {
  std::string record =
      EncodePostingsBlocked(ListOf({{0, 1}, {0, 2}})) + std::string(1, '\0');
  FlatPostingList flat;
  EXPECT_FALSE(DecodePostingsFlat(record, &flat).ok());
}

// --- the retired v2 layout --------------------------------------------------

void ExpectV2Rejected(const std::string& record) {
  ASSERT_FALSE(record.empty());
  ASSERT_EQ(record[0], 2);
  FlatPostingList flat;
  Status st = DecodePostingsFlat(record, &flat);
  EXPECT_TRUE(st.IsCorruption()) << st;
  EXPECT_EQ(st.message(), "postings: unsupported format version 2");
  EXPECT_TRUE(flat.empty());
  uint32_t count = 0;
  st = DecodePostingCount(record, &count);
  EXPECT_TRUE(st.IsCorruption()) << st;
  EXPECT_EQ(st.message(), "postings: unsupported format version 2");
}

// A well-formed v2 record (the 160-posting seed list) is a loud error,
// never an empty or partial list.
TEST(PostingBlocksFuzzTest, V2RecordIsRejected) {
  ExpectV2Rejected(testutil::PostingCorpusRecord("v2_flat"));
}

// Regression (found by fuzz_posting_decode, crash-v2-trailing-bytes): the
// retired v2 decoder accepted bytes past the declared postings. The
// minimized crasher — version 2, zero postings, two stray bytes — is now
// rejected for its version alone.
TEST(PostingBlocksFuzzTest, LegacyTrailingBytesCrasherIsRejected) {
  std::string record = testutil::PostingCorpusRecord("crash-v2-trailing-bytes");
  EXPECT_EQ(record, std::string("\x02\x00\x00\x05", 4));
  ExpectV2Rejected(record);
}

// Regression (found by fuzz_posting_decode, crash-v3-unsorted-block-max):
// FindBlock binary-searches the skip directory, so block maxes that go
// backwards would silently mis-route probes and drop postings from query
// results. Open must reject them as corruption.
TEST(PostingBlocksFuzzTest, OutOfOrderBlockMaxesAreRejected) {
  // Hand-built v3 record, all varints single-byte: two one-posting blocks
  // whose max labels are (0,5) then (0,3) — descending document order.
  auto block = [](uint32_t leaf) {
    std::string b;
    b.append("\x05\x01\x02", 3);                // payload=5, count=1, depth=2
    b += '\x00';                                // max component 0
    b += static_cast<char>(leaf);               // max component `leaf`
    b.append("\x01\x00\x02", 3);                // type=1, reuse=0, fresh=2
    b += '\x00';                                // component 0
    b += static_cast<char>(leaf);               // component `leaf`
    return b;
  };
  std::string header("\x03\x02\x01", 3);        // v3, total=2, capacity=1
  std::string sorted = header + block(3) + block(5);
  EXPECT_TRUE(BlockedPostingCursor::Open(sorted).ok());
  std::string unsorted = header + block(5) + block(3);
  EXPECT_FALSE(BlockedPostingCursor::Open(unsorted).ok());
}

TEST(PostingBlocksFuzzTest, SingleBitFlipsNeverDecodeShort) {
  Random rng(37);
  std::string record = EncodePostingsBlocked(RandomList(rng, 120, 8));
  for (size_t byte = 0; byte < record.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = record;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      ExpectFailsOrExactCount(flipped);
    }
  }
}

TEST(PostingBlocksFuzzTest, RandomMultiByteCorruption) {
  Random rng(47);
  std::string record = EncodePostingsBlocked(RandomList(rng, 400, 10));
  for (int round = 0; round < 400; ++round) {
    std::string mutated = record;
    size_t edits = static_cast<size_t>(rng.Uniform(1, 8));
    for (size_t e = 0; e < edits; ++e) {
      size_t pos = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.Uniform(0, 255));
    }
    if (rng.OneIn(0.3)) {
      mutated.resize(static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(mutated.size()))));
    }
    ExpectFailsOrExactCount(mutated);
  }
}

// Regression seeds: hand-built corruptions that target one validation each.
// These pin the exact failure modes the fuzzers above found probabilistically.

TEST(PostingBlocksFuzzTest, RegressionZeroBlockCapacity) {
  // version 3, total 0, capacity 0.
  std::string record = {3, 0, 0};
  FlatPostingList flat;
  Status st = DecodePostingsFlat(record, &flat);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption());
}

TEST(PostingBlocksFuzzTest, RegressionBlockCountsDisagreeWithTotal) {
  std::string record = EncodePostingsBlocked(ListOf({{0, 1}, {0, 2}}), 128);
  // total is the varint at offset 1 (value 2, single byte): claim 3.
  ASSERT_EQ(record[1], 2);
  record[1] = 3;
  FlatPostingList flat;
  Status st = DecodePostingsFlat(record, &flat);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption());
}

TEST(PostingBlocksFuzzTest, RegressionBlockMaxLabelMismatch) {
  // Corrupt the skip key so it disagrees with the block's decoded last
  // label: the self-check must catch it (a wrong skip key would silently
  // misroute probes).
  std::string good = EncodePostingsBlocked(ListOf({{0, 1}, {0, 2}}), 128);
  auto cursor_or = BlockedPostingCursor::Open(good);
  ASSERT_TRUE(cursor_or.ok());
  // Find the byte holding the max label's last component (value 2) in the
  // block header and nudge it. Header layout after version/total/capacity:
  // payload_bytes, count, max_depth, max components...
  bool caught = false;
  for (size_t i = 3; i < good.size(); ++i) {
    if (good[i] != 2) continue;
    std::string bad = good;
    bad[i] = 3;
    FlatPostingList flat;
    Status st = DecodePostingsFlat(bad, &flat);
    if (!st.ok()) caught = true;
  }
  EXPECT_TRUE(caught);
}

TEST(PostingBlocksFuzzTest, RegressionHostileReuseDepth) {
  // A posting claiming to reuse more prefix components than its
  // predecessor has must be rejected, not read out of bounds.
  std::string record("\x03\x01\x01", 3);  // v3, total 1, capacity 1
  record.append("\x03\x01\x00", 3);      // payload 3, count 1, max depth 0
  record.push_back(0);  // type
  record.push_back(9);  // reuse 9 components of a non-existent predecessor
  record.push_back(0);  // fresh 0
  FlatPostingList flat;
  Status st = DecodePostingsFlat(record, &flat);
  EXPECT_TRUE(st.IsCorruption()) << st;
  EXPECT_EQ(st.message(), "postings: reuse exceeds previous depth");
}

TEST(PostingBlocksFuzzTest, RegressionHostileBlockPayloadLength) {
  // A block header declaring more payload bytes than the record holds.
  std::string record;
  record.push_back(3);     // v3
  record.push_back(1);     // total 1
  record.push_back(128);   // capacity 128... must be varint-encoded
  record.back() = 0x7f;    // capacity 127 (single byte varint)
  record.push_back(0x7f);  // payload_bytes 127 — far past the record end
  record.push_back(1);     // count 1
  record.push_back(0);     // max_depth 0
  FlatPostingList flat;
  Status st = DecodePostingsFlat(record, &flat);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption());
}

// No builder emits a Dewey component of 2^32-1 (child ordinals stay below
// the node count), and the scan loops bound a partition by incrementing a
// component, which would wrap to 0 on it. The decoder rejects it in a
// block payload and in a block's max label alike.
TEST(PostingBlocksFuzzTest, RegressionMaxComponentIsRejected) {
  const std::string in_payload = testutil::MaxComponentPostingRecord(false);
  const std::string in_max_label = testutil::MaxComponentPostingRecord(true);
  for (const std::string& record : {in_payload, in_max_label}) {
    FlatPostingList flat;
    Status st = DecodePostingsFlat(record, &flat);
    EXPECT_TRUE(st.IsCorruption()) << st;
    EXPECT_EQ(st.message(), "postings: dewey component out of range");
  }
  EXPECT_FALSE(BlockedPostingCursor::Open(in_max_label).ok());
  // One below the limit is an ordinary component.
  ExpectRoundTrip(ListOf({{0, 0xfffffffe}}), 128);
}

}  // namespace
}  // namespace xrefine::index
