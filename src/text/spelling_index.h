// SymSpell-style deletion-neighborhood index for approximate term matching:
// "which corpus words are within Levenshtein distance d of this term?"
// answered by hash probes instead of a vocabulary scan.
//
// Construction generates, for every vocabulary word, every string reachable
// by deleting up to `max_edit_distance` characters (the word's deletion
// neighborhood) and buckets word ids under each such variant. The key
// property (Schulz & Mihov 2002; popularised by SymSpell): if
// levenshtein(a, b) <= d, then a and b share at least one common variant
// reachable with <= d deletions from each side — an insertion in `a` is a
// deletion in `b`, and a substitution is one deletion on each side. A probe
// therefore generates the query term's own deletion neighborhood, unions
// the bucketed word ids, and verifies each survivor with the banded
// EditDistanceAtMost. Per-query cost is O(L^d) probes + O(neighborhood)
// verifications, independent of vocabulary size, versus O(|V| * L * d) for
// the scan it replaces.
//
// The index is immutable after construction and safe for concurrent reads.
#ifndef XREFINE_TEXT_SPELLING_INDEX_H_
#define XREFINE_TEXT_SPELLING_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/string_util.h"

namespace xrefine::text {

class SpellingIndex {
 public:
  /// One verified candidate: an index into the word list the index was
  /// built over, plus its exact Levenshtein distance from the probed term.
  struct Match {
    uint32_t word_id;
    int distance;
  };

  /// Builds the deletion neighborhood of every word in `words` up to
  /// `max_edit_distance` deletions. `words` must stay alive and unchanged
  /// for the index's lifetime (the owner keeps both; see VocabularyIndex).
  SpellingIndex(const std::vector<std::string>* words, int max_edit_distance);

  SpellingIndex(const SpellingIndex&) = delete;
  SpellingIndex& operator=(const SpellingIndex&) = delete;

  /// Appends every word within distance <= max_edit_distance() of `term`
  /// (including distance 0 when the term itself is a word) to `out`,
  /// ordered by ascending word_id. Distances are exact, verified with
  /// EditDistanceAtMost — the deletion neighborhood only proposes.
  void Candidates(std::string_view term, std::vector<Match>* out) const;

  int max_edit_distance() const { return max_edit_distance_; }

  // --- sizing introspection (benches, DESIGN.md numbers) ---

  /// Distinct deletion variants bucketed.
  size_t entry_count() const { return buckets_.size(); }
  /// Approximate heap footprint of the bucket table.
  size_t approximate_bytes() const;

 private:
  const std::vector<std::string>* words_;  // not owned
  int max_edit_distance_;
  // Deletion variant -> ids of words whose neighborhood contains it,
  // each list sorted ascending (words are inserted in id order). Probed
  // with string_view variants through the transparent hash.
  std::unordered_map<std::string, std::vector<uint32_t>, StringViewHash,
                     std::equal_to<>>
      buckets_;
};

/// Appends every distinct string reachable from `s` by deleting between 0
/// and `max_deletes` characters (duplicates removed, `s` itself included).
/// Exposed for the property tests; the index uses it on both sides.
void CollectDeletionNeighborhood(std::string_view s, int max_deletes,
                                 std::vector<std::string>* out);

}  // namespace xrefine::text

#endif  // XREFINE_TEXT_SPELLING_INDEX_H_
