// Dictionary-driven word segmentation, the engine behind term-split rules:
// a user who typed "skylinecomputation" meant {skyline, computation}
// (paper Section III-B, rule r7 and query Q_X2).
#ifndef XREFINE_TEXT_SEGMENTER_H_
#define XREFINE_TEXT_SEGMENTER_H_

#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/string_util.h"

namespace xrefine::text {

/// Splits merged tokens against a vocabulary.
class Segmenter {
 public:
  // Transparent hashing lets the DP in Segment() probe with string_view
  // substrings directly — no per-probe std::string allocation in the
  // O(n * 64) inner loop.
  using Vocabulary =
      std::unordered_set<std::string, StringViewHash, std::equal_to<>>;

  explicit Segmenter(Vocabulary vocabulary, size_t min_piece_length = 2)
      : vocabulary_(std::move(vocabulary)),
        min_piece_length_(min_piece_length) {}

  /// Segments `token` into >= 2 vocabulary words using the fewest pieces
  /// (dynamic program over split positions). Returns an empty vector when
  /// no full segmentation exists. A token that is itself a vocabulary word
  /// is NOT segmented (it needs no refinement).
  std::vector<std::string> Segment(std::string_view token) const;

  bool InVocabulary(std::string_view word) const {
    return vocabulary_.find(word) != vocabulary_.end();
  }

 private:
  Vocabulary vocabulary_;
  size_t min_piece_length_;
};

}  // namespace xrefine::text

#endif  // XREFINE_TEXT_SEGMENTER_H_
