// VocabularyIndex: the immutable, shareable vocabulary-derived structures
// rule mining needs — the sorted word list, the Porter-stem index, the
// dictionary segmenter, and the deletion-neighborhood spelling index.
//
// Before this existed every RuleGenerator (one per XRefine engine) copied
// the whole vocabulary out of its IndexSource and rebuilt all three
// structures; N engines serving one store paid N builds and N resident
// copies. Now the structures are built once into a shared_ptr snapshot
// (IndexSource::VocabularyIndexSnapshot caches one per edit distance) and
// every engine over the same source aliases it.
#ifndef XREFINE_TEXT_VOCABULARY_INDEX_H_
#define XREFINE_TEXT_VOCABULARY_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/string_util.h"
#include "text/segmenter.h"
#include "text/spelling_index.h"

namespace xrefine::text {

/// Immutable after Build(); safe for concurrent reads from any number of
/// threads with no synchronisation.
class VocabularyIndex {
 public:
  /// Builds every structure over `words` (need not be sorted; duplicates
  /// are dropped). `max_edit_distance` sizes the spelling index's deletion
  /// neighborhoods.
  static std::shared_ptr<const VocabularyIndex> Build(
      std::vector<std::string> words, int max_edit_distance);

  VocabularyIndex(const VocabularyIndex&) = delete;
  VocabularyIndex& operator=(const VocabularyIndex&) = delete;

  /// Sorted, deduplicated vocabulary. SpellingIndex::Match::word_id and the
  /// stem index's ids index into this vector.
  const std::vector<std::string>& words() const { return words_; }

  /// Ids of the words sharing `stem`, ascending (so variants enumerate in
  /// sorted word order); nullptr when no word has that stem.
  const std::vector<uint32_t>* StemVariants(std::string_view stem) const {
    auto it = stem_index_.find(stem);
    return it == stem_index_.end() ? nullptr : &it->second;
  }

  const Segmenter& segmenter() const { return *segmenter_; }
  const SpellingIndex& spelling() const { return *spelling_; }

 private:
  VocabularyIndex() = default;

  std::vector<std::string> words_;
  // Porter stem -> ids of words sharing it, ascending.
  std::unordered_map<std::string, std::vector<uint32_t>, StringViewHash,
                     std::equal_to<>>
      stem_index_;
  std::unique_ptr<Segmenter> segmenter_;
  std::unique_ptr<SpellingIndex> spelling_;
};

}  // namespace xrefine::text

#endif  // XREFINE_TEXT_VOCABULARY_INDEX_H_
