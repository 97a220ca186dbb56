// In-memory keyword inverted lists.
#ifndef XREFINE_INDEX_INVERTED_INDEX_H_
#define XREFINE_INDEX_INVERTED_INDEX_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/string_util.h"
#include "index/flat_postings.h"

namespace xrefine::index {

class InvertedIndex {
 public:
  /// Keyword -> list, probed by string_view without allocating.
  using ListMap = std::unordered_map<std::string, FlatPostingList,
                                     StringViewHash, std::equal_to<>>;

  InvertedIndex() = default;

  /// Appends a posting to `keyword`'s list; the builder appends in document
  /// order, and the same node is recorded once per keyword (occurrence
  /// counts live in the statistics table).
  void Append(std::string_view keyword, const xml::DeweyRef& label,
              xml::TypeId type) {
    MutableList(keyword)->Append(label, type);
  }

  /// The posting list for `keyword`, or nullptr when the keyword does not
  /// occur in the corpus.
  const FlatPostingList* Find(std::string_view keyword) const {
    auto it = lists_.find(keyword);
    return it == lists_.end() ? nullptr : &it->second;
  }

  /// The mutable list for `keyword`, created empty when absent. Build and
  /// load paths only (the DAG index builder resolves each distinct keyword
  /// to its list once per shared subtree, then appends per instance without
  /// re-hashing the keyword); the pointer is stable for the index's
  /// lifetime (unordered_map nodes never move).
  FlatPostingList* MutableList(std::string_view keyword);

  bool Contains(std::string_view keyword) const {
    return Find(keyword) != nullptr;
  }

  size_t ListSize(std::string_view keyword) const {
    const FlatPostingList* list = Find(keyword);
    return list == nullptr ? 0 : list->size();
  }

  size_t keyword_count() const { return lists_.size(); }

  /// Invokes `fn` once per distinct keyword, in unspecified order — the
  /// zero-copy enumeration path (consumers sort their own snapshot when
  /// they need order).
  void ForEachKeyword(const std::function<void(std::string_view)>& fn) const {
    for (const auto& [word, unused_list] : lists_) fn(word);
  }

  /// Sorted vocabulary (materialised on demand; used by rule mining).
  std::vector<std::string> Vocabulary() const;

  const ListMap& lists() const { return lists_; }

 private:
  ListMap lists_;
};

}  // namespace xrefine::index

#endif  // XREFINE_INDEX_INVERTED_INDEX_H_
