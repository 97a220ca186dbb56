#include "index/inverted_index.h"

#include <algorithm>

namespace xrefine::index {

FlatPostingList* InvertedIndex::MutableList(std::string_view keyword) {
  auto it = lists_.find(keyword);
  if (it == lists_.end()) it = lists_.try_emplace(std::string(keyword)).first;
  return &it->second;
}

std::vector<std::string> InvertedIndex::Vocabulary() const {
  std::vector<std::string> words;
  words.reserve(lists_.size());
  for (const auto& [word, _] : lists_) words.push_back(word);
  std::sort(words.begin(), words.end());
  return words;
}

}  // namespace xrefine::index
