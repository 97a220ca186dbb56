#include "slca/slca.h"

namespace xrefine::slca {

std::vector<SlcaResult> ComputeSlca(const std::vector<PostingSpan>& lists,
                                    const xml::NodeTypeTable& types,
                                    SlcaAlgorithm algorithm) {
  internal::Metrics().calls->Increment();
  switch (algorithm) {
    case SlcaAlgorithm::kStack:
      return StackSlca(lists, types);
    case SlcaAlgorithm::kScanEager:
      return ScanEagerSlca(lists, types);
    case SlcaAlgorithm::kIndexedLookup:
      return IndexedLookupEagerSlca(lists, types);
  }
  return {};
}

std::vector<SlcaResult> ComputeSlcaForQuery(
    const std::vector<std::string>& query, const index::InvertedIndex& index,
    const xml::NodeTypeTable& types, SlcaAlgorithm algorithm) {
  std::vector<PostingSpan> lists;
  lists.reserve(query.size());
  for (const std::string& k : query) {
    const index::FlatPostingList* list = index.Find(k);
    if (list == nullptr) return {};  // conjunctive semantics
    lists.emplace_back(*list);
  }
  return ComputeSlca(lists, types, algorithm);
}

StatusOr<std::vector<SlcaResult>> ComputeSlcaForQuery(
    const std::vector<std::string>& query, const index::IndexSource& source,
    const xml::NodeTypeTable& types, SlcaAlgorithm algorithm) {
  // The handles pin every fetched list until the spans are done scanning.
  std::vector<index::PostingListHandle> pins;
  std::vector<PostingSpan> lists;
  pins.reserve(query.size());
  lists.reserve(query.size());
  for (const std::string& k : query) {
    auto handle_or = source.FetchList(k);
    if (!handle_or.ok()) return handle_or.status();
    index::PostingListHandle handle = std::move(handle_or).value();
    if (!handle) return std::vector<SlcaResult>{};  // conjunctive semantics
    lists.emplace_back(*handle);
    pins.push_back(std::move(handle));
  }
  return ComputeSlca(lists, types, algorithm);
}

}  // namespace xrefine::slca
