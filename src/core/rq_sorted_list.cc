#include "core/rq_sorted_list.h"

#include <algorithm>
#include <limits>

namespace xrefine::core {

double RqSortedList::AdmissionThreshold() const {
  if (!full()) return std::numeric_limits<double>::infinity();
  return entries_.back().rq.dissimilarity;
}

bool RqSortedList::CanAccept(double dissimilarity) const {
  return dissimilarity <= AdmissionThreshold();
}

bool RqSortedList::Contains(KeywordMask mask) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [mask](const Entry& e) { return e.mask == mask; });
}

RqSortedList::Entry* RqSortedList::InsertOrFind(KeywordMask mask,
                                                const RefinedQuery& rq) {
  auto found = std::find_if(entries_.begin(), entries_.end(),
                            [mask](const Entry& e) { return e.mask == mask; });
  if (found != entries_.end()) return &*found;
  if (!CanAccept(rq.dissimilarity)) return nullptr;
  // Insert sorted by dissimilarity.
  auto pos = std::upper_bound(
      entries_.begin(), entries_.end(), rq.dissimilarity,
      [](double d, const Entry& e) { return d < e.rq.dissimilarity; });
  size_t index = static_cast<size_t>(pos - entries_.begin());
  entries_.insert(pos, Entry{mask, rq, {}});
  if (entries_.size() > capacity_) {
    entries_.pop_back();
    if (index >= entries_.size()) return nullptr;  // evicted immediately
  }
  return &entries_[index];
}

}  // namespace xrefine::core
