// RQSortedList (Section VI-B): the bounded candidate list the Partition and
// SLE algorithms maintain while scanning — up to `capacity` refined queries
// ordered by dissimilarity, with accumulation of per-partition SLCA results.
// Entries are keyed on the refined query's KeywordMask (its keyword set as
// a bitmask over the query's keyword universe): membership is an integer
// compare against at most `capacity` (= 2K) entries, with no string keys.
// An evicted keyword set leaves no trace, so re-offering it later is a
// fresh insertion.
#ifndef XREFINE_CORE_RQ_SORTED_LIST_H_
#define XREFINE_CORE_RQ_SORTED_LIST_H_

#include <vector>

#include "core/refined_query.h"

namespace xrefine::core {

class RqSortedList {
 public:
  struct Entry {
    KeywordMask mask = 0;  // rq.keywords as a mask; the entry's identity
    RefinedQuery rq;
    std::vector<slca::SlcaResult> results;
  };

  explicit RqSortedList(size_t capacity) : capacity_(capacity) {}

  size_t size() const { return entries_.size(); }
  bool full() const { return entries_.size() >= capacity_; }

  /// Dissimilarity of the worst retained candidate (infinity when not yet
  /// full) — the admission threshold of Algorithm 2 line 12 and the
  /// early-stop bound of Algorithm 3.
  double AdmissionThreshold() const;

  /// True when a candidate with this dissimilarity could enter (or already
  /// is in) the list.
  bool CanAccept(double dissimilarity) const;

  bool Contains(KeywordMask mask) const;

  /// Finds the entry keyed on `mask`, or inserts `rq` under it (evicting
  /// the worst entry when over capacity). Returns the entry SLCA results
  /// are appended to, or nullptr iff the candidate was rejected or evicted
  /// at once. A found entry keeps its first RefinedQuery.
  Entry* InsertOrFind(KeywordMask mask, const RefinedQuery& rq);

  /// Entries by ascending dissimilarity.
  const std::vector<Entry>& entries() const { return entries_; }
  std::vector<Entry>& mutable_entries() { return entries_; }

 private:
  size_t capacity_;
  std::vector<Entry> entries_;  // kept sorted by rq.dissimilarity
};

}  // namespace xrefine::core

#endif  // XREFINE_CORE_RQ_SORTED_LIST_H_
