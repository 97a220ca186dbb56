#include "core/partition_refine.h"

#include <iterator>

#include "common/logging.h"
#include "core/rq_sorted_list.h"

namespace xrefine::core {

RefineOutcome PartitionRefine(const index::IndexSource& corpus,
                              const RefineInput& input,
                              const PartitionRefineOptions& options) {
  RefineStats stats;
  if (Status s = RefinableStatus(input); !s.ok()) return FailedOutcome(s);
  const size_t m = input.lists.size();
  const size_t candidate_budget = 2 * options.top_k;
  RqSortedList rq_list(candidate_budget);

  // Advantage (3) of the paper: partitions witnessing the same keyword set
  // share one getTopOptimalRQ evaluation.
  DpMemo dp(input, candidate_budget);

  // One forward cursor per list; the scratch spans are reused by every
  // partition, so the loop below allocates only for SLCA results.
  std::vector<size_t> cursors(m, 0);
  std::vector<slca::PostingSpan> partition_spans(m);
  std::vector<slca::PostingSpan> rq_spans;
  while (true) {
    // Deadline/cancel poll at partition granularity: one clock read per
    // partition, never mid-SLCA.
    if (input.Stopped()) return StoppedOutcome(stats);
    // Smallest head across the lists (line 5).
    int smallest = -1;
    for (size_t i = 0; i < m; ++i) {
      if (cursors[i] >= input.lists[i].size) continue;
      if (smallest < 0 ||
          input.lists[i].label(cursors[i]) <
              input.lists[static_cast<size_t>(smallest)].label(
                  cursors[static_cast<size_t>(smallest)])) {
        smallest = static_cast<int>(i);
      }
    }
    if (smallest < 0) break;
    const xml::DeweyRef v = input.lists[static_cast<size_t>(smallest)].label(
        cursors[static_cast<size_t>(smallest)]);

    // Document partition of v (Definition 6.1): the subtree under the
    // root's child, i.e. the depth-2 prefix (the root label itself when v
    // is the root). Every cursor already sits at or past v, the smallest
    // head, so the partition runs from each cursor to this bound.
    uint32_t bound[2];
    const xml::DeweyRef upper = PartitionEnd(v, bound);
    ++stats.partitions_visited;

    // Restrict every list to this partition and advance the cursors past
    // it (lines 7-8; the one-time scan). Galloping from the cursor costs
    // O(log n) in the partition's postings, not in the whole list.
    KeywordMask witnessed = 0;
    for (size_t i = 0; i < m; ++i) {
      const slca::PostingSpan& list = input.lists[i];
      const size_t begin = cursors[i];
      XR_DCHECK(begin == 0 || list.label(begin - 1) < upper);
      const size_t end = slca::GallopLowerBound(list, begin, upper);
      partition_spans[i] = list.Sub(begin, end - begin);
      cursors[i] = end;
      if (end > begin) witnessed |= KeywordBit(i);
    }
    XR_DCHECK(witnessed & KeywordBit(static_cast<size_t>(smallest)));

    // Top-2K candidate refinements for this partition (line 10), computed
    // once per distinct witnessed keyword set.
    const std::vector<KeyedRq>& candidates = dp.TopRqs(witnessed, &stats);

    size_t pruned = 0;
    for (const KeyedRq& c : candidates) {
      ++stats.candidates_enumerated;
      if (options.prune_partitions && !rq_list.Contains(c.mask) &&
          !rq_list.CanAccept(c.rq.dissimilarity)) {
        ++pruned;
        ++stats.candidates_pruned;
        continue;  // cannot enter the top-2K: skip its SLCA work
      }
      // SLCA of RQ within this partition (line 16), with any baseline.
      rq_spans.clear();
      for (uint32_t id : c.ids) {
        XR_DCHECK(witnessed & KeywordBit(id));
        rq_spans.push_back(partition_spans[id]);
      }
      ++stats.slca_calls;
      std::vector<slca::SlcaResult> results = slca::FilterMeaningful(
          slca::ComputeSlca(rq_spans, corpus.types(), options.slca_algorithm),
          input.search_for, corpus.types());
      if (results.empty()) continue;  // no meaningful match here
      if (RqSortedList::Entry* entry = rq_list.InsertOrFind(c.mask, c.rq)) {
        entry->results.insert(entry->results.end(),
                              std::make_move_iterator(results.begin()),
                              std::make_move_iterator(results.end()));
      }
    }
    if (!candidates.empty() && pruned == candidates.size()) {
      ++stats.partitions_pruned;
    }
  }

  // Final ranking with the full model (line 19).
  std::vector<std::pair<RefinedQuery, std::vector<slca::SlcaResult>>>
      candidates;
  for (auto& entry : rq_list.mutable_entries()) {
    candidates.emplace_back(std::move(entry.rq), std::move(entry.results));
  }
  return FinalizeOutcome(corpus, input.q, input.search_for,
                         std::move(candidates), options.top_k,
                         options.ranking, stats, options.rank_results,
                         options.infer_return_nodes);
}

}  // namespace xrefine::core
