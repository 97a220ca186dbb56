#include "core/short_list_eager.h"

#include <algorithm>
#include <array>
#include <limits>
#include <set>
#include <unordered_set>

#include "common/logging.h"
#include "core/rq_sorted_list.h"

namespace xrefine::core {

RefineOutcome ShortListEagerRefine(const index::IndexSource& corpus,
                                   const RefineInput& input,
                                   const SleOptions& options) {
  RefineStats stats;
  if (Status s = RefinableStatus(input); !s.ok()) return FailedOutcome(s);
  const size_t m = input.lists.size();
  const size_t candidate_budget = 2 * options.top_k;
  RqSortedList rq_list(candidate_budget);
  DpMemo dp(input, candidate_budget);

  // Keywords ordered by ascending list length (shortest first). Keywords
  // that appear on rule RHSs or that need no refinement are preferred on
  // ties, per the paper's smarter-choice discussion.
  std::vector<size_t> order(m);
  for (size_t i = 0; i < m; ++i) order[i] = i;
  std::unordered_set<std::string> rhs_or_clean;
  for (const std::string& k : input.q) rhs_or_clean.insert(k);
  for (const RefinementRule& r : input.rules.rules()) {
    for (const std::string& k : r.rhs) rhs_or_clean.insert(k);
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (input.lists[a].size != input.lists[b].size) {
      return input.lists[a].size < input.lists[b].size;
    }
    bool pa = rhs_or_clean.count(input.keywords[a]) > 0;
    bool pb = rhs_or_clean.count(input.keywords[b]) > 0;
    if (pa != pb) return pa;
    return input.keywords[a] < input.keywords[b];
  });

  KeywordMask remaining = 0;
  for (size_t i = 0; i < m; ++i) remaining |= KeywordBit(i);
  // Partitions already processed, keyed on their prefix {depth, c0, c1}.
  std::set<std::array<uint32_t, 3>> processed_partitions;
  // Per-list forward cursors for the random accesses of one short list's
  // partitions, which arrive in document order.
  std::vector<size_t> cursors(m);

  for (size_t oi = 0; oi < order.size(); ++oi) {
    size_t i = order[oi];

    // Stop condition (line 4): the best dissimilarity achievable from the
    // still-unexplored keyword universe.
    if (options.early_stop && rq_list.full()) {
      ++stats.dp_calls;
      auto potential =
          GetOptimalRq(input.q, input.SetOf(remaining), input.rules);
      double c_potential = potential.has_value()
                               ? potential->dissimilarity
                               : std::numeric_limits<double>::infinity();
      if (c_potential > rq_list.AdmissionThreshold()) break;
    }

    // Each partition containing k_i (lines 6-9).
    const slca::PostingSpan& short_list = input.lists[i];
    std::fill(cursors.begin(), cursors.end(), 0);
    size_t pos = 0;
    while (pos < short_list.size) {
      // Deadline/cancel poll at partition granularity.
      if (input.Stopped()) return StoppedOutcome(stats);
      const xml::DeweyRef v = short_list.label(pos);
      const xml::DeweyRef prefix(v.comps, v.len < 2 ? v.len : 2);
      uint32_t bound[2];
      const xml::DeweyRef upper = PartitionEnd(v, bound);
      pos = slca::GallopLowerBound(short_list, pos, upper);

      if (!processed_partitions
               .insert({prefix.len, prefix.len > 0 ? prefix[0] : 0,
                        prefix.len > 1 ? prefix[1] : 0})
               .second) {
        continue;
      }
      ++stats.partitions_visited;

      // Random-access every list for this partition to collect T,
      // galloping forward from where the previous partition ended.
      KeywordMask witnessed = 0;
      for (size_t j = 0; j < m; ++j) {
        ++stats.random_accesses;
        const slca::PostingSpan& list = input.lists[j];
        XR_DCHECK(cursors[j] == 0 || list.label(cursors[j] - 1) < prefix);
        size_t begin = slca::GallopLowerBound(list, cursors[j], prefix);
        size_t end = slca::GallopLowerBound(list, begin, upper);
        cursors[j] = end;
        if (end > begin) witnessed |= KeywordBit(j);
      }
      XR_DCHECK(witnessed & KeywordBit(i));

      const std::vector<KeyedRq>& candidates = dp.TopRqs(witnessed, &stats);
      stats.candidates_enumerated += candidates.size();
      for (const KeyedRq& c : candidates) {
        XR_DCHECK((c.mask & ~witnessed) == 0);
        if (rq_list.InsertOrFind(c.mask, c.rq) == nullptr) {
          ++stats.candidates_pruned;
        }
      }
    }

    remaining &= ~KeywordBit(i);
  }

  // Step 2 (lines 17-18): SLCA results for the surviving candidates, with
  // any existing method over the full lists.
  std::vector<std::pair<RefinedQuery, std::vector<slca::SlcaResult>>>
      candidates;
  for (const auto& entry : rq_list.entries()) {
    std::vector<slca::PostingSpan> spans;
    spans.reserve(entry.rq.keywords.size());
    bool ok = true;
    for (const std::string& k : entry.rq.keywords) {
      const slca::PostingSpan* span = input.SpanFor(k);
      if (span == nullptr) {
        ok = false;
        break;
      }
      spans.push_back(*span);
    }
    if (!ok) continue;
    ++stats.slca_calls;
    std::vector<slca::SlcaResult> results =
        slca::ComputeSlca(spans, corpus.types(), options.slca_algorithm);
    results = slca::FilterMeaningful(std::move(results), input.search_for,
                                     corpus.types());
    if (results.empty()) continue;
    candidates.emplace_back(entry.rq, std::move(results));
  }

  return FinalizeOutcome(corpus, input.q, input.search_for,
                         std::move(candidates), options.top_k,
                         options.ranking, stats, options.rank_results,
                         options.infer_return_nodes);
}

}  // namespace xrefine::core
