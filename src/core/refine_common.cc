#include "core/refine_common.h"

#include <algorithm>
#include <bit>
#include <unordered_set>

#include "common/logging.h"
#include "core/result_ranking.h"
#include "slca/return_node.h"

namespace xrefine::core {

RefineOutcome FailedOutcome(Status status, const RefineStats& stats) {
  RefineOutcome out;
  out.stats = stats;
  out.status = std::move(status);
  return out;
}

RefineOutcome StoppedOutcome(const RefineStats& stats) {
  return FailedOutcome(
      Status::DeadlineExceeded("query stopped: deadline passed or cancelled"),
      stats);
}

KeywordSet RefineInput::SetOf(KeywordMask mask) const {
  KeywordSet t;
  for (size_t i = 0; i < keywords.size(); ++i) {
    if (mask & KeywordBit(i)) t.insert(keywords[i]);
  }
  return t;
}

Status RefinableStatus(const RefineInput& input) {
  if (!input.status.ok()) return input.status;
  if (input.keywords.size() > kMaxRefineKeywords) {
    return Status::InvalidArgument(
        "keyword universe of " + std::to_string(input.keywords.size()) +
        " keywords exceeds the " + std::to_string(kMaxRefineKeywords) +
        "-keyword limit");
  }
  return Status::OK();
}

const std::vector<KeyedRq>& DpMemo::TopRqs(KeywordMask witnessed,
                                           RefineStats* stats) {
  auto [it, miss] = memo_.try_emplace(witnessed);
  if (!miss) return it->second;
  ++stats->dp_calls;
  for (RefinedQuery& rq : GetTopOptimalRqs(
           input_.q, input_.SetOf(witnessed), input_.rules, k_)) {
    KeyedRq keyed;
    keyed.ids.reserve(rq.keywords.size());
    for (const std::string& k : rq.keywords) {
      // RQ ⊆ T ⊆ KS (Lemma 2): every RQ keyword has an id.
      auto id = input_.keyword_index.find(k);
      XR_CHECK(id != input_.keyword_index.end());
      keyed.mask |= KeywordBit(id->second);
      keyed.ids.push_back(static_cast<uint32_t>(id->second));
    }
    XR_DCHECK((keyed.mask & ~witnessed) == 0);
    XR_DCHECK(static_cast<size_t>(std::popcount(keyed.mask)) ==
              keyed.ids.size());
    keyed.rq = std::move(rq);
    it->second.push_back(std::move(keyed));
  }
  return it->second;
}

RefineInput PrepareRefineInput(const index::IndexSource& corpus,
                               const Query& q, const RuleGenerator& rules,
                               const slca::SearchForNodeOptions& sfn_options) {
  RefineInput input;
  input.q = q;
  input.rules = rules.GenerateFor(q);

  // KS = Q + getNewKeywords(R), restricted to keywords with inverted lists
  // (a keyword absent from the data can never be part of a refined query,
  // since RQ ⊆ T by Lemma 2).
  std::vector<std::string> ks = q;
  for (const std::string& k : input.rules.NewKeywords(q)) ks.push_back(k);
  std::unordered_set<std::string> seen;
  std::vector<std::string> unique;
  unique.reserve(ks.size());
  for (const std::string& k : ks) {
    if (seen.insert(k).second) unique.push_back(k);
  }
  // Warm store-backed caches for the whole keyword set at once: the batch
  // hint lets per-list I/O overlap instead of paying one serial round trip
  // per keyword below (a no-op for in-memory sources).
  corpus.Prefetch(unique);
  for (const std::string& k : unique) {
    auto handle_or = corpus.FetchList(k);
    if (!handle_or.ok()) {
      input.status = handle_or.status();
      return input;
    }
    index::PostingListHandle handle = std::move(handle_or).value();
    if (!handle) continue;  // absent keyword: RQ ⊆ T by Lemma 2
    input.keyword_index.emplace(k, input.keywords.size());
    input.keywords.push_back(k);
    input.lists.emplace_back(*handle);
    input.pins.push_back(std::move(handle));
  }

  input.search_for = slca::InferSearchForNodes(q, corpus.stats(),
                                               corpus.types(), sfn_options);
  if (input.search_for.empty()) {
    // Every original keyword is out-of-corpus (e.g. one merged typo token):
    // Formula 1 has no evidence. Fall back to inferring L from KS, the
    // rule-expanded keyword set, which is what any refined query will be
    // built from.
    input.search_for = slca::InferSearchForNodes(
        input.keywords, corpus.stats(), corpus.types(), sfn_options);
  }
  input.status = RefinableStatus(input);
  return input;
}

RefineOutcome FinalizeOutcome(
    const index::IndexSource& corpus, const Query& q,
    const std::vector<slca::TypeConfidence>& search_for,
    std::vector<std::pair<RefinedQuery, std::vector<slca::SlcaResult>>>
        candidates,
    size_t top_k, const RankingOptions& ranking, RefineStats stats,
    bool rank_results, bool infer_return_nodes) {
  Timer rank_timer;
  RefineOutcome outcome;
  outcome.stats = stats;

  RankingModel model(&corpus, ranking);
  std::string q_key = QueryKey(q);
  std::vector<RankedRq> ranked;
  ranked.reserve(candidates.size());
  for (auto& [rq, results] : candidates) {
    if (results.empty()) continue;  // Lemma 2: every RQ must have results
    if (QueryKey(rq.keywords) == q_key) {
      outcome.needs_refinement = false;
      outcome.original_results = results;
    }
    RankedRq scored = model.Score(std::move(rq), q, search_for);
    scored.results = std::move(results);
    ranked.push_back(std::move(scored));
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedRq& a, const RankedRq& b) {
              if (a.rank != b.rank) return a.rank > b.rank;
              return a.rq.dissimilarity < b.rq.dissimilarity;
            });
  if (ranked.size() > top_k) ranked.resize(top_k);
  if (infer_return_nodes) {
    for (auto& rq : ranked) {
      rq.results = slca::InferReturnNodes(rq.results, search_for,
                                          corpus.types());
    }
    outcome.original_results = slca::InferReturnNodes(
        outcome.original_results, search_for, corpus.types());
  }
  if (rank_results) {
    for (auto& rq : ranked) {
      rq.results = RankResults(corpus, rq.rq.keywords, std::move(rq.results));
    }
  }
  outcome.refined = std::move(ranked);
  outcome.query_stats.rank_ms = rank_timer.ElapsedMillis();
  return outcome;
}

}  // namespace xrefine::core
