#include "core/xrefine.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/timer.h"
#include "text/tokenizer.h"

namespace xrefine::core {

namespace {

struct QueryMetrics {
  metrics::Counter* count;
  metrics::Counter* rules_generated;
  metrics::Counter* candidates_enumerated;
  metrics::Counter* candidates_pruned;
  metrics::Histogram* prepare_us;
  metrics::Histogram* scan_us;
  metrics::Histogram* rank_us;
  metrics::Histogram* total_us;
};

const QueryMetrics& Metrics() {
  static const QueryMetrics m = [] {
    auto& r = metrics::Registry::Global();
    return QueryMetrics{r.counter("query.count"),
                        r.counter("query.rules_generated"),
                        r.counter("query.candidates_enumerated"),
                        r.counter("query.candidates_pruned"),
                        r.histogram("query.prepare_us"),
                        r.histogram("query.scan_us"),
                        r.histogram("query.rank_us"),
                        r.histogram("query.total_us")};
  }();
  return m;
}

uint64_t ToMicros(double ms) {
  return ms <= 0 ? 0 : static_cast<uint64_t>(ms * 1e3);
}

}  // namespace

std::string RefineAlgorithmName(RefineAlgorithm algorithm) {
  switch (algorithm) {
    case RefineAlgorithm::kStackRefine:
      return "stack-refine";
    case RefineAlgorithm::kPartition:
      return "partition";
    case RefineAlgorithm::kShortListEager:
      return "sle";
  }
  return "?";
}

XRefine::XRefine(const index::IndexSource* corpus,
                 const text::Lexicon* lexicon, XRefineOptions options)
    : corpus_(corpus),
      options_(std::move(options)),
      rule_generator_(corpus, lexicon, options_.rules) {
  if (options_.result_cache.enabled) {
    result_cache_ =
        std::make_unique<RefinementCache>(corpus, options_.result_cache);
  }
}

void XRefine::AttachQueryLog(const QueryLog& log,
                             const LogMiningOptions& options) {
  RuleSet mined = log.MineRules(options);  // mine outside the lock
  {
    MutexLock lock(&log_rules_mu_);
    log_rules_ = std::move(mined);
  }
  // Cached outcomes were computed under the old rule set; drop them all.
  // Queries racing this call may still serve (or coalesce onto) pre-swap
  // results, matching the class contract: each query sees either the old
  // or the new rule set atomically.
  if (result_cache_ != nullptr) result_cache_->InvalidateAll();
}

RefineInput XRefine::Prepare(const Query& q) const {
  RefineInput input = PrepareRefineInput(*corpus_, q, rule_generator_,
                                         options_.search_for_node);
  MutexLock lock(&log_rules_mu_);
  if (input.status.ok() && log_rules_.size() > 0) {
    input.rules = MergeRuleSets(input.rules, log_rules_);
    // Log rules may introduce keywords the corpus-mined KS missed.
    for (const std::string& k : input.rules.NewKeywords(q)) {
      if (input.keyword_index.count(k) > 0) continue;
      auto handle_or = corpus_->FetchList(k);
      if (!handle_or.ok()) {
        input.status = handle_or.status();
        break;
      }
      index::PostingListHandle handle = std::move(handle_or).value();
      if (!handle) continue;
      input.keyword_index.emplace(k, input.keywords.size());
      input.keywords.push_back(k);
      input.lists.emplace_back(*handle);
      input.pins.push_back(std::move(handle));
    }
    input.status = RefinableStatus(input);
  }
  return input;
}

RefineOutcome XRefine::RunPrepared(const RefineInput& input) const {
  if (!input.status.ok()) {
    // A partially resolved input must not be answered: a list the store
    // failed to deliver would silently change conjunctive results.
    return FailedOutcome(input.status);
  }
  Timer scan_timer;
  RefineOutcome outcome = Dispatch(input);
  double algo_ms = scan_timer.ElapsedMillis();
  // FinalizeOutcome measured the ranking tail inside the algorithm; the
  // rest of the algorithm's wall time is the list scan / enumeration.
  outcome.query_stats.scan_ms =
      std::max(0.0, algo_ms - outcome.query_stats.rank_ms);
  outcome.query_stats.candidates_enumerated =
      outcome.stats.candidates_enumerated;
  outcome.query_stats.candidates_pruned = outcome.stats.candidates_pruned;

  const QueryMetrics& m = Metrics();
  m.count->Increment();
  m.candidates_enumerated->Increment(outcome.stats.candidates_enumerated);
  m.candidates_pruned->Increment(outcome.stats.candidates_pruned);
  m.scan_us->Record(ToMicros(outcome.query_stats.scan_ms));
  m.rank_us->Record(ToMicros(outcome.query_stats.rank_ms));
  return outcome;
}

RefineOutcome XRefine::Dispatch(const RefineInput& input) const {
  switch (options_.algorithm) {
    case RefineAlgorithm::kStackRefine: {
      StackRefineOptions opts;
      opts.top_k = options_.top_k;
      opts.ranking = options_.ranking;
      opts.rank_results = options_.rank_results;
      opts.infer_return_nodes = options_.infer_return_nodes;
      return StackRefine(*corpus_, input, opts);
    }
    case RefineAlgorithm::kPartition: {
      PartitionRefineOptions opts;
      opts.top_k = options_.top_k;
      opts.slca_algorithm = options_.slca_algorithm;
      opts.ranking = options_.ranking;
      opts.prune_partitions = options_.prune_partitions;
      opts.rank_results = options_.rank_results;
      opts.infer_return_nodes = options_.infer_return_nodes;
      return PartitionRefine(*corpus_, input, opts);
    }
    case RefineAlgorithm::kShortListEager: {
      SleOptions opts;
      opts.top_k = options_.top_k;
      opts.slca_algorithm = options_.slca_algorithm;
      opts.ranking = options_.ranking;
      opts.early_stop = options_.sle_early_stop;
      opts.rank_results = options_.rank_results;
      opts.infer_return_nodes = options_.infer_return_nodes;
      return ShortListEagerRefine(*corpus_, input, opts);
    }
  }
  return RefineOutcome{};
}

RefineOutcome XRefine::Run(const Query& q) const { return Run(q, nullptr); }

RefineOutcome XRefine::Run(const Query& q,
                           const RefineControl* control) const {
  if (result_cache_ != nullptr) {
    return result_cache_->GetOrCompute(
        q, control, [this, &q, control] { return RunUncached(q, control); });
  }
  return RunUncached(q, control);
}

RefineOutcome XRefine::RunUncached(const Query& q,
                                   const RefineControl* control) const {
  if (control != nullptr && control->ShouldStop()) {
    return StoppedOutcome(RefineStats{});
  }
  Timer prepare_timer;
  RefineInput input = Prepare(q);
  double prepare_ms = prepare_timer.ElapsedMillis();
  input.control = control;

  RefineOutcome outcome;
  if (control != nullptr && control->max_candidate_fanout != 0 &&
      input.status.ok() && input.rules.size() > control->max_candidate_fanout) {
    // Post-prepare admission gate: the rule count drives the candidate-RQ
    // enumeration, so refusing here spares the whole scan stage.
    outcome.status = Status::Unavailable(
        "candidate fan-out " + std::to_string(input.rules.size()) +
        " exceeds admission cap " +
        std::to_string(control->max_candidate_fanout));
  } else if (input.Stopped()) {
    outcome = StoppedOutcome(RefineStats{});
  } else {
    outcome = RunPrepared(input);
  }
  outcome.query_stats.prepare_ms = prepare_ms;
  outcome.query_stats.rules_generated = input.rules.size();

  const QueryMetrics& m = Metrics();
  m.rules_generated->Increment(input.rules.size());
  m.prepare_us->Record(ToMicros(prepare_ms));
  m.total_us->Record(ToMicros(outcome.query_stats.total_ms()));
  return outcome;
}

RefineOutcome XRefine::RunText(const std::string& query_text) const {
  return Run(text::TokenizeQuery(query_text));
}

}  // namespace xrefine::core
