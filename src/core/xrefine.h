// XRefine: the engine façade. Owns per-corpus state (rule generator) and
// answers keyword queries with automatic refinement: Issue 1 (decide during
// processing whether Q needs refinement), Issue 2 (find refined queries
// together with their results), Issue 3 (rank them with the full model),
// Issue 4 (one-time scan of the involved inverted lists).
#ifndef XREFINE_CORE_XREFINE_H_
#define XREFINE_CORE_XREFINE_H_

#include <memory>
#include <string>

#include "common/thread_annotations.h"
#include "core/partition_refine.h"
#include "core/query_log.h"
#include "core/refine_common.h"
#include "core/refinement_cache.h"
#include "core/rule_generator.h"
#include "core/short_list_eager.h"
#include "core/stack_refine.h"
#include "text/lexicon.h"

namespace xrefine::core {

enum class RefineAlgorithm {
  kStackRefine,     // Algorithm 1
  kPartition,       // Algorithm 2 (default; best overall in the paper)
  kShortListEager,  // Algorithm 3
};

std::string RefineAlgorithmName(RefineAlgorithm algorithm);

struct XRefineOptions {
  size_t top_k = 3;
  RefineAlgorithm algorithm = RefineAlgorithm::kPartition;
  /// kScanEager remains as the pre-overhaul probe discipline for ablation
  /// (bench_scan --baseline).
  slca::SlcaAlgorithm slca_algorithm = slca::kDefaultSlcaAlgorithm;
  RankingOptions ranking;
  slca::SearchForNodeOptions search_for_node;
  RuleGeneratorOptions rules;
  bool prune_partitions = true;  // Algorithm 2 ablation knob
  bool sle_early_stop = true;    // Algorithm 3 ablation knob
  /// Order each refined query's results by XML TF*IDF instead of document
  /// order (result_ranking.h).
  bool rank_results = false;
  /// Snap each result to its enclosing search-for entity (XSeek-style
  /// return-node inference, return_node.h).
  bool infer_return_nodes = false;
  /// Whole-outcome result cache (refinement_cache.h). Off by default —
  /// library users and ablation benches keep exact per-run semantics; the
  /// daemon and the server load bench enable it. When enabled, Run() serves
  /// repeats of the same exact query from the cache (stamped with the
  /// source epoch) and coalesces concurrent identical queries into one
  /// engine run. Cache hits bypass the post-prepare fan-out gate and record
  /// no per-stage query metrics (see DESIGN.md §16 accounting rules).
  ResultCacheOptions result_cache;
};

/// Thread-safety contract (machine-checked under XREFINE_THREAD_SAFETY):
/// the const query path — Run(), RunText(), Prepare(), RunPrepared() — is
/// safe to call concurrently from any number of threads over one engine,
/// provided the corpus and lexicon are not mutated. Shared mutable state is
/// limited to (a) the source's internal caches (the co-occurrence cache and,
/// for store-backed sources, the posting-list cache), each internally
/// mutex-guarded per the IndexSource contract, and
/// (b) log_rules_, guarded by log_rules_mu_ below. Everything else
/// consulted during a query (statistics, node types, lexicon, rule
/// generator, options) is read-only after construction.
/// AttachQueryLog() may now be called concurrently with in-flight queries:
/// each query atomically sees either the old or the new mined rule set.
class XRefine {
 public:
  /// `corpus` (any IndexSource: in-memory or store-backed) and `lexicon`
  /// must outlive the engine.
  XRefine(const index::IndexSource* corpus, const text::Lexicon* lexicon,
          XRefineOptions options = {});

  /// Refines and answers a parsed keyword query. Fills the outcome's
  /// query_stats (per-stage wall time, rule/candidate counts) and records
  /// the same figures in the global metrics registry ("query.*").
  RefineOutcome Run(const Query& q) const;

  /// Deadline/cancel-aware Run: the serving entry point. `control` (may be
  /// null, then identical to Run) is polled cooperatively — before the
  /// prepare stage, between prepare and scan, and inside each algorithm's
  /// partition/entry loop — and a stopped query returns an outcome with
  /// status kDeadlineExceeded and no results. When
  /// control->max_candidate_fanout is set, a prepared rule set larger than
  /// the cap aborts before any scan work with status kUnavailable (the
  /// server's post-prepare admission gate). `control` must outlive the
  /// call but is not retained.
  RefineOutcome Run(const Query& q, const RefineControl* control) const;

  /// Tokenises free text and runs it.
  RefineOutcome RunText(const std::string& query_text) const;

  /// Mines refinement rules from a log of accepted refinements and merges
  /// them into every subsequent query's rule set (the paper's "query log
  /// analysis" rule source). Call again to re-mine after the log grows.
  /// Safe to call while queries are in flight (see the class contract).
  void AttachQueryLog(const QueryLog& log, const LogMiningOptions& options = {})
      EXCLUDES(log_rules_mu_);

  /// The prepared per-query state (exposed for benchmarks that want to
  /// time the scan separately from rule generation).
  RefineInput Prepare(const Query& q) const;

  /// Runs a specific algorithm over previously prepared input.
  RefineOutcome RunPrepared(const RefineInput& input) const;

  const XRefineOptions& options() const { return options_; }
  const RuleGenerator& rule_generator() const { return rule_generator_; }
  const index::IndexSource& corpus() const { return *corpus_; }
  /// The result cache, or nullptr when options.result_cache.enabled was
  /// false at construction (introspection for tests and the daemon).
  RefinementCache* result_cache() const { return result_cache_.get(); }

 private:
  RefineOutcome Dispatch(const RefineInput& input) const;
  /// The pre-cache Run body: always prepares and scans. The cache's compute
  /// callback lands here; so do all runs when the cache is disabled.
  RefineOutcome RunUncached(const Query& q, const RefineControl* control) const;

  const index::IndexSource* corpus_;
  XRefineOptions options_;
  RuleGenerator rule_generator_;
  // Mined from an attached query log; empty by default. Written by
  // AttachQueryLog, read by Prepare — the engine's only mutable member.
  mutable Mutex log_rules_mu_{kLockRankQueryLogRules, "XRefine::log_rules_mu_"};
  RuleSet log_rules_ GUARDED_BY(log_rules_mu_);
  // Internally synchronized; null when disabled.
  std::unique_ptr<RefinementCache> result_cache_;
};

}  // namespace xrefine::core

#endif  // XREFINE_CORE_XREFINE_H_
