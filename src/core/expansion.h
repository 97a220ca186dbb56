// Query expansion for over-broad queries — the "other extreme" the paper's
// conclusion leaves as future work: when Q has too many meaningful matches,
// propose expanded queries Q + {t} whose added term t co-occurs strongly
// with Q inside the search-for subtrees, narrowing the result set while
// staying faithful to the original intent.
//
// Candidate terms come from the matched subtrees themselves when the corpus
// has its document attached (exact), and from the co-occurrence table
// otherwise. Candidates are scored by
//     score(t) = support(t) * ln(N_T / (1 + f_t^T))
// where support(t) is the number of Q-result subtrees containing t (how
// representative t is) and the IDF factor prefers discriminative terms.
#ifndef XREFINE_CORE_EXPANSION_H_
#define XREFINE_CORE_EXPANSION_H_

#include <string>
#include <vector>

#include "core/refined_query.h"
#include "index/index_builder.h"
#include "slca/search_for_node.h"
#include "slca/slca.h"

namespace xrefine::core {

struct ExpansionOptions {
  /// A query counts as over-broad once it has more meaningful results than
  /// this.
  size_t broad_threshold = 50;

  /// Number of expanded queries to propose.
  size_t top_k = 5;

  /// Candidate terms examined per query (document path) or considered from
  /// the statistics table (fallback path).
  size_t max_candidates = 256;

  /// Added terms must appear in at least this fraction of Q's results
  /// (too-rare terms would over-narrow) ...
  double min_support_fraction = 0.05;
  /// ... and at most this fraction (terms in every result don't narrow).
  double max_support_fraction = 0.9;

  slca::SearchForNodeOptions search_for_node;
  slca::SlcaAlgorithm slca_algorithm = slca::kDefaultSlcaAlgorithm;
};

struct ExpandedQuery {
  Query keywords;           // Q plus the added term
  std::string added_term;
  double score = 0.0;
  size_t result_count = 0;  // meaningful results of the expanded query
};

struct ExpansionOutcome {
  bool is_broad = false;             // did Q exceed the threshold?
  size_t original_result_count = 0;  // meaningful results of Q
  std::vector<ExpandedQuery> expansions;
  /// Non-OK when a store-backed source failed mid-analysis; the other
  /// fields are whatever was computed before the failure.
  Status status = Status::OK();
};

/// Analyses Q and, when it is over-broad, proposes narrowing expansions.
/// When Q is not broad (or has no results at all) `expansions` is empty.
ExpansionOutcome ExpandQuery(const index::IndexSource& corpus,
                             const Query& q,
                             const ExpansionOptions& options = {});

}  // namespace xrefine::core

#endif  // XREFINE_CORE_EXPANSION_H_
