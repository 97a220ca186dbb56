// Shared core types: keyword queries, refined queries, ranked results.
#ifndef XREFINE_CORE_REFINED_QUERY_H_
#define XREFINE_CORE_REFINED_QUERY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "slca/slca_common.h"

namespace xrefine::core {

/// A keyword query: an ordered list of terms (order matters for merging and
/// split rules; SLCA semantics are order-insensitive).
using Query = std::vector<std::string>;

/// A keyword set as a bitmask over one query's keyword universe: bit i
/// stands for keyword i of RefineInput::keywords. The three refinement
/// algorithms key witnessed sets and refined queries on masks, so their
/// scan loops compare and hash integers instead of strings.
using KeywordMask = uint64_t;

/// The mask width, and so the largest keyword universe a query may have.
inline constexpr size_t kMaxRefineKeywords = 64;

/// Renders {a, b, c}.
std::string QueryToString(const Query& q);

/// Order-insensitive identity key for a query (sorted terms joined by \x01).
std::string QueryKey(const Query& q);

/// True iff the two queries contain the same keyword set.
bool SameKeywordSet(const Query& a, const Query& b);

/// A refined query candidate: the keyword set plus its dissimilarity from
/// the original query (Definition 3.6) and a human-readable trace of the
/// applied refinement operations.
struct RefinedQuery {
  Query keywords;
  double dissimilarity = 0.0;
  std::vector<std::string> applied_ops;
};

/// A fully ranked refined query as returned to the user: overall rank score
/// (Formula 10), its component scores, and its meaningful SLCA results.
struct RankedRq {
  RefinedQuery rq;
  double similarity = 0.0;  // rho(RQ,Q) * decay^dSim (Formulas 5-6)
  double dependence = 0.0;  // Dep(RQ,Q) (Formula 9)
  double rank = 0.0;        // alpha*similarity + beta*dependence
  std::vector<slca::SlcaResult> results;
};

}  // namespace xrefine::core

#endif  // XREFINE_CORE_REFINED_QUERY_H_
