// Algorithm 3: Short-List Eager Top-K refinement. Explores candidate
// refined queries starting from the keyword with the shortest inverted
// list, random-accessing the other lists per document partition, and stops
// exploring as soon as the best dissimilarity still achievable from the
// unexplored keywords (C_potential) exceeds the K-th retained candidate's.
// SLCA results are then computed only for the surviving candidates.
#ifndef XREFINE_CORE_SHORT_LIST_EAGER_H_
#define XREFINE_CORE_SHORT_LIST_EAGER_H_

#include "core/refine_common.h"

namespace xrefine::core {

struct SleOptions {
  size_t top_k = 3;
  slca::SlcaAlgorithm slca_algorithm = slca::kDefaultSlcaAlgorithm;
  RankingOptions ranking;
  /// Ablation knob: disable the C_potential early stop.
  bool early_stop = true;
  bool rank_results = false;  // TF*IDF-order each RQ's results
  bool infer_return_nodes = false;  // snap results to entity boundaries
};

RefineOutcome ShortListEagerRefine(const index::IndexSource& corpus,
                                   const RefineInput& input,
                                   const SleOptions& options = {});

}  // namespace xrefine::core

#endif  // XREFINE_CORE_SHORT_LIST_EAGER_H_
