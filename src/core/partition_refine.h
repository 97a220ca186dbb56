// Algorithm 2: partition-based Top-K query refinement. Scans each involved
// inverted list exactly once, partitioned by the document root's children
// (Definition 6.1); per partition it finds the top-2K candidate refined
// queries by dissimilarity (getTopOptimalRQ), maintains a global
// RQSortedList, skips the SLCA work of partitions whose candidates cannot
// enter the top-2K, and finally ranks the survivors with the full model.
// Orthogonal to the SLCA method (Lemma 3); one-time scan (Theorem 2).
#ifndef XREFINE_CORE_PARTITION_REFINE_H_
#define XREFINE_CORE_PARTITION_REFINE_H_

#include "core/refine_common.h"

namespace xrefine::core {

struct PartitionRefineOptions {
  size_t top_k = 3;
  slca::SlcaAlgorithm slca_algorithm = slca::kDefaultSlcaAlgorithm;
  RankingOptions ranking;
  /// Ablation knob: disable the skip of unpromising partitions.
  bool prune_partitions = true;
  bool rank_results = false;  // TF*IDF-order each RQ's results
  bool infer_return_nodes = false;  // snap results to entity boundaries
};

RefineOutcome PartitionRefine(const index::IndexSource& corpus,
                              const RefineInput& input,
                              const PartitionRefineOptions& options = {});

}  // namespace xrefine::core

#endif  // XREFINE_CORE_PARTITION_REFINE_H_
