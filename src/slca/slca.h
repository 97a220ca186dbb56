// Umbrella header + algorithm dispatch for SLCA computation.
#ifndef XREFINE_SLCA_SLCA_H_
#define XREFINE_SLCA_SLCA_H_

#include <string>
#include <vector>

#include "common/statusor.h"
#include "index/index_source.h"
#include "index/inverted_index.h"
#include "slca/indexed_lookup_eager.h"
#include "slca/scan_eager.h"
#include "slca/search_for_node.h"
#include "slca/slca_common.h"
#include "slca/stack_slca.h"

namespace xrefine::slca {

enum class SlcaAlgorithm {
  kStack,          // stack over the merged lists (paper's "stack-slca")
  kScanEager,      // cursor-based matches (paper's "scan-slca")
  kIndexedLookup,  // binary-search matches (XKSearch ILE)
};

/// The SLCA kernel every refinement algorithm and XRefineOptions default
/// to: Indexed Lookup Eager with galloping resume-hint probes
/// (slca_common.h). The others stay as the paper's baselines.
inline constexpr SlcaAlgorithm kDefaultSlcaAlgorithm =
    SlcaAlgorithm::kIndexedLookup;

/// Dispatches to the chosen algorithm.
std::vector<SlcaResult> ComputeSlca(const std::vector<PostingSpan>& lists,
                                    const xml::NodeTypeTable& types,
                                    SlcaAlgorithm algorithm);

/// Convenience: looks up the inverted list of each keyword (missing keyword
/// => empty conjunctive result) and computes SLCA.
std::vector<SlcaResult> ComputeSlcaForQuery(
    const std::vector<std::string>& query, const index::InvertedIndex& index,
    const xml::NodeTypeTable& types, SlcaAlgorithm algorithm);

/// Same, but fetching (and pinning) the lists through an IndexSource, so
/// queries run identically over the in-memory index and the persistent
/// store. A missing keyword still yields the empty conjunctive result;
/// non-OK means the backing store failed mid-fetch.
[[nodiscard]] StatusOr<std::vector<SlcaResult>> ComputeSlcaForQuery(
    const std::vector<std::string>& query, const index::IndexSource& source,
    const xml::NodeTypeTable& types, SlcaAlgorithm algorithm);

}  // namespace xrefine::slca

#endif  // XREFINE_SLCA_SLCA_H_
