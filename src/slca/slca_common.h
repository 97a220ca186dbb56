// Shared SLCA machinery: posting spans (whole lists or per-partition
// sublists), result records, and document-order neighbour searches.
//
// SLCA semantics [XKSearch, Xu & Papakonstantinou 2005], as adopted by the
// paper (Section III): a node is an SLCA of query Q iff its subtree contains
// matches to every keyword of Q and no descendant's subtree does.
#ifndef XREFINE_SLCA_SLCA_COMMON_H_
#define XREFINE_SLCA_SLCA_COMMON_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "index/flat_postings.h"
#include "xml/dewey.h"
#include "xml/node_type.h"

namespace xrefine::slca {

namespace internal {

/// Process-wide "slca.*" counters, resolved once. The algorithms accumulate
/// per-call tallies in plain locals and flush them here with one relaxed
/// add each on exit, keeping the posting-merge inner loops atomic-free.
struct SlcaMetrics {
  metrics::Counter* calls;             // ComputeSlca invocations
  metrics::Counter* elements_scanned;  // postings consumed across all lists
  metrics::Counter* lookups;           // binary searches / cursor probes
};
const SlcaMetrics& Metrics();

}  // namespace internal

/// A contiguous columnar view over a posting list (the whole list, or the
/// sublist within one document partition). The viewed storage is a
/// FlatPostingList's three columns; `starts` offsets stay absolute into the
/// component pool, so a sub-span is just the `starts`/`types` pointers
/// advanced by the offset — no per-posting objects anywhere on the scan
/// path.
struct PostingSpan {
  const uint32_t* components = nullptr;   // shared label-component pool
  const uint32_t* starts = nullptr;       // size+1 offsets into `components`
  const xml::TypeId* types = nullptr;
  size_t size = 0;

  PostingSpan() = default;
  PostingSpan(const uint32_t* pool, const uint32_t* s, const xml::TypeId* t,
              size_t n)
      : components(pool), starts(s), types(t), size(n) {}
  explicit PostingSpan(const index::FlatPostingList& list)
      : components(list.components_data()),
        starts(list.starts_data()),
        types(list.types_data()),
        size(list.size()) {}

  bool empty() const { return size == 0; }
  xml::DeweyRef label(size_t i) const {
    return xml::DeweyRef(components + starts[i], starts[i + 1] - starts[i]);
  }
  xml::TypeId type(size_t i) const { return types[i]; }

  /// The sub-span of `count` postings starting at `offset`.
  PostingSpan Sub(size_t offset, size_t count) const {
    return PostingSpan(components, starts + offset, types + offset, count);
  }
};

/// One SLCA result: the node's Dewey label plus its node type (derived from
/// a witness posting, so meaningfulness checks need no document access).
struct SlcaResult {
  xml::Dewey dewey;
  xml::TypeId type = xml::kInvalidTypeId;

  bool operator==(const SlcaResult& other) const {
    return dewey == other.dewey;
  }
};

/// Index of the rightmost posting with label <= v ("left match"); -1 when
/// none exists.
ptrdiff_t LeftMatch(const PostingSpan& span, const xml::DeweyRef& v);

/// Index of the leftmost posting with label >= v ("right match");
/// span.size when none exists.
ptrdiff_t RightMatch(const PostingSpan& span, const xml::DeweyRef& v);

/// Leftmost index in [from, size) whose label is >= v, found by galloping
/// (exponential probe doubling, then binary search inside the bracketed
/// window). The caller must guarantee every index < `from` has label < v —
/// with probes arriving in document order, passing the previous call's
/// result as `from` satisfies this, and the total work over a whole anchor
/// scan is O(n + m log(m/n)) instead of m binary searches.
size_t GallopLowerBound(const PostingSpan& span, size_t from,
                        const xml::DeweyRef& v);

/// Leftmost index in [from, size) whose label is > v; the caller must
/// guarantee every index < `from` has label <= v. Used to find the
/// rightmost duplicate of v after GallopLowerBound landed on the first.
size_t GallopUpperBound(const PostingSpan& span, size_t from,
                        const xml::DeweyRef& v);

/// Sorts candidates in document order, dedupes, and removes every node that
/// has a proper descendant in the set (the "smallest" filter).
std::vector<SlcaResult> KeepSmallest(std::vector<SlcaResult> candidates);

/// A candidate SLCA expressed as a prefix of an anchor posting's label: the
/// node whose label is the first `depth` components of posting `index` in
/// the anchor span. The eager algorithms emit one of these per anchor
/// posting; keeping candidates as views defers label materialisation until
/// after the smallest-filter, so the scan path allocates only for actual
/// results, not for every dominated candidate.
struct PrefixCandidate {
  uint32_t index;  // posting index within the anchor span
  uint32_t depth;  // candidate label depth (>= 1)
};

/// The smallest-filter over prefix candidates: dedupe, drop every node with
/// a proper descendant in the set, then materialise the survivors (label +
/// witness-derived type). `anchor` must be the span the candidates index
/// into, and candidates must arrive in anchor order (i.e. `index` values
/// non-decreasing) — the order the eager algorithms naturally emit. That
/// ordering lets the filter run online in O(n) with no sort and no label
/// materialisation for dominated candidates.
std::vector<SlcaResult> KeepSmallestPrefixes(
    const PostingSpan& anchor, std::vector<PrefixCandidate> candidates,
    const xml::NodeTypeTable& types);

/// Derives the node type of an ancestor at `depth` from a witness
/// descendant's type.
xml::TypeId AncestorTypeAtDepth(const xml::NodeTypeTable& types,
                                xml::TypeId witness, size_t depth);

}  // namespace xrefine::slca

#endif  // XREFINE_SLCA_SLCA_COMMON_H_
