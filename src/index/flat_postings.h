// FlatPostingList: the one in-memory form of a keyword's inverted list —
// the paper's <DeweyID, prefixPath> entries (Section VII), in document
// order, one entry per (keyword, node) occurrence site. Instead of a vector
// of postings where every Dewey owns its own heap block, all labels live
// concatenated in one uint32 pool with an offsets column and a types column
// (structure-of-arrays). The builders append into it, decoding a stored
// list fills the three vectors with zero per-posting allocations, and the
// SLCA scan loops walk contiguous memory — this layout, not the algorithm,
// is what makes the Indexed Lookup Eager probes fast at scale (cf.
// XKSearch, and the DAG-compression line in PAPERS.md).
#ifndef XREFINE_INDEX_FLAT_POSTINGS_H_
#define XREFINE_INDEX_FLAT_POSTINGS_H_

#include <cstdint>
#include <vector>

#include "xml/dewey.h"
#include "xml/node_type.h"

namespace xrefine::index {

class FlatPostingList {
 public:
  FlatPostingList() { starts_.push_back(0); }

  size_t size() const { return types_.size(); }
  bool empty() const { return types_.empty(); }

  /// Label of posting `i` as a view into the component pool.
  xml::DeweyRef label(size_t i) const {
    return xml::DeweyRef(components_.data() + starts_[i],
                         starts_[i + 1] - starts_[i]);
  }
  xml::TypeId type(size_t i) const { return types_[i]; }

  /// Owning copy of posting i's label (result materialisation only).
  xml::Dewey DeweyAt(size_t i) const { return label(i).ToDewey(); }

  /// Appends one posting; callers append in document order, and the
  /// builders record a node once per keyword (occurrence counts live in the
  /// statistics table).
  void Append(const xml::DeweyRef& label, xml::TypeId type) {
    components_.insert(components_.end(), label.comps, label.comps + label.len);
    starts_.push_back(static_cast<uint32_t>(components_.size()));
    types_.push_back(type);
  }
  void Append(const xml::Dewey& label, xml::TypeId type) {
    Append(xml::DeweyRef(label), type);
  }

  /// Pre-sizes the columns (`postings` entries totalling `components`
  /// label components) so decode paths grow without reallocation.
  void Reserve(size_t postings, size_t components) {
    starts_.reserve(postings + 1);
    types_.reserve(postings);
    components_.reserve(components);
  }

  /// Column-wise equality: the same labels and types in the same order.
  bool operator==(const FlatPostingList& other) const {
    return types_ == other.types_ && starts_ == other.starts_ &&
           components_ == other.components_;
  }

  /// Approximate resident heap footprint, consistent across lists (used by
  /// the store-backed cache's byte budget).
  size_t resident_bytes() const {
    return sizeof(FlatPostingList) +
           components_.capacity() * sizeof(uint32_t) +
           starts_.capacity() * sizeof(uint32_t) +
           types_.capacity() * sizeof(xml::TypeId);
  }

  /// Trims capacity to size (cache entries live long; excess capacity from
  /// decode-time growth would inflate the budget).
  void ShrinkToFit() {
    components_.shrink_to_fit();
    starts_.shrink_to_fit();
    types_.shrink_to_fit();
  }

  // Raw columns, exposed for PostingSpan (the scan-path view).
  const uint32_t* components_data() const { return components_.data(); }
  const uint32_t* starts_data() const { return starts_.data(); }
  const xml::TypeId* types_data() const { return types_.data(); }

 private:
  std::vector<uint32_t> components_;  // all labels, concatenated
  std::vector<uint32_t> starts_;      // size()+1 offsets into components_
  std::vector<xml::TypeId> types_;    // per-posting node type
};

}  // namespace xrefine::index

#endif  // XREFINE_INDEX_FLAT_POSTINGS_H_
