// Builds the full index package (inverted lists + statistics + node types)
// from a parsed document in one traversal, mirroring the paper's index
// construction pass (Section VII).
#ifndef XREFINE_INDEX_INDEX_BUILDER_H_
#define XREFINE_INDEX_INDEX_BUILDER_H_

#include <functional>
#include <memory>

#include "index/cooccurrence.h"
#include "index/index_source.h"
#include "index/inverted_index.h"
#include "index/statistics.h"
#include "xml/dag_document.h"
#include "xml/document.h"

namespace xrefine::index {

/// Everything the query engine needs about one corpus, fully materialised
/// in memory. Implements IndexSource so the query path is agnostic to
/// whether lists live here or in the persistent store. The document pointer
/// is optional: a corpus loaded from the persistent store has no document
/// (results are reported as Dewey labels only).
class IndexedCorpus : public IndexSource {
 public:
  IndexedCorpus() : cooccurrence_(this, &types_) {}

  IndexedCorpus(const IndexedCorpus&) = delete;
  IndexedCorpus& operator=(const IndexedCorpus&) = delete;

  const InvertedIndex& index() const { return index_; }
  InvertedIndex& mutable_index() { return index_; }

  const StatisticsTable& stats() const override { return stats_; }
  StatisticsTable& mutable_stats() { return stats_; }

  const xml::NodeTypeTable& types() const override { return types_; }
  xml::NodeTypeTable& mutable_types() { return types_; }

  CooccurrenceTable& cooccurrence() const override { return cooccurrence_; }

  const xml::DocumentView* document_view() const override { return view_; }
  /// Attaches the source document (an xml::Document or, compressed, an
  /// xml::DagDocument) for snippets and expansion support mining.
  void set_document_view(const xml::DocumentView* view) { view_ = view; }

  // --- IndexSource over the in-memory lists (all infallible) ---

  StatusOr<PostingListHandle> FetchList(
      std::string_view keyword) const override {
    return PostingListHandle::Unowned(index_.Find(keyword));
  }
  bool Contains(std::string_view keyword) const override {
    return index_.Contains(keyword);
  }
  size_t ListSize(std::string_view keyword) const override {
    return index_.ListSize(keyword);
  }
  size_t keyword_count() const override { return index_.keyword_count(); }
  void ForEachKeyword(
      const std::function<void(std::string_view)>& fn) const override {
    index_.ForEachKeyword(fn);
  }

 private:
  InvertedIndex index_;
  StatisticsTable stats_;
  xml::NodeTypeTable types_;
  // Lazily filled; logically part of the index, hence mutable.
  mutable CooccurrenceTable cooccurrence_;
  const xml::DocumentView* view_ = nullptr;
};

struct IndexBuildOptions {
  /// Index element tag names as keywords (the paper's queries mix tag and
  /// value terms, e.g. {database, publication}).
  bool index_tags = true;
};

/// Builds the index for `doc`. The document must outlive the corpus (the
/// corpus keeps a pointer for result rendering).
std::unique_ptr<IndexedCorpus> BuildIndex(const xml::Document& doc,
                                          const IndexBuildOptions& options = {});

/// Builds the index directly over a DAG-compressed document, without ever
/// materialising the uncompressed tree. The per-node string work
/// (tokenisation, keyword-slot and statistics-cell resolution) runs once
/// per distinct DAG node; instances are then multiplied out by a preorder
/// walk that only appends postings and bumps pre-resolved counters. The
/// resulting corpus — posting lists, statistics, node types — is
/// byte-identical to BuildIndex over the equivalent uncompressed document
/// (enforced by tests/slca_property_test.cc), so every refinement
/// algorithm returns identical output over either representation. The DAG
/// must outlive the corpus.
std::unique_ptr<IndexedCorpus> BuildIndexFromDag(
    const xml::DagDocument& dag, const IndexBuildOptions& options = {});

}  // namespace xrefine::index

#endif  // XREFINE_INDEX_INDEX_BUILDER_H_
