// IndexSource: where the query path gets its inverted lists. The engine,
// the SLCA baselines, and the rule generator consume posting lists through
// this interface so that the same code serves from either
//   * a fully materialised in-memory corpus (IndexedCorpus), or
//   * the persistent KV store, fetched per keyword at query time behind a
//     bounded posting-list cache (StoreBackedIndexSource) — the paper's own
//     serving model, where every keyword lookup is a Berkeley DB B-tree get
//     (Section VII), and the prerequisite for corpora larger than RAM.
//
// Lists are handed out as PostingListHandles: shared-ownership pins that
// keep the list bytes alive for as long as the caller holds them, so a
// store-backed cache may evict an entry while a query is still scanning it.
#ifndef XREFINE_INDEX_INDEX_SOURCE_H_
#define XREFINE_INDEX_INDEX_SOURCE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "index/flat_postings.h"
#include "index/statistics.h"
#include "xml/node_type.h"

namespace xrefine::xml {
class DocumentView;
}  // namespace xrefine::xml

namespace xrefine::text {
class VocabularyIndex;
}  // namespace xrefine::text

namespace xrefine::index {

class CooccurrenceTable;

/// A pinned posting list in the columnar serving layout
/// (index::FlatPostingList). Null when the keyword has no list. The pointee
/// is immutable and outlives the handle; for in-memory sources the handle
/// is a free alias into the index's own list, for store-backed sources
/// it co-owns the decoded list with the cache.
class PostingListHandle {
 public:
  PostingListHandle() = default;
  explicit PostingListHandle(std::shared_ptr<const FlatPostingList> list)
      : list_(std::move(list)) {}

  /// Non-owning alias over a list whose owner outlives every handle (the
  /// in-memory index case).
  static PostingListHandle Unowned(const FlatPostingList* list) {
    return PostingListHandle(std::shared_ptr<const FlatPostingList>(
        std::shared_ptr<const void>(), list));
  }

  const FlatPostingList* get() const { return list_.get(); }
  const FlatPostingList& operator*() const { return *list_; }
  const FlatPostingList* operator->() const { return list_.get(); }
  explicit operator bool() const { return list_ != nullptr; }

 private:
  std::shared_ptr<const FlatPostingList> list_;
};

/// Read-side view over one indexed corpus. All methods are safe to call
/// concurrently from any number of threads (implementations guard their
/// mutable caches internally). Accessors return references valid for the
/// source's lifetime.
class IndexSource {
 public:
  virtual ~IndexSource() = default;

  /// The posting list for `keyword`, pinned for the handle's lifetime.
  /// A keyword absent from the corpus is not an error: the result is OK
  /// with a null handle. Non-OK means the backing store failed (IO error,
  /// corrupt record) and the query cannot be answered honestly.
  [[nodiscard]] virtual StatusOr<PostingListHandle> FetchList(
      std::string_view keyword) const = 0;

  /// Hint that the caller is about to FetchList each of `keywords`. Sources
  /// that pay per-list I/O may warm them concurrently; the default does
  /// nothing. Purely advisory: errors are not reported here (they resurface
  /// from the later FetchList), and callers must still fetch normally.
  virtual void Prefetch(const std::vector<std::string>& keywords) const {
    (void)keywords;
  }

  /// True when the keyword occurs in the corpus. Never touches list bytes.
  virtual bool Contains(std::string_view keyword) const = 0;

  /// Number of postings in the keyword's list (0 when absent). May be
  /// served from metadata without decoding the list.
  virtual size_t ListSize(std::string_view keyword) const = 0;

  /// Number of distinct keywords.
  virtual size_t keyword_count() const = 0;

  /// Invokes `fn` once per distinct corpus keyword, in unspecified order.
  /// The string_view is only valid for the duration of the call. This is
  /// the zero-copy enumeration path: consumers that only stream the
  /// vocabulary (snapshot builders, samplers) use it instead of
  /// materialising a vector<string> per call through Vocabulary().
  virtual void ForEachKeyword(
      const std::function<void(std::string_view)>& fn) const = 0;

  /// Sorted corpus vocabulary, materialised per call via ForEachKeyword.
  /// Convenience for tests and one-shot consumers; hot paths should use
  /// ForEachKeyword or VocabularyIndexSnapshot instead.
  std::vector<std::string> Vocabulary() const;

  /// A shared immutable snapshot of the vocabulary-derived rule-mining
  /// structures (sorted words, stem index, segmenter, deletion-neighborhood
  /// spelling index — see text/vocabulary_index.h). Built on first use per
  /// `max_edit_distance` and cached, so N engines over one source share one
  /// copy instead of each rebuilding it. The snapshot reflects the
  /// vocabulary at first call: sources are immutable once serving starts
  /// (the IndexedCorpus builder mutates only before any engine exists).
  /// Thread-safe.
  std::shared_ptr<const text::VocabularyIndex> VocabularyIndexSnapshot(
      int max_edit_distance) const EXCLUDES(vocab_snapshot_mu_);

  virtual const StatisticsTable& stats() const = 0;
  virtual const xml::NodeTypeTable& types() const = 0;
  virtual CooccurrenceTable& cooccurrence() const = 0;

  /// Read view of the source document — set for both uncompressed
  /// (xml::Document) and DAG-compressed (xml::DagDocument) corpora, so
  /// query-path consumers (expansion support mining, snippet rendering)
  /// work identically over compressed structure; nullptr for persisted
  /// corpora.
  virtual const xml::DocumentView* document_view() const { return nullptr; }

  /// Snapshot epoch: monotonically increasing stamp that changes whenever
  /// the content this source serves could differ from what it served
  /// before. Every source here serves an immutable snapshot, so only tests
  /// bump it today; it is the hook a future incremental-ingest commit
  /// would use. Derived caches — notably core::RefinementCache — key their
  /// entries by this value and invalidate wholesale on a mismatch, so a
  /// stale refinement result can never outlive the index state it was
  /// computed from.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Forces an epoch bump; lets tests exercise derived-cache invalidation
  /// without reproducing a real mutation.
  void BumpEpochForTesting() const { BumpEpoch(); }

 protected:
  /// Implementations call this after any change observable through the
  /// read API.
  void BumpEpoch() const { epoch_.fetch_add(1, std::memory_order_acq_rel); }

 private:
  mutable std::atomic<uint64_t> epoch_{0};

  // One snapshot per requested edit distance (in practice one or two
  // distinct values process-wide). Built under the mutex: construction is
  // a one-time engine-startup cost and serialising it prevents duplicate
  // builds racing.
  mutable Mutex vocab_snapshot_mu_{kLockRankVocabSnapshot,
                                   "IndexSource::vocab_snapshot_mu_"};
  mutable std::map<int, std::shared_ptr<const text::VocabularyIndex>>
      vocab_snapshots_ GUARDED_BY(vocab_snapshot_mu_);
};

}  // namespace xrefine::index

#endif  // XREFINE_INDEX_INDEX_SOURCE_H_
