// StoreBackedIndexSource: serves queries straight out of the persistent KV
// store, fetching each keyword's inverted list on demand — the paper's own
// serving model, where a keyword lookup is a Berkeley DB B-tree get
// (Section VII). Opening a source loads only the small metadata (node
// types, statistics, co-occurrence cache) plus a per-keyword size map;
// posting lists are decoded lazily and kept in a bounded LRU cache with
// TinyLFU admission (frequency-sketch-gated eviction, tinylfu.h), so the
// resident set is the cache budget + the pager's buffer pool, independent
// of corpus size, and a one-pass cold scan cannot flush the hot set.
#ifndef XREFINE_INDEX_STORE_INDEX_SOURCE_H_
#define XREFINE_INDEX_STORE_INDEX_SOURCE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "index/cooccurrence.h"
#include "index/index_source.h"
#include "index/statistics.h"
#include "index/tinylfu.h"
#include "storage/kvstore.h"
#include "xml/node_type.h"

namespace xrefine::index {

struct StoreIndexSourceOptions {
  /// Budget for decoded posting lists kept hot, in (approximate) resident
  /// bytes. Eviction is LRU and never blocks readers: evicted lists stay
  /// alive for as long as any handed-out PostingListHandle pins them.
  /// 0 = unbounded.
  size_t cache_capacity_bytes = 16u << 20;
  /// TinyLFU admission (default-sized sketch): on eviction pressure a cold
  /// candidate only displaces victims whose sketch frequency is strictly
  /// lower, so a one-pass cold scan cannot flush the hot working set.
  /// Off = plain LRU (every miss is admitted), the baseline
  /// bench_rule_generation compares admission against.
  bool cache_admission = true;
};

/// Thread-safe for concurrent readers. The vocabulary map is written only
/// by Open and read with no latch. Lock order: the source's cache latch
/// is leaf-level on the hit path and is never held across a store fetch —
/// a miss reads the store (B-tree latch, then pager latch) unlocked and
/// re-acquires the cache latch only to insert, so cache latch and store
/// latches are never held together.
class StoreBackedIndexSource : public IndexSource {
 public:
  /// Boots a source over `store` (which must outlive it): loads metadata
  /// and scans the inverted-list keyspace for the vocabulary and per-list
  /// posting counts, reading only each record's first bytes. A record head
  /// that does not decode fails the open.
  [[nodiscard]] static StatusOr<std::unique_ptr<StoreBackedIndexSource>> Open(
      const storage::KVStore* store, StoreIndexSourceOptions options = {});

  StoreBackedIndexSource(const StoreBackedIndexSource&) = delete;
  StoreBackedIndexSource& operator=(const StoreBackedIndexSource&) = delete;

  // --- IndexSource ---

  StatusOr<PostingListHandle> FetchList(
      std::string_view keyword) const override;
  /// Warms the posting-list cache for every not-yet-cached keyword, fetching
  /// up to four lists concurrently (each fetch misses into the store, where
  /// the B+-tree's shared latch and the pager's sharded pool let them
  /// proceed in parallel). Fetch errors are swallowed: the same error
  /// resurfaces from the caller's own FetchList.
  void Prefetch(const std::vector<std::string>& keywords) const override;
  bool Contains(std::string_view keyword) const override;
  size_t ListSize(std::string_view keyword) const override;
  size_t keyword_count() const override;
  void ForEachKeyword(
      const std::function<void(std::string_view)>& fn) const override;

  const StatisticsTable& stats() const override { return stats_; }
  const xml::NodeTypeTable& types() const override { return types_; }
  CooccurrenceTable& cooccurrence() const override { return cooccurrence_; }

  // --- cache introspection (tests, benches) ---

  size_t cached_lists() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return cache_.size();
  }
  size_t cached_bytes() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return cache_bytes_;
  }
  /// Whether `keyword`'s list is resident right now (tests assert the hot
  /// working set survives a cold scan under admission).
  bool IsCachedForTesting(std::string_view keyword) const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return cache_.find(std::string(keyword)) != cache_.end();
  }

 private:
  struct CacheEntry {
    std::shared_ptr<const FlatPostingList> list;
    size_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };

  explicit StoreBackedIndexSource(const storage::KVStore* store,
                                  StoreIndexSourceOptions options)
      : store_(store),
        options_(options),
        cooccurrence_(this, &types_) {}

  /// The one fetch path; `record_access` separates real query fetches
  /// (which feed the admission sketch) from advisory Prefetch warming
  /// (which must not double-count a keyword the caller is about to fetch).
  StatusOr<PostingListHandle> FetchListImpl(std::string_view keyword,
                                            bool record_access) const
      EXCLUDES(mu_);

  const storage::KVStore* store_;  // not owned
  StoreIndexSourceOptions options_;

  // Immutable after Open(): metadata, so stats()/types() never take a
  // latch.
  xml::NodeTypeTable types_;
  StatisticsTable stats_;
  mutable CooccurrenceTable cooccurrence_;

  // Vocabulary: keyword -> posting count, filled by Open from every record
  // head and immutable afterwards, so it is read with no latch.
  std::unordered_map<std::string, uint32_t> list_sizes_;

  // Bounded LRU over decoded lists. shared_ptr ownership lets eviction
  // proceed while queries still scan the evicted list through their pins.
  mutable Mutex mu_{kLockRankStoreSourceCache, "StoreBackedIndexSource::mu_"};
  mutable std::unordered_map<std::string, CacheEntry> cache_ GUARDED_BY(mu_);
  mutable std::list<std::string> lru_ GUARDED_BY(mu_);  // front = hottest
  mutable size_t cache_bytes_ GUARDED_BY(mu_) = 0;
  // Admission sketch; advises eviction decisions under the same latch as
  // the LRU it protects.
  mutable TinyLfu lfu_ GUARDED_BY(mu_);
};

}  // namespace xrefine::index

#endif  // XREFINE_INDEX_STORE_INDEX_SOURCE_H_
