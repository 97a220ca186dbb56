#include "index/store_index_source.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "index/index_store.h"
#include "index/posting_blocks.h"

namespace xrefine::index {

namespace {

struct CacheMetrics {
  metrics::Counter* hits;
  metrics::Counter* misses;
  metrics::Counter* prefetched;
  metrics::Counter* admitted;
  metrics::Counter* rejected;
  metrics::Gauge* bytes;
};

const CacheMetrics& Metrics() {
  static const CacheMetrics m = [] {
    auto& r = metrics::Registry::Global();
    return CacheMetrics{r.counter("index.cache_hits"),
                        r.counter("index.cache_misses"),
                        r.counter("index.prefetch_lists"),
                        r.counter("index.cache_admit"),
                        r.counter("index.cache_reject"),
                        r.gauge("index.cache_bytes")};
  }();
  return m;
}

// Version byte plus one varint32: the longest record head DecodePostingCount
// can need.
constexpr size_t kCountPrefixBytes = 6;

// Scans the inverted-list keyspace, decoding only each record's head, and
// fills `sizes` with keyword -> posting count.
Status ScanListSizes(const storage::KVStore& store,
                     std::unordered_map<std::string, uint32_t>* sizes) {
  std::string prefix = InvertedListKey("");
  auto cursor = store.NewCursor();
  for (cursor.Seek(prefix); cursor.Valid(); cursor.Next()) {
    std::string_view key = cursor.key();
    if (key.substr(0, 2) != std::string_view(prefix)) break;
    std::string head = cursor.value_prefix(kCountPrefixBytes);
    XREFINE_RETURN_IF_ERROR(cursor.status());
    uint32_t count = 0;
    XREFINE_RETURN_IF_ERROR(DecodePostingCount(head, &count));
    sizes->emplace(std::string(key.substr(2)), count);
  }
  return cursor.status();
}

}  // namespace

StatusOr<std::unique_ptr<StoreBackedIndexSource>> StoreBackedIndexSource::Open(
    const storage::KVStore* store, StoreIndexSourceOptions options) {
  std::unique_ptr<StoreBackedIndexSource> source(
      new StoreBackedIndexSource(store, options));
  XREFINE_RETURN_IF_ERROR(LoadCorpusMetadata(
      *store, &source->types_, &source->stats_, &source->cooccurrence_));
  // Vocabulary + list sizes from the record heads only: value_prefix stops
  // after the count varint, so a corpus-sized store opens without decoding
  // (or even paging in) a single full list.
  XREFINE_RETURN_IF_ERROR(ScanListSizes(*store, &source->list_sizes_));
  return source;
}

StatusOr<PostingListHandle> StoreBackedIndexSource::FetchList(
    std::string_view keyword) const {
  return FetchListImpl(keyword, /*record_access=*/true);
}

StatusOr<PostingListHandle> StoreBackedIndexSource::FetchListImpl(
    std::string_view keyword, bool record_access) const {
  std::string key(keyword);
  if (list_sizes_.find(key) == list_sizes_.end()) {
    return PostingListHandle();  // absent keyword: OK, null handle
  }
  {
    MutexLock lock(&mu_);
    if (record_access) lfu_.RecordAccess(key);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      Metrics().hits->Increment();
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return PostingListHandle(it->second.list);
    }
  }
  Metrics().misses->Increment();

  // The store read (B-tree latch, then pager latch inside) runs with the
  // cache latch dropped; see the lock-order note in the header.
  auto value_or = store_->Get(InvertedListKey(keyword));
  if (!value_or.ok()) return value_or.status();
  auto list = std::make_shared<FlatPostingList>();
  XREFINE_RETURN_IF_ERROR(DecodePostingsFlat(value_or.value(), list.get()));
  // Cache entries live long; decode-time capacity slack would inflate the
  // byte budget, so trim before measuring.
  list->ShrinkToFit();
  size_t bytes = list->resident_bytes();

  MutexLock lock(&mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    // A concurrent miss on the same keyword inserted first; adopt its copy
    // so all handles share one list.
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return PostingListHandle(it->second.list);
  }

  // TinyLFU admission: inserting under eviction pressure is only allowed
  // when every victim that would have to go is strictly colder (lower
  // sketch frequency) than the candidate. A rejected candidate is still
  // served — it just isn't cached, so the one-pass cold scan it belongs to
  // cannot displace the hot working set. Running out of victims (the
  // candidate outweighs the whole cache) admits: the pre-admission code
  // also never refused the newest entry.
  if (options_.cache_admission && options_.cache_capacity_bytes != 0 &&
      cache_bytes_ + bytes > options_.cache_capacity_bytes &&
      !cache_.empty()) {
    uint64_t candidate_freq = lfu_.Estimate(key);
    size_t must_free = cache_bytes_ + bytes - options_.cache_capacity_bytes;
    size_t freed = 0;
    bool admit = true;
    for (auto vit = lru_.rbegin(); vit != lru_.rend() && freed < must_free;
         ++vit) {
      if (lfu_.Estimate(*vit) >= candidate_freq) {
        admit = false;
        break;
      }
      freed += cache_.find(*vit)->second.bytes;
    }
    if (!admit) {
      Metrics().rejected->Increment();
      return PostingListHandle(std::move(list));
    }
    Metrics().admitted->Increment();
  }

  lru_.push_front(key);
  CacheEntry entry;
  entry.list = list;
  entry.bytes = bytes;
  entry.lru_it = lru_.begin();
  cache_.emplace(std::move(key), std::move(entry));
  cache_bytes_ += bytes;
  // Evict coldest-first down to budget. The newest entry is never evicted
  // (size() > 1): a single list larger than the whole budget still serves
  // its current query from cache instead of thrashing.
  while (options_.cache_capacity_bytes != 0 &&
         cache_bytes_ > options_.cache_capacity_bytes && cache_.size() > 1) {
    auto vit = cache_.find(lru_.back());
    cache_bytes_ -= vit->second.bytes;
    cache_.erase(vit);
    lru_.pop_back();
  }
  Metrics().bytes->Set(static_cast<int64_t>(cache_bytes_));
  return PostingListHandle(std::move(list));
}

void StoreBackedIndexSource::Prefetch(
    const std::vector<std::string>& keywords) const {
  // Keep only keywords that exist and are not already resident: spawning a
  // thread to discover a cache hit would cost more than the hit saves.
  std::vector<const std::string*> missing;
  missing.reserve(keywords.size());
  {
    MutexLock lock(&mu_);
    for (const std::string& keyword : keywords) {
      if (list_sizes_.find(keyword) == list_sizes_.end() ||
          cache_.find(keyword) != cache_.end()) {
        continue;
      }
      missing.push_back(&keyword);
    }
  }
  if (missing.empty()) return;
  Metrics().prefetched->Increment(missing.size());

  // FetchList is internally synchronised and single-flights duplicate store
  // reads at the pager, so workers just pull keywords off a shared index.
  // Results land in the cache; the handles (and any errors) are dropped.
  // record_access=false: the caller is about to FetchList the same keyword
  // for real, and that fetch feeds the admission sketch — recording here
  // too would double-count cold keywords relative to cache-hit ones.
  auto fetch_all = [this, &missing](std::atomic<size_t>& next) {
    while (true) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= missing.size()) break;
      (void)FetchListImpl(*missing[i], /*record_access=*/false);
    }
  };
  std::atomic<size_t> next{0};
  if (missing.size() == 1) {
    fetch_all(next);  // nothing to overlap; skip the thread spawn
    return;
  }
  size_t workers = std::min<size_t>(4, missing.size());
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] { fetch_all(next); });
  }
  for (auto& t : threads) t.join();
}

bool StoreBackedIndexSource::Contains(std::string_view keyword) const {
  return ListSize(keyword) > 0;
}

size_t StoreBackedIndexSource::ListSize(std::string_view keyword) const {
  auto it = list_sizes_.find(std::string(keyword));
  return it == list_sizes_.end() ? 0 : it->second;
}

size_t StoreBackedIndexSource::keyword_count() const {
  return list_sizes_.size();
}

void StoreBackedIndexSource::ForEachKeyword(
    const std::function<void(std::string_view)>& fn) const {
  for (const auto& [keyword, unused_size] : list_sizes_) fn(keyword);
}

}  // namespace xrefine::index
