// RefinementCache: memoises whole RefineOutcomes across queries. The
// refinement loop is interactive — users iterate on near-identical keyword
// queries — so a serving deployment sees massive repetition that the engine
// would otherwise recompute from scratch (DESIGN.md §16).
//
// Three pillars:
//   * Canonical keying. Entries are bucketed by the normalized query
//     (tokenized, stemmed, sorted, dedup'd via the existing text pipeline),
//     but a probe only hits when the stored query's exact terms match the
//     probe's: refined-query strings echo the user's exact spelling and
//     order, and the server's byte-identity guarantee depends on it. The
//     canonical key keeps all spellings of one information need in one
//     bucket; the exact-terms check keeps their outcomes distinct.
//   * Single-flight coalescing. N concurrent identical queries perform one
//     engine run: the first arrival becomes the leader and computes, later
//     arrivals wait on a per-key InFlight condvar (the pager's miss
//     protocol) and pin the shared result. A waiter whose own deadline or
//     cancel fires returns kDeadlineExceeded without disturbing anyone;
//     a leader that fails (deadline, store error) publishes no result and
//     the survivors elect a new leader instead of inheriting the failure.
//   * Epoch invalidation. Every entry is implicitly stamped with the
//     IndexSource snapshot epoch observed at insert; a probe that sees a
//     newer source epoch drops the whole map first (wholesale, not
//     per-entry: epoch bumps are rare — a future ingest commit — and
//     correctness beats retention there).
//
// Bounded by max_entries with TinyLFU admission: at capacity a new result
// only displaces the LRU victim when the sketch estimates the newcomer's
// canonical key as strictly hotter, so a burst of one-off queries cannot
// flush a hot working set.
//
// Thread-safe. mu_ (rank kLockRankResultCache) is a leaf: it is never held
// across the engine run, a store fetch, or a condvar wait.
#ifndef XREFINE_CORE_REFINEMENT_CACHE_H_
#define XREFINE_CORE_REFINEMENT_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/metrics.h"
#include "common/thread_annotations.h"
#include "core/refine_common.h"
#include "index/index_source.h"
#include "index/tinylfu.h"

namespace xrefine::core {

struct ResultCacheOptions {
  /// Consulted by XRefine (the cache object itself is always live once
  /// constructed): default off so library users and existing tests keep
  /// exact per-run engine semantics; the daemon and benches switch it on.
  bool enabled = false;
  /// Resident result bound; 0 = unbounded. Results are small (top-k ranked
  /// queries + their SLCA node lists), so a few thousand entries is cheap.
  size_t max_entries = 1024;
  /// Admission sketch sizing. Default 4K counters/row (~8.5 KiB total) —
  /// sized for max_entries in the thousands, far smaller than the
  /// posting-list cache's sketch.
  index::TinyLfuOptions admission{size_t{1} << 12, 0};
};

class RefinementCache {
 public:
  /// `source` must outlive the cache; its epoch() stamps every entry.
  RefinementCache(const index::IndexSource* source,
                  ResultCacheOptions options);

  RefinementCache(const RefinementCache&) = delete;
  RefinementCache& operator=(const RefinementCache&) = delete;

  using ComputeFn = std::function<RefineOutcome()>;

  /// The serving entry point: returns the cached outcome for `q` (under
  /// the current source epoch), joins an in-flight computation of the same
  /// exact query, or runs `compute` and publishes its result. `control`
  /// only governs this caller's willingness to wait — it is NOT passed to
  /// `compute` (the caller's closure captures its own control), and a
  /// stopped waiter returns StoppedOutcome without poisoning the flight.
  /// Non-OK outcomes are returned but never cached.
  RefineOutcome GetOrCompute(const Query& q, const RefineControl* control,
                             const ComputeFn& compute) EXCLUDES(mu_);

  /// Non-blocking probe for serving fast paths (the daemon's session reader
  /// answers repeated queries inline with this, skipping the worker queue).
  /// Returns the cached outcome on an exact-terms hit under the current
  /// epoch, nullptr otherwise — never joins or creates a flight, never
  /// waits beyond the leaf mutex. A hit accounts exactly like a
  /// GetOrCompute hit (cache.hits + query.cache_probe_us + LRU/LFU touch);
  /// a miss accounts NOTHING, so a caller that falls through to
  /// GetOrCompute still records one probe per request.
  std::shared_ptr<const RefineOutcome> TryGet(const Query& q) EXCLUDES(mu_);

  /// Drops every entry (engine rule-set changes: AttachQueryLog). In-flight
  /// computations still complete and serve their waiters, but their results
  /// are not inserted.
  void InvalidateAll() EXCLUDES(mu_);

  /// The canonical bucket key: terms re-tokenized, Porter-stemmed, sorted,
  /// dedup'd, joined with a non-token separator. Exposed for tests.
  static std::string CanonicalKey(const Query& q);

  size_t entries() const EXCLUDES(mu_);

 private:
  // The pager's single-flight miss protocol, per canonical key: the leader
  // computes off-lock and publishes under `mu` + notify_all; waiters poll
  // their own cancel/deadline with short timed waits (a condvar cannot
  // watch an external atomic). `result` stays null when the leader failed.
  struct InFlight {
    explicit InFlight(Query terms_in) : terms(std::move(terms_in)) {}
    const Query terms;  // exact terms the leader is computing
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const RefineOutcome> result;
  };

  struct Entry {
    Query terms;  // exact terms this outcome was computed from
    std::shared_ptr<const RefineOutcome> outcome;
    std::list<std::string>::iterator lru_it;
  };

  /// Clears the map when the source epoch moved since the last probe.
  void MaybeSweepEpochLocked() REQUIRES(mu_);
  /// TinyLFU-admitted bounded insert (front of LRU on success).
  void InsertLocked(const std::string& key, const Query& q,
                    std::shared_ptr<const RefineOutcome> outcome)
      REQUIRES(mu_);

  const index::IndexSource* source_;
  const ResultCacheOptions options_;

  metrics::Counter* hits_;
  metrics::Counter* misses_;
  metrics::Counter* coalesced_waits_;
  metrics::Counter* evictions_;
  metrics::Counter* epoch_invalidations_;
  metrics::Histogram* probe_us_;

  mutable Mutex mu_{kLockRankResultCache, "RefinementCache::mu_"};
  std::unordered_map<std::string, Entry> cache_ GUARDED_BY(mu_);
  std::list<std::string> lru_ GUARDED_BY(mu_);  // front = most recent
  index::TinyLfu lfu_ GUARDED_BY(mu_);
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_
      GUARDED_BY(mu_);
  /// Source epoch the resident entries were computed under.
  uint64_t seen_epoch_ GUARDED_BY(mu_) = 0;
  /// Bumped on every wholesale clear (epoch sweep or InvalidateAll): a
  /// compute that started before a clear must not insert its stale result.
  uint64_t generation_ GUARDED_BY(mu_) = 0;
};

}  // namespace xrefine::core

#endif  // XREFINE_CORE_REFINEMENT_CACHE_H_
