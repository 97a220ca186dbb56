// Tests for the metrics layer: counter/gauge/histogram semantics, registry
// identity and dumps, thread safety, and the end-to-end flow of query-path
// counters through a corpus save/load round trip under eviction pressure.
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "core/xrefine.h"
#include "index/index_builder.h"
#include "index/index_store.h"
#include "storage/kvstore.h"
#include "tests/test_helpers.h"
#include "text/lexicon.h"
#include "workload/dblp_generator.h"

namespace xrefine::metrics {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAddAndNegativeValues) {
  Gauge g;
  g.Set(10);
  g.Add(-25);
  EXPECT_EQ(g.value(), -15);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(HistogramTest, BucketBoundsAreLogLinear) {
  // Exact region: one bucket per value below kSubBuckets.
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 3u);
  // First octave [4, 8): four sub-buckets of width 1.
  EXPECT_EQ(Histogram::BucketUpperBound(4), 4u);
  EXPECT_EQ(Histogram::BucketUpperBound(7), 7u);
  // Octave [8, 16): sub-buckets of width 2 ending at 9/11/13/15.
  EXPECT_EQ(Histogram::BucketUpperBound(8), 9u);
  EXPECT_EQ(Histogram::BucketUpperBound(11), 15u);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1),
            UINT64_MAX);
  // Bounds are strictly increasing across the whole range.
  for (size_t i = 1; i < Histogram::kNumBuckets; ++i) {
    EXPECT_GT(Histogram::BucketUpperBound(i), Histogram::BucketUpperBound(i - 1))
        << "bucket " << i;
  }
}

TEST(HistogramTest, RecordsIntoCorrectBuckets) {
  Histogram h;
  h.Record(0);     // bucket 0
  h.Record(1);     // bucket 1
  h.Record(2);     // bucket 2
  h.Record(3);     // bucket 3
  h.Record(1024);  // first sub-bucket of octave 10
  h.Record(UINT64_MAX);  // overflow bucket
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  size_t b1024 = Histogram::kSubBuckets +
                 (10 - Histogram::kSubBucketBits) * Histogram::kSubBuckets;
  EXPECT_EQ(h.bucket_count(b1024), 1u);
  EXPECT_EQ(h.bucket_count(Histogram::kNumBuckets - 1), 1u);
  EXPECT_EQ(h.count(), 6u);
}

TEST(HistogramTest, MeanAndQuantiles) {
  Histogram h;
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.QuantileUpperBound(0.5), 0u);
  for (int i = 0; i < 99; ++i) h.Record(3);  // exact bucket, bound 3
  h.Record(5000);  // octave 12, first sub-bucket: bound 5119
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.mean(), (99.0 * 3 + 5000) / 100, 1e-9);
  EXPECT_EQ(h.QuantileUpperBound(0.5), 3u);
  EXPECT_EQ(h.QuantileUpperBound(0.99), 3u);
  EXPECT_EQ(h.QuantileUpperBound(1.0), 5119u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

TEST(HistogramTest, QuantileBoundWithin25PercentOfSample) {
  // The regression the sub-bucketing fixes: with pure power-of-two buckets
  // a p50 of 1100us reported as 2048us, masking any <2x change. Every
  // reported bound must now sit within 25% above the recorded value.
  for (uint64_t v : {5u, 23u, 100u, 1000u, 1100u, 30000u, 40000u, 1000000u}) {
    Histogram h;
    h.Record(v);
    uint64_t bound = h.QuantileUpperBound(0.5);
    EXPECT_GE(bound, v);
    EXPECT_LE(bound, v + v / 4) << "value " << v << " bound " << bound;
  }
}

TEST(HistogramTest, QuantileEdgeCases) {
  // The contract pinned after the serving-path sweep: empty histograms and
  // out-of-domain q values return defined sentinels, never garbage or UB.
  Histogram empty;
  EXPECT_EQ(empty.QuantileUpperBound(0.0), 0u);
  EXPECT_EQ(empty.QuantileUpperBound(0.5), 0u);
  EXPECT_EQ(empty.QuantileUpperBound(1.0), 0u);

  Histogram h;
  h.Record(2);
  h.Record(7);
  h.Record(100);
  // q=0 is the smallest recorded sample's bucket bound, q=1 the largest's.
  EXPECT_EQ(h.QuantileUpperBound(0.0), 2u);
  EXPECT_GE(h.QuantileUpperBound(1.0), 100u);
  // Out-of-range q clamps instead of under/overflowing the rank.
  EXPECT_EQ(h.QuantileUpperBound(-3.0), h.QuantileUpperBound(0.0));
  EXPECT_EQ(h.QuantileUpperBound(7.5), h.QuantileUpperBound(1.0));
  // NaN (a division artifact upstream) reads as q=0 — the double->uint64
  // cast of a NaN-derived rank was the original UB.
  EXPECT_EQ(h.QuantileUpperBound(std::nan("")),
            h.QuantileUpperBound(0.0));
}

TEST(RegistryTest, SameNameReturnsSamePointer) {
  Registry& r = Registry::Global();
  Counter* a = r.counter("test.registry.identity");
  Counter* b = r.counter("test.registry.identity");
  EXPECT_EQ(a, b);
  EXPECT_NE(static_cast<void*>(r.gauge("test.registry.identity")),
            static_cast<void*>(a));  // per-kind namespaces
}

TEST(RegistryTest, ResetAllZeroesButKeepsPointers) {
  Registry& r = Registry::Global();
  Counter* c = r.counter("test.registry.reset");
  Histogram* h = r.histogram("test.registry.reset_hist");
  c->Increment(7);
  h->Record(100);
  r.ResetAll();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(r.counter("test.registry.reset"), c);
  EXPECT_EQ(r.histogram("test.registry.reset_hist"), h);
}

TEST(RegistryTest, DumpsContainRegisteredMetrics) {
  Registry& r = Registry::Global();
  r.counter("test.dump.counter")->Increment(3);
  r.gauge("test.dump.gauge")->Set(-4);
  r.histogram("test.dump.hist")->Record(10);
  std::string json = r.DumpJson();
  EXPECT_NE(json.find("\"test.dump.counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.dump.gauge\": -4"), std::string::npos);
  EXPECT_NE(json.find("\"test.dump.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  std::ostringstream text;
  r.DumpText(text);
  EXPECT_NE(text.str().find("test.dump.counter = 3"), std::string::npos);
}

TEST(RegistryTest, ConcurrentIncrementsDontLoseUpdates) {
  Registry& r = Registry::Global();
  Counter* c = r.counter("test.concurrent.counter");
  Histogram* h = r.histogram("test.concurrent.hist");
  c->Reset();
  h->Reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      // Mix registration (map lookups under the mutex) with updates.
      Counter* mine = Registry::Global().counter("test.concurrent.counter");
      for (int i = 0; i < kPerThread; ++i) {
        mine->Increment();
        h->Record(static_cast<uint64_t>(i % 100));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

// End-to-end: saving and loading a real corpus through a file-backed store
// whose buffer pool sits at the 16-page floor must preserve the index
// exactly while driving the pager and index-store counters.
TEST(MetricsIntegrationTest, CorpusRoundTripUnderEvictionPressure) {
  workload::DblpOptions options;
  options.num_authors = 120;
  xml::Document doc = workload::GenerateDblp(options);
  auto built = index::BuildIndex(doc);

  std::string path = ::testing::TempDir() + "/metrics_roundtrip.xrdb";
  std::remove(path.c_str());
  {
    auto store = storage::KVStore::Open(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(index::SaveCorpus(*built, store->get()).ok());
  }

  Registry& r = Registry::Global();
  r.ResetAll();

  storage::PagerOptions pager_options;
  pager_options.max_cached_pages = 1;  // raised to the 16-page floor
  auto store = storage::KVStore::Open(path, pager_options);
  ASSERT_TRUE(store.ok());
  auto loaded_or = index::LoadCorpus(*store.value());
  ASSERT_TRUE(loaded_or.ok());
  auto loaded = std::move(loaded_or).value();

  // Data integrity: identical vocabulary and posting counts.
  ASSERT_EQ(loaded->index().keyword_count(), built->index().keyword_count());
  for (const auto& [keyword, list] : built->index().lists()) {
    const index::FlatPostingList* loaded_list = loaded->index().Find(keyword);
    ASSERT_NE(loaded_list, nullptr) << keyword;
    ASSERT_EQ(loaded_list->size(), list.size()) << keyword;
    EXPECT_TRUE(*loaded_list == list) << keyword;
  }
  EXPECT_EQ(loaded->types().size(), built->types().size());

  // Counter values: one decoded list per keyword; a corpus much larger than
  // 16 pages cannot be scanned without misses and evictions; every fetch is
  // a hit or a miss.
  const storage::Pager& pager = store.value()->pager();
  EXPECT_EQ(r.counter("index.list_fetches")->value(),
            built->index().keyword_count());
  EXPECT_GT(r.counter("index.bytes_decoded")->value(), 0u);
  EXPECT_GT(pager.page_count(), 16u);
  EXPECT_GT(pager.cache_misses(), 0u);
  EXPECT_GT(pager.evictions(), 0u);
  EXPECT_LE(pager.cached_pages(), 16u);
  EXPECT_EQ(r.counter("pager.cache_hits")->value() +
                r.counter("pager.cache_misses")->value(),
            pager.cache_hits() + pager.cache_misses());
  EXPECT_EQ(r.counter("pager.evictions")->value(), pager.evictions());
  EXPECT_GT(r.counter("btree.node_reads")->value(), 0u);
  EXPECT_GT(r.counter("btree.cursor_steps")->value(), 0u);
  EXPECT_EQ(r.counter("pager.writeback_failures")->value(), 0u);
  EXPECT_TRUE(pager.status().ok());

  std::remove(path.c_str());
}

// Scan-phase accounting audit: every query records its stage timings
// exactly once, and the registry's SLCA tallies reconcile with the
// per-outcome RefineStats — no double counting on the partition path (with
// or without pruning) and no missed recording on repeat (cached-rule)
// queries.
class ScanAccountingTest : public ::testing::Test {
 protected:
  struct Snapshot {
    uint64_t query_count, slca_calls, elements_scanned, lookups;
    uint64_t scan_records, prepare_records, rank_records, total_records;
  };

  static Snapshot Take() {
    Registry& r = Registry::Global();
    return Snapshot{r.counter("query.count")->value(),
                    r.counter("slca.calls")->value(),
                    r.counter("slca.elements_scanned")->value(),
                    r.counter("slca.lookups")->value(),
                    r.histogram("query.scan_us")->count(),
                    r.histogram("query.prepare_us")->count(),
                    r.histogram("query.rank_us")->count(),
                    r.histogram("query.total_us")->count()};
  }

  static void ExpectOneQuery(const Snapshot& before, const Snapshot& after,
                             const core::RefineOutcome& outcome) {
    EXPECT_EQ(after.query_count, before.query_count + 1);
    EXPECT_EQ(after.scan_records, before.scan_records + 1);
    EXPECT_EQ(after.prepare_records, before.prepare_records + 1);
    EXPECT_EQ(after.rank_records, before.rank_records + 1);
    EXPECT_EQ(after.total_records, before.total_records + 1);
    // The registry's call tally must equal the outcome's own count: each
    // candidate-RQ / partition SLCA computation is counted exactly once.
    EXPECT_EQ(after.slca_calls - before.slca_calls,
              outcome.stats.slca_calls);
    if (outcome.stats.slca_calls > 0) {
      // Any SLCA work consumes postings and probes neighbour lists.
      EXPECT_GT(after.elements_scanned, before.elements_scanned);
      EXPECT_GT(after.lookups, before.lookups);
    }
  }
};

TEST_F(ScanAccountingTest, PartitionPathRecordsOncePerQuery) {
  auto corpus = testutil::MakeFigure1Corpus();
  auto lexicon = text::Lexicon::BuiltIn();
  for (bool prune : {true, false}) {
    core::XRefineOptions options;
    options.prune_partitions = prune;
    core::XRefine engine(corpus.index.get(), &lexicon, options);
    // Repeat the same query: the second run reuses mined rules but must
    // still record each stage exactly once.
    for (int run = 0; run < 2; ++run) {
      Snapshot before = Take();
      auto outcome = engine.RunText("databse xml");
      ASSERT_TRUE(outcome.status.ok());
      EXPECT_GT(outcome.stats.slca_calls, 0u);
      ExpectOneQuery(before, Take(), outcome);
    }
  }
}

TEST_F(ScanAccountingTest, AllRefineAlgorithmsReconcile) {
  auto corpus = testutil::MakeFigure1Corpus();
  auto lexicon = text::Lexicon::BuiltIn();
  for (core::RefineAlgorithm algorithm :
       {core::RefineAlgorithm::kStackRefine, core::RefineAlgorithm::kPartition,
        core::RefineAlgorithm::kShortListEager}) {
    core::XRefineOptions options;
    options.algorithm = algorithm;
    core::XRefine engine(corpus.index.get(), &lexicon, options);
    Snapshot before = Take();
    auto outcome = engine.RunText("skyline stream");
    ASSERT_TRUE(outcome.status.ok());
    ExpectOneQuery(before, Take(), outcome);
  }
}

TEST_F(ScanAccountingTest, SlcaAlgorithmChoiceKeepsCallCountStable) {
  // Switching the SLCA kernel (scan-eager baseline vs galloping indexed
  // lookup) must not change how many ComputeSlca invocations a query makes
  // — only how much work each one does.
  auto corpus = testutil::MakeFigure1Corpus();
  auto lexicon = text::Lexicon::BuiltIn();
  std::vector<uint64_t> calls;
  for (slca::SlcaAlgorithm algorithm :
       {slca::SlcaAlgorithm::kScanEager, slca::SlcaAlgorithm::kIndexedLookup}) {
    core::XRefineOptions options;
    options.slca_algorithm = algorithm;
    core::XRefine engine(corpus.index.get(), &lexicon, options);
    Snapshot before = Take();
    auto outcome = engine.RunText("databse xml");
    ASSERT_TRUE(outcome.status.ok());
    Snapshot after = Take();
    ExpectOneQuery(before, after, outcome);
    calls.push_back(after.slca_calls - before.slca_calls);
  }
  EXPECT_EQ(calls[0], calls[1]);
}

// Result-cache accounting (DESIGN.md §16): per-stage query metrics count
// *computations*, not arrivals. A cache hit records cache.hits plus one
// query.cache_probe_us sample and nothing else; a coalesced burst of N
// identical queries records exactly one query.count bump and one set of
// per-stage histogram samples for the single engine run it performed.
TEST_F(ScanAccountingTest, ResultCacheHitRecordsNoPerStageMetrics) {
  auto corpus = testutil::MakeFigure1Corpus();
  auto lexicon = text::Lexicon::BuiltIn();
  core::XRefineOptions options;
  options.result_cache.enabled = true;
  core::XRefine engine(corpus.index.get(), &lexicon, options);
  Registry& r = Registry::Global();

  // Cold run: a normal computed query — one bump per stage, one miss.
  Snapshot before = Take();
  uint64_t misses_before = r.counter("cache.misses")->value();
  auto outcome = engine.RunText("databse xml");
  ASSERT_TRUE(outcome.status.ok());
  ExpectOneQuery(before, Take(), outcome);
  EXPECT_EQ(r.counter("cache.misses")->value(), misses_before + 1);

  // Hot run: served from the cache — the per-stage accounting must not
  // move at all; only the cache's own metrics do.
  Snapshot cold = Take();
  uint64_t hits_before = r.counter("cache.hits")->value();
  uint64_t probes_before = r.histogram("query.cache_probe_us")->count();
  auto hit = engine.RunText("databse xml");
  ASSERT_TRUE(hit.status.ok());
  Snapshot hot = Take();
  EXPECT_EQ(hot.query_count, cold.query_count);
  EXPECT_EQ(hot.scan_records, cold.scan_records);
  EXPECT_EQ(hot.prepare_records, cold.prepare_records);
  EXPECT_EQ(hot.rank_records, cold.rank_records);
  EXPECT_EQ(hot.total_records, cold.total_records);
  EXPECT_EQ(hot.slca_calls, cold.slca_calls);
  EXPECT_EQ(r.counter("cache.hits")->value(), hits_before + 1);
  EXPECT_EQ(r.histogram("query.cache_probe_us")->count(), probes_before + 1);
  // The served outcome is the computed one, stats included.
  EXPECT_EQ(hit.stats.slca_calls, outcome.stats.slca_calls);
}

TEST_F(ScanAccountingTest, CoalescedQueriesRecordOncePerComputation) {
  auto corpus = testutil::MakeFigure1Corpus();
  auto lexicon = text::Lexicon::BuiltIn();
  core::XRefineOptions options;
  options.result_cache.enabled = true;
  core::XRefine engine(corpus.index.get(), &lexicon, options);
  Registry& r = Registry::Global();

  constexpr int kThreads = 4;
  Snapshot before = Take();
  uint64_t hits_before = r.counter("cache.hits")->value();
  uint64_t misses_before = r.counter("cache.misses")->value();
  uint64_t waits_before = r.counter("cache.coalesced_waits")->value();

  std::vector<std::thread> threads;
  std::vector<core::RefineOutcome> outcomes(kThreads);
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&, i] { outcomes[i] = engine.Run({"skyline", "stream"}, nullptr); });
  }
  for (auto& t : threads) t.join();
  Snapshot after = Take();

  for (const auto& o : outcomes) ASSERT_TRUE(o.status.ok());
  // Scheduling decides how many arrivals coalesce vs hit a published entry,
  // but the invariant holds regardless: the per-stage accounting moved once
  // per *computation* (== cache.misses delta), and every arrival resolved
  // as exactly one of hit / coalesced wait / miss.
  uint64_t computed = r.counter("cache.misses")->value() - misses_before;
  ASSERT_GE(computed, 1u);
  EXPECT_EQ(after.query_count - before.query_count, computed);
  EXPECT_EQ(after.scan_records - before.scan_records, computed);
  EXPECT_EQ(after.prepare_records - before.prepare_records, computed);
  EXPECT_EQ(after.rank_records - before.rank_records, computed);
  EXPECT_EQ(after.total_records - before.total_records, computed);
  EXPECT_EQ((r.counter("cache.hits")->value() - hits_before) +
                (r.counter("cache.coalesced_waits")->value() - waits_before) +
                computed,
            static_cast<uint64_t>(kThreads));
}

}  // namespace
}  // namespace xrefine::metrics
