// Prepare-path benchmark: (1) spelling-candidate mining latency across
// vocabulary sizes through the deletion-neighborhood index, plus the
// index's build time and footprint; (2) posting-list cache hit rate on a
// hot/cold mixed fetch trace with TinyLFU admission on vs plain LRU.
//
// Flags:
//   --quick     small sizes and single timing runs — the build-matrix
//               (TSan) smoke configuration;
//   --baseline  the cache headline gauges (bench.rulegen.cache_hit_pct,
//               bench.rulegen.postscan_hot_hit_pct) report plain LRU.
//               Detail gauges for both caches are always emitted.
//
// The metrics registry (rules.spelling_probe_us, index.cache_admit/reject,
// the bench.rulegen.* curve points) is dumped to
// BENCH_rule_generation.json at exit.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/rule_generator.h"
#include "index/index_store.h"
#include "index/store_index_source.h"
#include "storage/kvstore.h"
#include "text/vocabulary_index.h"

namespace xrefine::bench {
namespace {

struct FileRemover {
  std::string path;
  ~FileRemover() { std::remove(path.c_str()); }
};

// --- phase 1: spelling-candidate mining -------------------------------------

// A corpus whose index holds `vocab_size` random words (lengths 4..10 over
// a..z) with skewed posting counts, so frequency actually participates in
// candidate ranking.
std::unique_ptr<index::IndexedCorpus> MakeSyntheticCorpus(size_t vocab_size,
                                                          Random* rng) {
  std::set<std::string> pool;
  while (pool.size() < vocab_size) {
    auto len = static_cast<size_t>(rng->Uniform(4, 10));
    std::string w;
    for (size_t i = 0; i < len; ++i) {
      w.push_back(static_cast<char>('a' + rng->Uniform(0, 25)));
    }
    pool.insert(w);
  }
  auto corpus = std::make_unique<index::IndexedCorpus>();
  uint32_t id = 0;
  for (const std::string& w : pool) {
    auto postings = static_cast<size_t>(1 + (id % 5));
    for (size_t p = 0; p < postings; ++p) {
      const uint32_t label[] = {0, id, static_cast<uint32_t>(p)};
      corpus->mutable_index().Append(w, xml::DeweyRef(label, 3), 0);
    }
    ++id;
  }
  return corpus;
}

// Single-term queries, each a 1-2 edit corruption of a corpus word that is
// itself out of the corpus (so the spelling family fires).
std::vector<core::Query> MakeTypoQueries(const index::IndexedCorpus& corpus,
                                         size_t n, Random* rng) {
  std::vector<std::string> words = corpus.Vocabulary();
  std::vector<core::Query> queries;
  while (queries.size() < n) {
    std::string typo =
        words[static_cast<size_t>(rng->Uniform(
            0, static_cast<int64_t>(words.size()) - 1))];
    int edits = static_cast<int>(rng->Uniform(1, 2));
    for (int e = 0; e < edits; ++e) {
      auto pos = static_cast<size_t>(
          rng->Uniform(0, static_cast<int64_t>(typo.size()) - 1));
      switch (rng->Uniform(0, 2)) {
        case 0:
          typo[pos] = static_cast<char>('a' + rng->Uniform(0, 25));
          break;
        case 1:
          typo.insert(typo.begin() + static_cast<std::ptrdiff_t>(pos),
                      static_cast<char>('a' + rng->Uniform(0, 25)));
          break;
        default:
          typo.erase(pos, 1);
          break;
      }
    }
    if (typo.size() >= 4 && !corpus.Contains(typo)) {
      queries.push_back(core::Query{typo});
    }
  }
  return queries;
}

void BenchSpelling(size_t vocab_size, size_t num_queries, int runs) {
  Random rng(vocab_size);  // per-size determinism
  auto corpus = MakeSyntheticCorpus(vocab_size, &rng);
  text::Lexicon lexicon = text::Lexicon::BuiltIn();
  auto queries = MakeTypoQueries(*corpus, num_queries, &rng);

  // The shared VocabularyIndex snapshot (including the deletion-
  // neighborhood buckets) is built with the first generator; time it alone.
  core::RuleGeneratorOptions options;
  Timer build_timer;
  core::RuleGenerator generator(corpus.get(), &lexicon, options);
  double build_ms = build_timer.ElapsedMillis();

  double indexed_ms = TimeMs(
      [&] {
        for (const core::Query& q : queries) generator.GenerateFor(q);
      },
      runs);

  const text::SpellingIndex& spelling =
      corpus->VocabularyIndexSnapshot(options.max_edit_distance)->spelling();
  std::printf(
      "%7zu words: indexed %7.2f ms  build %7.1f ms  %8zu variants, "
      "%5.1f MiB\n",
      vocab_size, indexed_ms, build_ms, spelling.entry_count(),
      static_cast<double>(spelling.approximate_bytes()) / (1024.0 * 1024.0));

  auto& registry = metrics::Registry::Global();
  const std::string suffix = std::to_string(vocab_size) + "w";
  registry.gauge("bench.rulegen.indexed_us." + suffix)
      ->Set(static_cast<int64_t>(indexed_ms * 1e3));
  registry.gauge("bench.rulegen.build_ms." + suffix)
      ->Set(static_cast<int64_t>(build_ms));
  registry.gauge("bench.rulegen.index_bytes." + suffix)
      ->Set(static_cast<int64_t>(spelling.approximate_bytes()));
  registry.gauge("bench.rulegen.spelling_total_us")
      ->Set(static_cast<int64_t>(indexed_ms * 1e3));
}

// --- phase 2: cache admission on a hot/cold trace ---------------------------

struct TraceResult {
  double overall_hit_pct = 0;   // whole trace
  double postscan_hit_pct = 0;  // first hot sweep after the cold scan
};

double HitPct(uint64_t hits, uint64_t misses) {
  return hits + misses == 0 ? 0.0
                            : 100.0 * static_cast<double>(hits) /
                                  static_cast<double>(hits + misses);
}

// Drives `source` through the mixed trace: warm the hot set (3 rounds),
// run a one-pass cold scan, then sweep the hot set again. The post-scan
// sweep is the admission story in one number: ~100% when the scan could
// not evict the hot set, ~0% when it flushed it.
TraceResult RunCacheTrace(const index::StoreBackedIndexSource& source,
                          const std::vector<std::string>& hot,
                          const std::vector<std::string>& cold) {
  auto& registry = metrics::Registry::Global();
  auto& hits = *registry.counter("index.cache_hits");
  auto& misses = *registry.counter("index.cache_misses");
  uint64_t hits0 = hits.value();
  uint64_t misses0 = misses.value();

  for (int round = 0; round < 3; ++round) {
    for (const std::string& kw : hot) (void)source.FetchList(kw);
  }
  for (const std::string& kw : cold) (void)source.FetchList(kw);

  uint64_t hits1 = hits.value();
  uint64_t misses1 = misses.value();
  for (const std::string& kw : hot) (void)source.FetchList(kw);
  TraceResult result;
  result.postscan_hit_pct =
      HitPct(hits.value() - hits1, misses.value() - misses1);
  result.overall_hit_pct =
      HitPct(hits.value() - hits0, misses.value() - misses0);
  return result;
}

void BenchCacheAdmission(bool quick, bool baseline) {
  PrintHeader("Posting-list cache: hot/cold trace hit rate");
  Env env = MakeDblpEnv(quick ? 120 : 400);
  const std::string path = "bench_rule_generation.xrdb";
  FileRemover remover{path};
  std::remove(path.c_str());
  {
    auto store_or = storage::KVStore::Open(path);
    if (!store_or.ok() ||
        !index::SaveCorpus(*env.corpus, store_or.value().get()).ok()) {
      std::printf("store setup failed; skipping cache phase\n");
      return;
    }
  }
  auto store_or = storage::KVStore::Open(path);
  if (!store_or.ok()) {
    std::printf("store reopen failed; skipping cache phase\n");
    return;
  }
  auto store = std::move(store_or).value();

  // Hot set: the most frequent keywords (realistically re-referenced);
  // cold set: everything else, touched once.
  auto probe_or = index::StoreBackedIndexSource::Open(store.get());
  if (!probe_or.ok()) {
    std::printf("source open failed; skipping cache phase\n");
    return;
  }
  std::vector<std::string> vocab = probe_or.value()->Vocabulary();
  std::sort(vocab.begin(), vocab.end(),
            [&](const std::string& a, const std::string& b) {
              return probe_or.value()->ListSize(a) >
                     probe_or.value()->ListSize(b);
            });
  size_t hot_count = std::min<size_t>(24, vocab.size() / 4);
  std::vector<std::string> hot(vocab.begin(),
                               vocab.begin() + static_cast<std::ptrdiff_t>(
                                                   hot_count));
  std::vector<std::string> cold(
      vocab.begin() + static_cast<std::ptrdiff_t>(hot_count), vocab.end());

  // Budget the cache to just fit the hot set (measured, not guessed).
  for (const std::string& kw : hot) (void)probe_or.value()->FetchList(kw);
  index::StoreIndexSourceOptions options;
  options.cache_capacity_bytes = probe_or.value()->cached_bytes() * 5 / 4;

  TraceResult admission;
  TraceResult lru;
  {
    auto source_or = index::StoreBackedIndexSource::Open(store.get(), options);
    if (!source_or.ok()) return;
    admission = RunCacheTrace(*source_or.value(), hot, cold);
  }
  {
    options.cache_admission = false;
    auto source_or = index::StoreBackedIndexSource::Open(store.get(), options);
    if (!source_or.ok()) return;
    lru = RunCacheTrace(*source_or.value(), hot, cold);
  }
  std::printf(
      "%zu hot / %zu cold keywords, %zu-byte budget\n"
      "overall hit rate:        TinyLFU admission %5.1f%%   plain LRU %5.1f%%\n"
      "hot sweep after scan:    TinyLFU admission %5.1f%%   plain LRU %5.1f%%\n",
      hot.size(), cold.size(), options.cache_capacity_bytes,
      admission.overall_hit_pct, lru.overall_hit_pct,
      admission.postscan_hit_pct, lru.postscan_hit_pct);

  auto& registry = metrics::Registry::Global();
  // Gauges carry tenths of a percent (the registry stores integers).
  registry.gauge("bench.rulegen.cache_hit_pct_admission")
      ->Set(static_cast<int64_t>(admission.overall_hit_pct * 10));
  registry.gauge("bench.rulegen.cache_hit_pct_lru")
      ->Set(static_cast<int64_t>(lru.overall_hit_pct * 10));
  registry.gauge("bench.rulegen.postscan_hot_hit_pct_admission")
      ->Set(static_cast<int64_t>(admission.postscan_hit_pct * 10));
  registry.gauge("bench.rulegen.postscan_hot_hit_pct_lru")
      ->Set(static_cast<int64_t>(lru.postscan_hit_pct * 10));
  const TraceResult& headline = baseline ? lru : admission;
  registry.gauge("bench.rulegen.cache_hit_pct")
      ->Set(static_cast<int64_t>(headline.overall_hit_pct * 10));
  registry.gauge("bench.rulegen.postscan_hot_hit_pct")
      ->Set(static_cast<int64_t>(headline.postscan_hit_pct * 10));
}

void Main(bool quick, bool baseline) {
  PrintHeader("Spelling-candidate mining: deletion-neighborhood index");
  const std::vector<size_t> sizes =
      quick ? std::vector<size_t>{500, 2000}
            : std::vector<size_t>{1000, 4000, 16000, 32000};
  size_t num_queries = quick ? 8 : 30;
  int runs = quick ? 1 : 3;
  for (size_t size : sizes) {
    BenchSpelling(size, num_queries, runs);
  }

  BenchCacheAdmission(quick, baseline);

  std::ofstream out("BENCH_rule_generation.json");
  out << metrics::Registry::Global().DumpJson();
  std::printf("metrics written to BENCH_rule_generation.json\n");
}

}  // namespace
}  // namespace xrefine::bench

int main(int argc, char** argv) {
  bool quick = false;
  bool baseline = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--baseline") == 0) baseline = true;
  }
  xrefine::bench::Main(quick, baseline);
  return 0;
}
