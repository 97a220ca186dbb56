// Scan-phase benchmark: SLCA computation over a store-backed source, the
// path the scan overhaul targets. Both configurations serve the same corpus
// and query set from one store of blocked (v3) records:
//
//   --baseline   Scan Eager cursor probes (the pre-overhaul discipline,
//                kept as SlcaAlgorithm::kScanEager for exactly this
//                ablation);
//   (default)    Indexed Lookup Eager with galloping resume-hint probes.
//
// Whatever the timed configuration, the run cross-checks every query's
// SLCA results against the other kernel and aborts on any divergence — the
// speedup claim is only meaningful if the answers are byte-identical.
//
// The query set is skew-stratified (rare anchor + common long lists — the
// XKSearch regime the galloping probes exploit — plus balanced controls),
// each query is timed individually, and mean/p95 land in the registry dump
// (BENCH_scan.json) as bench.scan.* gauges alongside the slca.* and
// index.cache_* counters.
//
//   --quick      small corpus, fewer rounds; also runs a multi-threaded
//                phase (shared source, concurrent scans) so the TSan leg of
//                tools/check_build_matrix.sh gets real contention to chew on.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "index/index_store.h"
#include "index/store_index_source.h"
#include "slca/slca.h"
#include "storage/kvstore.h"

namespace xrefine::bench {
namespace {

struct FileRemover {
  std::string path;
  ~FileRemover() { std::remove(path.c_str()); }
};

// One SLCA query with a human-readable skew class.
struct ScanQuery {
  const char* klass;
  std::vector<std::string> terms;
};

// Stratifies the vocabulary by list length and assembles rare+common and
// balanced query mixes.
std::vector<ScanQuery> MakeQuerySet(const index::IndexedCorpus& corpus,
                                    size_t per_class) {
  std::vector<std::pair<size_t, std::string>> by_size;
  for (const std::string& k : corpus.index().Vocabulary()) {
    size_t n = corpus.index().ListSize(k);
    if (n == 0) continue;
    by_size.emplace_back(n, k);
  }
  std::sort(by_size.begin(), by_size.end());
  auto at = [&](double pct) -> const std::string& {
    size_t i = static_cast<size_t>(pct * static_cast<double>(by_size.size()));
    return by_size[std::min(i, by_size.size() - 1)].second;
  };
  std::vector<ScanQuery> out;
  for (size_t i = 0; i < per_class; ++i) {
    double j = static_cast<double>(i);
    // The XKSearch regime and the dominant shape of XML keyword queries: a
    // selective content word against the corpus's longest lists (frequent
    // terms / structural words). This is what the galloping probes target —
    // anchors must come from the true head of the distribution and common
    // lists from the true tail, or every class degenerates into a balanced
    // control.
    out.push_back(
        {"rare+common", {at(0.010 + 0.010 * j), at(0.998 - 0.004 * j)}});
    out.push_back({"rare+common+common",
                   {at(0.020 + 0.010 * j), at(0.990 - 0.004 * j),
                    at(0.998 - 0.004 * j)}});
    // Balanced lists: the regime where scan-eager used to be preferred —
    // the overhaul must not regress it.
    out.push_back({"balanced-mid",
                   {at(0.55 + 0.02 * j), at(0.60 + 0.02 * j),
                    at(0.65 + 0.02 * j)}});
    out.push_back({"balanced-common", {at(0.85 + 0.01 * j), at(0.88 - 0.01 * j)}});
  }
  return out;
}

// Flattens SLCA results for byte-identical comparison across configs.
std::string ResultKey(const std::vector<slca::SlcaResult>& results) {
  std::string key;
  for (const auto& r : results) {
    key += r.dewey.ToString();
    key += '#';
    key += std::to_string(r.type);
    key += '|';
  }
  return key;
}

StatusOr<std::unique_ptr<index::StoreBackedIndexSource>> OpenSource(
    storage::KVStore* store) {
  index::StoreIndexSourceOptions options;
  options.cache_capacity_bytes = 4u << 20;
  return index::StoreBackedIndexSource::Open(store, options);
}

bool Main(bool quick, bool baseline) {
  PrintHeader(baseline ? "Scan phase: BASELINE (scan-eager probes)"
                       : "Scan phase: galloping indexed lookups");
  // Full mode needs common lists long enough that the skewed classes probe
  // tens of thousands of postings — the regime the galloping overhaul is
  // for; a small corpus makes every class a balanced control.
  Env env = MakeDblpEnv(quick ? 400 : 6000);
  auto queries = MakeQuerySet(*env.corpus, quick ? 2 : 6);
  const int rounds = quick ? 3 : 9;

  const slca::SlcaAlgorithm timed_algorithm =
      baseline ? slca::SlcaAlgorithm::kScanEager
               : slca::SlcaAlgorithm::kIndexedLookup;
  const slca::SlcaAlgorithm other_algorithm =
      baseline ? slca::SlcaAlgorithm::kIndexedLookup
               : slca::SlcaAlgorithm::kScanEager;

  const std::string path = "bench_scan.xrdb";
  FileRemover remover{path};
  std::remove(path.c_str());
  auto store_or = storage::KVStore::Open(path);
  if (!store_or.ok()) {
    std::printf("store open failed\n");
    return false;
  }
  if (!index::SaveCorpus(*env.corpus, store_or.value().get()).ok()) {
    std::printf("save failed\n");
    return false;
  }
  auto source_or = OpenSource(store_or.value().get());
  if (!source_or.ok()) {
    std::printf("source open failed\n");
    return false;
  }
  auto& source = *source_or.value();

  // Correctness gate first: byte-identical SLCA results from both kernels.
  size_t verified = 0;
  for (const ScanQuery& q : queries) {
    auto timed_or = slca::ComputeSlcaForQuery(
        q.terms, source, source.types(), timed_algorithm);
    auto other_or = slca::ComputeSlcaForQuery(
        q.terms, source, source.types(), other_algorithm);
    if (!timed_or.ok() || !other_or.ok()) {
      std::printf("FETCH FAILED during verification\n");
      return false;
    }
    if (ResultKey(timed_or.value()) != ResultKey(other_or.value())) {
      std::printf("RESULT DIVERGENCE on query class %s\n", q.klass);
      return false;
    }
    ++verified;
  }
  std::printf("verified: %zu/%zu queries byte-identical across kernels\n",
              verified, queries.size());

  // Timed phase (lists are now cache-hot: this times the scan, not I/O).
  metrics::Registry& reg = metrics::Registry::Global();
  metrics::Histogram* per_query = reg.histogram("bench.scan.query_us");
  double total_ms = 0;
  std::printf("%-22s %-24s %12s\n", "class", "list sizes", "best us/query");
  for (const ScanQuery& q : queries) {
    std::string sizes;
    for (const std::string& k : q.terms) {
      if (!sizes.empty()) sizes += "/";
      sizes += std::to_string(env.corpus->index().ListSize(k));
    }
    double ms = 1e9;
    for (int round = 0; round < rounds; ++round) {
      Timer t;
      auto results_or = slca::ComputeSlcaForQuery(
          q.terms, source, source.types(), timed_algorithm);
      double elapsed = t.ElapsedMillis();
      if (!results_or.ok()) {
        std::printf("FETCH FAILED during timing\n");
        return false;
      }
      ms = std::min(ms, elapsed);  // best-of-rounds: steady-state scan cost
    }
    per_query->Record(static_cast<uint64_t>(ms * 1e3));
    total_ms += ms;
    std::printf("%-22s %-24s %12.1f\n", q.klass, sizes.c_str(), ms * 1e3);
  }
  double mean_us = total_ms * 1e3 / static_cast<double>(queries.size());
  uint64_t p95_us = per_query->QuantileUpperBound(0.95);
  std::printf("mean %.1f us/query, p95 <= %llu us over %zu queries\n",
              mean_us, static_cast<unsigned long long>(p95_us),
              queries.size());
  reg.gauge("bench.scan.mean_us")->Set(static_cast<int64_t>(mean_us));
  reg.gauge("bench.scan.p95_us")->Set(static_cast<int64_t>(p95_us));
  reg.gauge("bench.scan.baseline")->Set(baseline ? 1 : 0);
  reg.gauge("bench.scan.quick")->Set(quick ? 1 : 0);

  // Concurrent phase: shared source, parallel scans. Functionally asserts
  // nothing new — it exists so the TSan build has concurrent galloping
  // scans, cache fetches, and single-flight decodes to examine.
  {
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    const size_t total = queries.size() * 4;
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
      workers.emplace_back([&] {
        while (true) {
          size_t i = next.fetch_add(1);
          if (i >= total) break;
          const ScanQuery& q = queries[i % queries.size()];
          auto results_or = slca::ComputeSlcaForQuery(
              q.terms, source, source.types(), timed_algorithm);
          if (!results_or.ok()) failed.store(true);
        }
      });
    }
    for (auto& w : workers) w.join();
    if (failed.load()) {
      std::printf("FETCH FAILED during concurrent phase\n");
      return false;
    }
    std::printf("concurrent phase: %zu scans across 4 threads OK\n", total);
  }

  std::ofstream out("BENCH_scan.json");
  out << reg.DumpJson();
  std::printf("metrics written to BENCH_scan.json\n");
  return true;
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
  return xrefine::bench::Main(quick, baseline) ? 0 : 1;
}
