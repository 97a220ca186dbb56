// engine_cold: the in-process engine over an in-memory DBLP corpus with the
// result cache off. One caller runs a stream of distinct corrupted queries,
// closed loop, in passes: Partition gives the latency metrics, SLE and
// stack-refine run prefixes of the same stream for their throughput. Scan,
// the DP and SLCA do nearly all the work; server, result cache and storage
// do none.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "index/index_store.h"
#include "index/store_index_source.h"
#include "storage/kvstore.h"

namespace xrefine::perfbench {
namespace {

core::XRefineOptions EngineOptions(core::RefineAlgorithm algorithm) {
  core::XRefineOptions options;
  options.algorithm = algorithm;
  return options;
}

/// Everything one set-up round builds; members are declared in dependency
/// order so destruction releases engines before the data they point at.
struct EngineSetup {
  Corpus corpus;
  std::unique_ptr<storage::KVStore> store;
  std::unique_ptr<index::StoreBackedIndexSource> store_source;
  std::unique_ptr<core::XRefine> partition, sle, stack_refine, store_engine;
};

std::unique_ptr<EngineSetup> SetUp(const text::Lexicon& lexicon,
                                   size_t authors, const std::string& path,
                                   const std::vector<core::Query>& warm,
                                   SetupTimes* times, Report* report) {
  auto s = std::make_unique<EngineSetup>();
  s->corpus = MakeCorpus(authors, times);

  // The store backs only the answer cross-check and the space metric.
  auto start = Clock::now();
  std::remove(path.c_str());
  storage::PagerOptions pager;
  pager.max_cached_pages = 64;
  {
    auto store = storage::KVStore::Open(path, pager);
    if (!store.ok() ||
        !index::SaveCorpus(*s->corpus.index, store.value().get()).ok()) {
      report->Fail("could not save the corpus store");
      return nullptr;
    }
  }
  times->save_store += SecondsSince(start);

  start = Clock::now();
  auto store = storage::KVStore::Open(path, pager);
  if (!store.ok()) {
    report->Fail("could not reopen the corpus store");
    return nullptr;
  }
  s->store = std::move(store).value();
  index::StoreIndexSourceOptions source_options;
  source_options.cache_capacity_bytes = 256u << 10;
  auto source =
      index::StoreBackedIndexSource::Open(s->store.get(), source_options);
  if (!source.ok()) {
    report->Fail("could not open the store-backed source");
    return nullptr;
  }
  s->store_source = std::move(source).value();
  times->open_store += SecondsSince(start);

  start = Clock::now();
  const index::IndexSource* mem = s->corpus.index.get();
  s->partition = std::make_unique<core::XRefine>(
      mem, &lexicon, EngineOptions(core::RefineAlgorithm::kPartition));
  s->sle = std::make_unique<core::XRefine>(
      mem, &lexicon, EngineOptions(core::RefineAlgorithm::kShortListEager));
  s->stack_refine = std::make_unique<core::XRefine>(
      mem, &lexicon, EngineOptions(core::RefineAlgorithm::kStackRefine));
  s->store_engine = std::make_unique<core::XRefine>(
      s->store_source.get(), &lexicon,
      EngineOptions(core::RefineAlgorithm::kPartition));
  for (const core::Query& q : warm) {
    (void)s->partition->Run(q);
    (void)s->sle->Run(q);
    (void)s->stack_refine->Run(q);
  }
  times->warm += SecondsSince(start);
  return s;
}

/// Runs the first `n` queries in passes, one caller, closed loop, until
/// `seconds` have passed and at least two passes are complete; each pass
/// runs on the next CPU in turn. Returns each query's median latency over
/// the passes (see PassTimes), scaled to reference host speed when there
/// is a `probe` (see PassProbes). Every pass recomputes every query (the
/// result cache is off). The first pass's first `keep` outcomes go to
/// `kept`.
std::vector<double> MedianOfPasses(
    const core::XRefine& engine,
    const std::vector<workload::CorruptedQuery>& queries, size_t n,
    double seconds, HostProbe* probe, int* passes,
    std::vector<core::RefineOutcome>* kept, size_t keep) {
  PassTimes times;
  auto start = Clock::now();
  for (*passes = 0; *passes < 2 || SecondsSince(start) < seconds;
       ++*passes) {
    CpuRotation cpu(static_cast<size_t>(*passes), 1);
    PassProbes probes(probe);
    std::vector<double> us(n);
    for (size_t i = 0; i < n; ++i) {
      probes.Before(i);
      auto t0 = Clock::now();
      core::RefineOutcome out = engine.Run(queries[i].corrupted);
      us[i] = MicrosBetween(t0, Clock::now());
      if (*passes == 0 && kept != nullptr && i < keep) {
        kept->push_back(std::move(out));
      }
    }
    probes.End();
    times.Add(probes.Scale(std::move(us)));
  }
  return times.Medians();
}

double QueriesPerSecond(const std::vector<double>& us) {
  double total = 0;
  for (double v : us) total += v;
  return static_cast<double>(us.size()) * 1e6 / total;
}

/// Per-query sums of the engine's own RefineStats over a traced phase.
struct ScanTotals {
  double queries = 0, dp_calls = 0, slca_calls = 0, partitions_visited = 0,
         partitions_pruned = 0, candidates_enumerated = 0,
         candidates_pruned = 0, random_accesses = 0, nodes_popped = 0,
         rules = 0;
  void Add(const core::RefineOutcome& out) {
    queries += 1;
    dp_calls += static_cast<double>(out.stats.dp_calls);
    slca_calls += static_cast<double>(out.stats.slca_calls);
    partitions_visited += static_cast<double>(out.stats.partitions_visited);
    partitions_pruned += static_cast<double>(out.stats.partitions_pruned);
    candidates_enumerated +=
        static_cast<double>(out.stats.candidates_enumerated);
    candidates_pruned += static_cast<double>(out.stats.candidates_pruned);
    random_accesses += static_cast<double>(out.stats.random_accesses);
    nodes_popped += static_cast<double>(out.stats.nodes_popped);
  }
  double PerQuery(double v) const { return queries > 0 ? v / queries : 0; }
};

/// One traced query: Prepare and RunPrepared under a request span, with
/// the rank stage (timed by the engine itself) as the scan span's child.
/// `rules_span` also times a separate GenerateFor call, outside the
/// request span so the request stays comparable to an untraced Run.
core::RefineOutcome TracedQuery(const core::XRefine& engine,
                                const core::Query& q, uint64_t request,
                                const char* scan_name, const char* rank_name,
                                bool rules_span, Tracer* tracer,
                                double* request_us, double* rule_count) {
  if (rules_span) {
    auto t0 = Clock::now();
    core::RuleSet rules = engine.rule_generator().GenerateFor(q);
    tracer->Add("core.rules", t0, Clock::now(), -1, request);
    *rule_count += static_cast<double>(rules.size());
  }
  auto t0 = Clock::now();
  core::RefineInput input = engine.Prepare(q);
  auto t1 = Clock::now();
  core::RefineOutcome out = engine.RunPrepared(input);
  auto t2 = Clock::now();
  int64_t root = tracer->Add("request", t0, t2, -1, request);
  tracer->Add("core.prepare", t0, t1, root, request);
  int64_t scan = tracer->Add(scan_name, t1, t2, root, request);
  auto rank_start =
      t2 - std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double, std::milli>(
                   out.query_stats.rank_ms));
  tracer->Add(rank_name, std::max(rank_start, t1), t2, scan, request);
  *request_us = MicrosBetween(t0, t2);
  return out;
}

}  // namespace

int RunEngineCold(const RunConfig& config) {
  Report report;
  const text::Lexicon lexicon = text::Lexicon::BuiltIn();
  const size_t authors = config.fast ? 200 : 1500;
  const int setup_rounds = config.fast ? 1 : 9;
  // Queries per algorithm: Partition's set is large enough for a true p99;
  // SLE and stack-refine are 2x and 10x slower and run prefixes of it.
  const size_t n_partition = config.fast ? 100 : 2000;
  const size_t n_sle = config.fast ? 40 : 300;
  const size_t n_stack = config.fast ? 10 : 60;
  const size_t judged = config.fast ? 40 : 400;
  const size_t cross_checked = config.fast ? 8 : 24;
  const std::string path = config.work_dir + "/engine_cold.xrdb";

  HostProbe probe;
  std::vector<SetupTimes> rounds;
  std::unique_ptr<EngineSetup> s;
  for (int r = 0; r < setup_rounds; ++r) {
    CpuRotation cpu(static_cast<size_t>(r), 1);
    s.reset();
    SetupTimes times;
    const double probe_before = probe.Time();
    // Warm-up queries outside the workload; they build the engines'
    // lazily built vocabulary state.
    s = SetUp(lexicon, authors, path,
              {{"xml", "keyword", "search"}, {"databse", "query"}}, &times,
              &report);
    if (s == nullptr) return report.Finish({});
    times.host_scale =
        HostProbe::kReferenceUs / std::min(probe_before, probe.Time());
    rounds.push_back(times);
  }
  std::vector<workload::CorruptedQuery> queries =
      MakeQueries(s->corpus, lexicon, n_partition, MixSeed(config.seed, 1));
  if (queries.size() < n_partition) {
    report.Fail("query generator produced too few distinct queries");
    return report.Finish({});
  }

  // Cross-check a seeded sample against the store-backed engine: the same
  // corpus served through the B+-tree must answer identically.
  {
    Random rng(MixSeed(config.seed, 2));
    uint64_t mismatches = 0;
    for (size_t i = 0; i < cross_checked; ++i) {
      const auto& q = queries[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(queries.size()) - 1))];
      std::string expect = CanonicalOutcome(s->partition->Run(q.corrupted));
      if (config.perturb_reference && i == 0) expect += " perturbed";
      if (CanonicalOutcome(s->store_engine->Run(q.corrupted)) != expect) {
        ++mismatches;
        report.Note("store cross-check mismatch on '" +
                    JoinTerms(q.corrupted) + "'");
      }
    }
    report.CountAttempt(cross_checked, mismatches);
  }

  const double T = config.seconds;
  std::vector<core::RefineOutcome> kept;
  if (!config.trace) {
    int passes = 0;
    std::vector<double> typical =
        MedianOfPasses(*s->partition, queries, n_partition, 0.7 * T, &probe,
                       &passes, &kept, judged);
    Percentiles p = Summarize(typical);
    report.Set("p50_us", p.p50, "us");
    report.Set("p99_us", p.high, "us");
    report.Set("qps", QueriesPerSecond(typical), "1/s");
    char line[200];
    std::snprintf(line, sizeof(line),
                  "Partition: %zu queries x %d passes, high percentile p%.0f",
                  typical.size(), passes, p.high_pct);
    report.Note(line);
    typical = MedianOfPasses(*s->sle, queries, n_sle, 0.1 * T, &probe,
                             &passes, nullptr, 0);
    report.Set("sle_qps", QueriesPerSecond(typical), "1/s");
    std::snprintf(line, sizeof(line), "SLE: %zu queries x %d passes",
                  typical.size(), passes);
    report.Note(line);
    typical = MedianOfPasses(*s->stack_refine, queries, n_stack, 0.1 * T,
                             &probe, &passes, nullptr, 0);
    report.Set("stack_refine_qps", QueriesPerSecond(typical), "1/s");
    std::snprintf(line, sizeof(line), "stack-refine: %zu queries x %d passes",
                  typical.size(), passes);
    report.Note(line);
  } else {
    // One untraced pass, then one traced pass per algorithm.
    int passes = 0;
    std::vector<double> untraced = MedianOfPasses(
        *s->partition, queries, n_partition, 0, nullptr, &passes, &kept,
        judged);
    Tracer tracer;
    ScanTotals partition_totals, sle_totals, stack_totals;
    std::vector<double> traced_us;
    double rule_count = 0, ignored_rules = 0, us = 0;
    uint64_t request = 0;
    RegistrySnapshot before = RegistrySnapshot::Take();
    for (size_t i = 0; i < n_partition; ++i) {
      partition_totals.Add(TracedQuery(*s->partition, queries[i].corrupted,
                                       ++request, "core.scan", "core.rank",
                                       true, &tracer, &us, &rule_count));
      traced_us.push_back(us);
    }
    RegistrySnapshot after = RegistrySnapshot::Take();
    partition_totals.rules = rule_count;
    for (size_t i = 0; i < n_sle; ++i) {
      sle_totals.Add(TracedQuery(*s->sle, queries[i].corrupted, ++request,
                                 "core.scan.sle", "core.rank.sle", false,
                                 &tracer, &us, &ignored_rules));
    }
    for (size_t i = 0; i < n_stack; ++i) {
      stack_totals.Add(TracedQuery(
          *s->stack_refine, queries[i].corrupted, ++request,
          "core.scan.stack_refine", "core.rank.stack_refine", false, &tracer,
          &us, &ignored_rules));
    }
    double untraced_p50 = Summarize(untraced).p50;
    report.Set("trace_overhead_frac",
               (Summarize(traced_us).p50 - untraced_p50) / untraced_p50,
               "ratio");
    const ScanTotals& t = partition_totals;
    double q = std::max(1.0, t.queries);
    report.Set("prepare.us", tracer.MeanSelfMicros("core.prepare"), "us");
    report.Set("rules.us", tracer.MeanSelfMicros("core.rules"), "us");
    report.Set("rules.count", t.PerQuery(t.rules), "count");
    report.Set("scan.us", tracer.MeanSelfMicros("core.scan"), "us");
    report.Set("scan.sle_us", tracer.MeanSelfMicros("core.scan.sle"), "us");
    report.Set("scan.stack_refine_us",
               tracer.MeanSelfMicros("core.scan.stack_refine"), "us");
    report.Set("rank.us", tracer.MeanSelfMicros("core.rank"), "us");
    report.Set("scan.dp_calls", t.PerQuery(t.dp_calls), "count");
    report.Set("scan.slca_calls", t.PerQuery(t.slca_calls), "count");
    report.Set("scan.partitions_visited", t.PerQuery(t.partitions_visited),
               "count");
    report.Set("scan.partitions_pruned_frac",
               t.partitions_visited > 0
                   ? t.partitions_pruned / t.partitions_visited
                   : 0,
               "ratio");
    report.Set("scan.candidates_pruned_frac",
               t.candidates_enumerated > 0
                   ? t.candidates_pruned / t.candidates_enumerated
                   : 0,
               "ratio");
    report.Set("scan.random_accesses",
               sle_totals.PerQuery(sle_totals.random_accesses), "count");
    report.Set("scan.nodes_popped",
               stack_totals.PerQuery(stack_totals.nodes_popped), "count");
    auto per_query = [&](const std::string& name) {
      return static_cast<double>(Delta(before, after, name)) / q;
    };
    report.Set("slca.elements_scanned", per_query("slca.elements_scanned"),
               "count");
    report.Set("slca.lookups", per_query("slca.lookups"), "count");
    ReportStoreLayers(before, after, q, &report);
    tracer.Dump(config.work_dir + "/engine_cold.spans.tsv");
  }

  // Quality and determinism: the first `judged` outcomes of the first pass.
  std::vector<const core::RefineOutcome*> outcomes;
  uint64_t digest = Fnv1a("");
  for (const auto& out : kept) {
    outcomes.push_back(&out);
    digest = Fnv1a(CanonicalOutcome(out), digest);
  }
  double cg = MeanCgAt3(queries, outcomes);
  report.Set("cg_at_3", cg, "gain");
  char line[200];
  std::snprintf(line, sizeof(line),
                "digest %016llx over the first %zu Partition outcomes; "
                "cg_at_3 %.6f",
                static_cast<unsigned long long>(digest), kept.size(), cg);
  report.Note(line);

  ReportSetup(rounds, &report);
  probe.NoteTo(&report);
  report.Set("peak_rss_mb", PeakRssMb(), "MiB");
  std::snprintf(line, sizeof(line),
                "engine_cold: %zu authors, %llu postings, result cache off",
                authors,
                static_cast<unsigned long long>(s->corpus.total_postings));
  report.Note(line);

  std::vector<std::string> keep;
  if (config.trace) {
    for (const auto& [name, unit] : PerLayerMetrics()) {
      if (!report.Has(name)) report.Set(name, 0, unit);
      keep.push_back(name);
    }
  } else {
    FILE* f = std::fopen(path.c_str(), "rb");
    if (f != nullptr) {
      std::fseek(f, 0, SEEK_END);
      report.Set("store_bytes_per_posting",
                 static_cast<double>(std::ftell(f)) /
                     static_cast<double>(s->corpus.total_postings),
                 "B");
      std::fclose(f);
    }
    report.Set("failed_frac",
               static_cast<double>(report.failed()) /
                   static_cast<double>(
                       std::max<uint64_t>(1, report.attempted())),
               "ratio");
    keep = EndToEndMetricNames();
  }
  s.reset();
  std::remove(path.c_str());
  return report.Finish(keep);
}

}  // namespace xrefine::perfbench
