#include "harness.h"

#include <cinttypes>
#include <cstdlib>
#include <fstream>
#include <set>
#include <unordered_map>

#include "eval/cumulated_gain.h"
#include "eval/oracle_judge.h"
#include "workload/dblp_generator.h"
#include "workload/query_generator.h"

namespace xrefine::perfbench {

Corpus MakeCorpus(size_t authors, SetupTimes* times) {
  Corpus corpus;
  auto start = Clock::now();
  workload::DblpOptions options;
  options.num_authors = authors;
  options.seed = 42;
  corpus.doc = std::make_unique<xml::Document>(workload::GenerateDblp(options));
  times->generate += SecondsSince(start);
  start = Clock::now();
  corpus.index = index::BuildIndex(*corpus.doc);
  times->build_index += SecondsSince(start);
  corpus.index->ForEachKeyword([&](std::string_view kw) {
    corpus.total_postings += corpus.index->ListSize(kw);
  });
  return corpus;
}

std::vector<workload::CorruptedQuery> MakeQueries(const Corpus& corpus,
                                                  const text::Lexicon& lexicon,
                                                  size_t n, uint64_t seed) {
  workload::Corruptor corruptor(&corpus.index->index(), &lexicon);
  workload::QueryGeneratorOptions options;
  options.seed = seed;
  workload::QueryGenerator generator(corpus.doc.get(), corpus.index.get(),
                                     &corruptor, options);
  std::vector<workload::CorruptedQuery> out;
  std::set<std::string> seen;
  // The generator draws with replacement; a few extra rounds cover the
  // duplicates it produces.
  for (int round = 0; round < 8 && out.size() < n; ++round) {
    for (auto& cq : generator.GeneratePool(n - out.size())) {
      if (seen.insert(JoinTerms(cq.corrupted)).second) {
        out.push_back(std::move(cq));
      }
    }
  }
  return out;
}

std::string JoinTerms(const core::Query& q) {
  std::string out;
  for (const auto& term : q) {
    if (!out.empty()) out.push_back(' ');
    out += term;
  }
  return out;
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string CanonicalOutcome(const core::RefineOutcome& outcome) {
  std::string out = outcome.status.ToString();
  out += outcome.needs_refinement ? "|R" : "|N";
  char buf[128];
  for (const auto& r : outcome.original_results) {
    out += ' ';
    out += r.dewey.ToString();
  }
  for (const core::RankedRq& rq : outcome.refined) {
    out += '\n';
    out += JoinTerms(rq.rq.keywords);
    std::snprintf(buf, sizeof(buf), " %.17g %.17g %.17g %.17g",
                  rq.rq.dissimilarity, rq.similarity, rq.dependence, rq.rank);
    out += buf;
    for (const auto& r : rq.results) {
      out += ' ';
      out += r.dewey.ToString();
    }
  }
  return out;
}

std::string ReferenceResponseBytes(const core::RefineOutcome& outcome,
                                   bool degraded) {
  server::RefineResponse response;
  response.degraded = degraded;
  response.needs_refinement = outcome.needs_refinement;
  for (const core::RankedRq& rq : outcome.refined) {
    server::RefineResponse::Entry entry;
    entry.query = JoinTerms(rq.rq.keywords);
    entry.score = rq.rank;
    entry.result_count = static_cast<uint32_t>(rq.results.size());
    response.refined.push_back(std::move(entry));
  }
  return server::EncodeRefineResponseFrame(0, response);
}

std::string CanonicalResponseBytes(server::RefineResponse response) {
  response.prepare_us = 0;
  response.scan_us = 0;
  response.rank_us = 0;
  return server::EncodeRefineResponseFrame(0, response);
}

uint64_t Fnv1a(const std::string& bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double MeanCgAt3(const std::vector<workload::CorruptedQuery>& queries,
                 const std::vector<const core::RefineOutcome*>& outcomes) {
  std::vector<std::vector<int>> gains;
  gains.reserve(outcomes.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    gains.push_back(eval::JudgeRanking(queries[i], outcomes[i]->refined));
  }
  return eval::MeanCumulatedGainAt(gains, 3);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Percentiles Summarize(std::vector<double> us) {
  Percentiles p;
  p.count = us.size();
  if (us.empty()) return p;
  std::sort(us.begin(), us.end());
  p.p50 = Quantile(us, 0.5);
  for (double pct : {99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
    double beyond = static_cast<double>(us.size()) * (1 - pct / 100);
    if (beyond >= 10 || pct == 50.0) {
      p.high = Quantile(us, pct / 100);
      p.high_pct = pct;
      break;
    }
  }
  return p;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

namespace {

const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

}  // namespace

CpuRotation::CpuRotation(size_t first, size_t count) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.empty() || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (size_t i = 0; i < std::min(count, cpus.size()); ++i) {
    CPU_SET(cpus[(first + i) % cpus.size()], &set);
  }
  pinned_ = sched_setaffinity(0, sizeof(set), &set) == 0;
}

CpuRotation::~CpuRotation() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

HostProbe::HostProbe() : words_((4u << 20) / sizeof(uint64_t)) {
  for (size_t i = 0; i < words_.size(); ++i) words_[i] = i * 2654435761u;
}

double HostProbe::Time() {
  constexpr int kSteps = 12000;
  auto start = Clock::now();
  uint64_t z = state_;
  for (int k = 0; k < kSteps; ++k) {
    // Each index depends on the word loaded before it: one cache access
    // at a time, none of them predictable.
    z = words_[(z * 6364136223846793005ull + static_cast<uint64_t>(k)) %
               words_.size()] +
        static_cast<uint64_t>(k);
  }
  state_ = z;
  log_.push_back(MicrosBetween(start, Clock::now()));
  return log_.back();
}

void HostProbe::NoteTo(Report* report) const {
  char line[160];
  std::snprintf(line, sizeof(line),
                "host probe: median %.0f us over %zu probes (reference %.0f "
                "us); unscaled times are about scaled times x median / "
                "reference",
                Quantile(log_, 0.5), log_.size(), kReferenceUs);
  report->Note(line);
}

void PassProbes::Before(size_t i) {
  if (probe_ == nullptr) return;
  if (marks_.empty() || SecondsSince(last_) >= kIntervalS) {
    marks_.emplace_back(i, probe_->Time());
    last_ = Clock::now();
  }
}

void PassProbes::End() {
  if (probe_ != nullptr) marks_.emplace_back(SIZE_MAX, probe_->Time());
}

std::vector<double> PassProbes::Scale(std::vector<double> us) const {
  if (probe_ == nullptr) return us;
  size_t block = 0;  // marks_[block] is the last probe before request i
  for (size_t i = 0; i < us.size(); ++i) {
    while (block + 2 < marks_.size() && marks_[block + 1].first <= i) {
      ++block;
    }
    if (us[i] >= kNoRun) continue;
    us[i] *= HostProbe::kReferenceUs /
             std::min(marks_[block].second, marks_[block + 1].second);
  }
  return us;
}

std::vector<double> PassTimes::Medians() const {
  std::vector<double> out;
  for (const auto& runs : runs_) {
    out.push_back(runs.empty() ? kNoRun : Quantile(runs, 0.5));
  }
  return out;
}


namespace {

const char* const kCounterNames[] = {
    "slca.calls",          "slca.elements_scanned",
    "slca.lookups",        "index.cache_hits",
    "index.cache_misses",  "index.cache_admit",
    "index.cache_reject",  "index.list_fetches",
    "index.bytes_decoded", "pager.cache_hits",
    "pager.cache_misses",  "pager.page_reads",
    "pager.evictions",     "btree.node_reads",
    "btree.overflow_follows", "cache.hits",
    "cache.misses",        "cache.coalesced_waits",
    "cache.evictions",     "cache.epoch_invalidations",
    "server.requests",     "server.inline_hits",
    "server.shed",         "server.degraded",
    "query.count",         "query.rules_generated",
};
const char* const kHistogramNames[] = {"pager.fetch_us",
                                       "query.cache_probe_us"};

}  // namespace

RegistrySnapshot RegistrySnapshot::Take() {
  auto& registry = metrics::Registry::Global();
  RegistrySnapshot s;
  for (const char* name : kCounterNames) {
    s.counters[name] = registry.counter(name)->value();
  }
  for (const char* name : kHistogramNames) {
    metrics::Histogram* h = registry.histogram(name);
    std::vector<uint64_t> b(metrics::Histogram::kNumBuckets);
    for (size_t i = 0; i < b.size(); ++i) b[i] = h->bucket_count(i);
    s.buckets[name] = std::move(b);
    s.sums[name] = h->sum();
  }
  return s;
}

uint64_t Delta(const RegistrySnapshot& before, const RegistrySnapshot& after,
               const std::string& name) {
  return after.counters.at(name) - before.counters.at(name);
}

double HistogramDeltaQuantile(const RegistrySnapshot& before,
                              const RegistrySnapshot& after,
                              const std::string& name, double q) {
  const auto& a = after.buckets.at(name);
  const auto& b = before.buckets.at(name);
  uint64_t total = 0;
  for (size_t i = 0; i < a.size(); ++i) total += a[i] - b[i];
  if (total == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  rank = std::max<uint64_t>(rank, 1);
  uint64_t seen = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    seen += a[i] - b[i];
    if (seen >= rank) {
      return static_cast<double>(metrics::Histogram::BucketUpperBound(i));
    }
  }
  return 0;
}

double HistogramDeltaMean(const RegistrySnapshot& before,
                          const RegistrySnapshot& after,
                          const std::string& name) {
  const auto& a = after.buckets.at(name);
  const auto& b = before.buckets.at(name);
  uint64_t total = 0;
  for (size_t i = 0; i < a.size(); ++i) total += a[i] - b[i];
  if (total == 0) return 0;
  return static_cast<double>(after.sums.at(name) - before.sums.at(name)) /
         static_cast<double>(total);
}

int64_t Tracer::Add(const char* name, Clock::time_point start,
                    Clock::time_point end, int64_t parent, uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

double Tracer::MeanSelfMicros(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = MicrosBetween(spans_[i].start, spans_[i].end);
  }
  // Children of one span never overlap each other in this benchmark (a
  // request's layers run one after another), so subtracting each child's
  // clipped duration leaves exactly the uncovered part.
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    auto start = std::max(s.start, p.start);
    auto end = std::min(s.end, p.end);
    if (end > start) self[static_cast<size_t>(s.parent)] -=
        MicrosBetween(start, end);
  }
  std::unordered_map<uint64_t, double> per_request;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) per_request[spans_[i].request] += self[i];
  }
  if (per_request.empty()) return 0;
  double sum = 0;
  for (const auto& [request, us] : per_request) sum += us;
  return sum / static_cast<double>(per_request.size());
}

void Tracer::Dump(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (spans_.empty()) return;
  auto origin = spans_.front().start;
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  out << "name\tstart_us\tend_us\tparent\trequest\n";
  for (const Span& s : spans_) {
    out << s.name << '\t' << MicrosBetween(origin, s.start) << '\t'
        << MicrosBetween(origin, s.end) << '\t' << s.parent << '\t'
        << s.request << '\n';
  }
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  values_[name] = {value, unit};
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Fail(const std::string& why) { failures_.push_back(why); }

int Report::Finish(const std::vector<std::string>& keep) const {
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  for (const auto& [name, v] : values_) {
    std::printf("metric %-32s %16.6f %s\n", name.c_str(), v.first,
                v.second.c_str());
  }
  std::vector<std::string> failures = failures_;
  std::string metrics;
  for (const std::string& name : keep) {
    auto it = values_.find(name);
    if (it == values_.end() || !std::isfinite(it->second.first)) {
      failures.push_back("metric " + name + " missing or not finite");
      continue;
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(),
                  it->second.first, it->second.second.c_str());
    metrics += buf;
  }
  for (const std::string& f : failures) std::printf("FAIL: %s\n", f.c_str());
  bool ok = failures.empty() && failed_ == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              ok ? "true" : "false", std::max<uint64_t>(attempted_, 1),
              failed_, metrics.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

namespace {
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }
}  // namespace

void ReportStoreLayers(const RegistrySnapshot& before,
                       const RegistrySnapshot& after, double requests,
                       Report* report) {
  auto d = [&](const char* name) {
    return static_cast<double>(Delta(before, after, name));
  };
  report->Set("index.cache_hit_frac",
              Ratio(d("index.cache_hits"),
                    d("index.cache_hits") + d("index.cache_misses")),
              "ratio");
  report->Set("index.cache_reject_frac",
              Ratio(d("index.cache_reject"),
                    d("index.cache_admit") + d("index.cache_reject")),
              "ratio");
  report->Set("index.list_fetches", Ratio(d("index.list_fetches"), requests),
              "count");
  report->Set("index.bytes_decoded", Ratio(d("index.bytes_decoded"), requests),
              "B");
  report->Set("pager.hit_frac",
              Ratio(d("pager.cache_hits"),
                    d("pager.cache_hits") + d("pager.cache_misses")),
              "ratio");
  report->Set("pager.page_reads", Ratio(d("pager.page_reads"), requests),
              "count");
  report->Set("pager.evictions", Ratio(d("pager.evictions"), requests),
              "count");
  report->Set("pager.fetch_us_p50",
              HistogramDeltaQuantile(before, after, "pager.fetch_us", 0.5),
              "us");
  report->Set("pager.fetch_us_p99",
              HistogramDeltaQuantile(before, after, "pager.fetch_us", 0.99),
              "us");
  report->Set("btree.node_reads", Ratio(d("btree.node_reads"), requests),
              "count");
  report->Set("btree.overflow_follows",
              Ratio(d("btree.overflow_follows"), requests), "count");
}

void ReportSetup(const std::vector<SetupTimes>& rounds, Report* report) {
  std::vector<double> totals;
  for (const auto& r : rounds) totals.push_back(r.scaled_total());
  const double med = Quantile(totals, 0.5);
  const SetupTimes* median_round = &rounds[0];
  for (const auto& r : rounds) {
    if (std::abs(r.scaled_total() - med) <
        std::abs(median_round->scaled_total() - med)) {
      median_round = &r;
    }
  }
  report->Set("setup_s", med, "s");
  report->Set("setup.generate_s", median_round->generate, "s");
  report->Set("setup.build_index_s", median_round->build_index, "s");
  report->Set("setup.save_store_s", median_round->save_store, "s");
  report->Set("setup.open_store_s", median_round->open_store, "s");
  report->Set("setup.warm_s", median_round->warm, "s");
}

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> names = {
      "setup_s", "p50_us", "p99_us", "qps", "cg_at_3", "peak_rss_mb"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"prepare.us", "us"},
      {"rules.us", "us"},
      {"rules.count", "count"},
      {"scan.us", "us"},
      {"scan.sle_us", "us"},
      {"scan.stack_refine_us", "us"},
      {"scan.dp_calls", "count"},
      {"scan.slca_calls", "count"},
      {"scan.partitions_visited", "count"},
      {"scan.partitions_pruned_frac", "ratio"},
      {"scan.candidates_pruned_frac", "ratio"},
      {"scan.random_accesses", "count"},
      {"scan.nodes_popped", "count"},
      {"slca.elements_scanned", "count"},
      {"slca.lookups", "count"},
      {"rank.us", "us"},
      {"index.cache_hit_frac", "ratio"},
      {"index.cache_reject_frac", "ratio"},
      {"index.list_fetches", "count"},
      {"index.bytes_decoded", "B"},
      {"pager.hit_frac", "ratio"},
      {"pager.page_reads", "count"},
      {"pager.evictions", "count"},
      {"pager.fetch_us_p50", "us"},
      {"pager.fetch_us_p99", "us"},
      {"btree.node_reads", "count"},
      {"btree.overflow_follows", "count"},
      {"cache.hit_frac", "ratio"},
      {"cache.probe_us", "us"},
      {"cache.coalesced_waits", "count"},
      {"cache.evictions", "count"},
      {"cache.epoch_invalidations", "count"},
      {"write.attach_us", "us"},
      {"refill.count", "count"},
      {"server.inline_hit_frac", "ratio"},
      {"server.residual_us", "us"},
      {"server.queue_depth_max", "count"},
      {"server.shed", "count"},
      {"server.degraded", "count"},
      {"gen.late_us_p99", "us"},
      {"setup.generate_s", "s"},
      {"setup.build_index_s", "s"},
      {"setup.save_store_s", "s"},
      {"setup.open_store_s", "s"},
      {"setup.warm_s", "s"},
      {"trace_overhead_frac", "ratio"},
  };
  return metrics;
}

}  // namespace xrefine::perfbench
