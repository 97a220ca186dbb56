// Shared machinery of the XRefine benchmark program: corpus and query
// generation from a seed, latency statistics, answer digests, registry
// counter deltas, in-memory span tracing and the result line.
//
// Everything here talks to the system only through its public headers; the
// spans are recorded by the benchmark around its own calls into each layer.
#ifndef XREFINE_PERFBENCH_HARNESS_H_
#define XREFINE_PERFBENCH_HARNESS_H_

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "core/refine_common.h"
#include "core/xrefine.h"
#include "index/index_builder.h"
#include "server/frame.h"
#include "text/lexicon.h"
#include "workload/corruption.h"
#include "xml/document.h"

namespace xrefine::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Command-line settings shared by every workload.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small corpus and short phases: the self-test mode.
  bool fast = false;
  /// Corrupts one reference answer so the answer check must fail.
  bool perturb_reference = false;
  /// Directory for the run's store files (inside the checkout).
  std::string work_dir = ".";
};

// --- inputs ----------------------------------------------------------------

/// A generated DBLP corpus with its in-memory index.
struct Corpus {
  std::unique_ptr<xml::Document> doc;
  std::unique_ptr<index::IndexedCorpus> index;
  uint64_t total_postings = 0;
};

/// Set-up phase timings of one set-up round, in seconds.
struct SetupTimes {
  double generate = 0, build_index = 0, save_store = 0, open_store = 0,
         warm = 0;
  /// Reference over measured host speed around the round (HostProbe).
  double host_scale = 1;
  double total() const {
    return generate + build_index + save_store + open_store + warm;
  }
  double scaled_total() const { return total() * host_scale; }
};

/// Generates and indexes a DBLP corpus of `authors` authors. The corpus is
/// the same in every run (generator seed 42), so that runs with different
/// seeds measure the same data; the run's seed draws only the inputs.
Corpus MakeCorpus(size_t authors, SetupTimes* times);

/// `n` distinct corrupted queries (distinct by corrupted text) sampled from
/// `corpus` with their recorded ground truth.
std::vector<workload::CorruptedQuery> MakeQueries(const Corpus& corpus,
                                                  const text::Lexicon& lexicon,
                                                  size_t n, uint64_t seed);

std::string JoinTerms(const core::Query& q);

/// Deterministic 64-bit seed mixer (splitmix64), so each input stream of a
/// run draws from its own seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

// --- answers ---------------------------------------------------------------

/// Canonical text of an engine outcome: status, refinement flag, every
/// refined query's keywords, scores and result Dewey labels. Stage timings
/// are excluded.
std::string CanonicalOutcome(const core::RefineOutcome& outcome);

/// The wire response the daemon builds from `outcome`, with stage timings
/// zeroed: the byte string a served answer must equal.
std::string ReferenceResponseBytes(const core::RefineOutcome& outcome,
                                   bool degraded);
/// A served response re-encoded the same way.
std::string CanonicalResponseBytes(server::RefineResponse response);

uint64_t Fnv1a(const std::string& bytes, uint64_t h = 1469598103934665603ull);

/// Mean CG@3 of each outcome judged against its query's ground truth.
double MeanCgAt3(const std::vector<workload::CorruptedQuery>& queries,
                 const std::vector<const core::RefineOutcome*>& outcomes);

// --- statistics ------------------------------------------------------------

/// Sorted latency sample with the percentile rule of the benchmark: the
/// high percentile is the highest of 99/98/95/90/75/50 that leaves at least
/// ten samples above it.
struct Percentiles {
  size_t count = 0;
  double p50 = 0;
  double high = 0;
  double high_pct = 0;  // which percentile `high` is
};
Percentiles Summarize(std::vector<double> us);
double Quantile(std::vector<double> v, double q);

/// Peak resident set size (VmHWM) in MiB.
double PeakRssMb();

// --- host noise ------------------------------------------------------------

/// Confines the calling thread, and every thread it creates from now on, to
/// the `count` CPUs that start at position `first` (cyclically) of the CPUs
/// the process may use; restores the previous set when destroyed.
///
/// The virtual CPUs of a shared host slow down by 1.5-5x for seconds at a
/// time, each on its own schedule, when neighbours are busy. The benchmark
/// therefore repeats each measured pass on a different CPU set and takes,
/// per request, the median of its runs (PassTimes).
class CpuRotation {
 public:
  CpuRotation(size_t first, size_t count);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

class Report;

/// A fixed pointer chase over a 4 MiB buffer, timed: how fast the host runs
/// cache-bound code at the moment. The engine's posting lists live in the
/// cache the host's neighbours share, and its speed swings with theirs for
/// seconds to minutes at a time, on every vCPU; the probe's time follows
/// those swings. Timed passes probe the CPU they run on every
/// PassProbes::kIntervalS, and the end-to-end times are scaled to the
/// speed at which the chase takes kReferenceUs.
class HostProbe {
 public:
  /// The chase's time on the development host in a quiet stretch.
  static constexpr double kReferenceUs = 1600;

  HostProbe();
  /// Runs the chase once on the calling thread; returns its microseconds.
  double Time();
  /// Notes how many probes ran and their median time.
  void NoteTo(Report* report) const;

 private:
  std::vector<uint64_t> words_;
  uint64_t state_ = 1;
  std::vector<double> log_;  // every Time() result
};

/// The host probes of one timed pass of requests 0..n-1, run by the thread
/// that times them: one before request 0, one before the first request
/// after each kIntervalS since the last, one after the last request.
/// Without a HostProbe it probes nothing and scales nothing.
class PassProbes {
 public:
  static constexpr double kIntervalS = 0.1;

  explicit PassProbes(HostProbe* probe) : probe_(probe) {}
  /// Call before request `i`.
  void Before(size_t i);
  /// Call after the last request.
  void End();
  /// Scales the pass's latencies to reference host speed: each is
  /// multiplied by kReferenceUs over the faster of the two probes around
  /// its block (the faster, because a burst that catches one probe may
  /// miss the block). kNoRun entries stay kNoRun.
  std::vector<double> Scale(std::vector<double> us) const;

 private:
  HostProbe* probe_;
  Clock::time_point last_;
  std::vector<std::pair<size_t, double>> marks_;  // (next request, probe us)
};

/// Marks a request that was never answered in any pass.
inline constexpr double kNoRun = 1e300;

/// Latencies of the same requests over repeated passes. A request's figure
/// is the median of its runs: a slow stretch has to cover half of a
/// request's runs to move it, and unlike the fastest run, which falls with
/// every extra pass and jumps with one lucky one, the median settles as
/// passes are added.
class PassTimes {
 public:
  /// Records one pass: `us[i]` is request i's latency, kNoRun if it was
  /// not answered.
  void Add(const std::vector<double>& us) {
    if (runs_.size() < us.size()) runs_.resize(us.size());
    for (size_t i = 0; i < us.size(); ++i) {
      if (us[i] < kNoRun) runs_[i].push_back(us[i]);
    }
  }
  /// Each request's median run; kNoRun for a request without one.
  std::vector<double> Medians() const;

 private:
  std::vector<std::vector<double>> runs_;
};

// --- registry deltas -------------------------------------------------------

/// Snapshot of the process-wide metrics registry: every counter named in
/// kCounterNames and the bucket counts of the histograms in
/// kHistogramNames.
struct RegistrySnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::vector<uint64_t>> buckets;
  std::map<std::string, uint64_t> sums;
  static RegistrySnapshot Take();
};
/// Difference `after - before` of one counter.
uint64_t Delta(const RegistrySnapshot& before, const RegistrySnapshot& after,
               const std::string& name);
/// Quantile upper bound of the histogram samples recorded between the two
/// snapshots (0 when none were).
double HistogramDeltaQuantile(const RegistrySnapshot& before,
                              const RegistrySnapshot& after,
                              const std::string& name, double q);
/// Mean of the histogram samples recorded between the snapshots.
double HistogramDeltaMean(const RegistrySnapshot& before,
                          const RegistrySnapshot& after,
                          const std::string& name);

// --- tracing ---------------------------------------------------------------

/// In-memory span recorder. A span is (name, start, end, parent, request);
/// spans are kept until the run ends and then folded into self times: a
/// span's self time is its duration minus the time its children cover.
class Tracer {
 public:
  /// Returns the new span's index. Thread-safe.
  int64_t Add(const char* name, Clock::time_point start,
              Clock::time_point end, int64_t parent, uint64_t request);
  /// Mean self time per request, in microseconds, of every span named
  /// `name` (summed per request first).
  double MeanSelfMicros(const std::string& name) const;
  /// Writes one line per span to `path` (tab-separated).
  void Dump(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start, end;
    int64_t parent;
    uint64_t request;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// --- report ----------------------------------------------------------------

/// Metric values of one run plus the correctness tally, printed as human
/// lines and one closing JSON object.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// An informational line that is printed but not part of the result.
  void Note(const std::string& line);
  void CountAttempt(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Fail(const std::string& why);
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// Prints every metric, then the result line holding only `keep`.
  /// Returns the process exit code.
  int Finish(const std::vector<std::string>& keep) const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Per-request index, pager and B+-tree figures from registry deltas over
/// `requests` requests.
void ReportStoreLayers(const RegistrySnapshot& before,
                       const RegistrySnapshot& after, double requests,
                       Report* report);
/// Reports setup_s, the median of the rounds' totals scaled to reference
/// host speed, and the unscaled phase split of the round nearest to it.
void ReportSetup(const std::vector<SetupTimes>& rounds, Report* report);

/// The end-to-end metrics every workload reports in its result line.
const std::vector<std::string>& EndToEndMetricNames();
/// The per-layer metrics every workload reports in its traced result line
/// (zero where the workload does not exercise the layer).
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

int RunEngineCold(const RunConfig& config);
int RunServeStore(const RunConfig& config);
int RunServeHot(const RunConfig& config);

}  // namespace xrefine::perfbench

#endif  // XREFINE_PERFBENCH_HARNESS_H_
