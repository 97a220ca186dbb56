// serve_store and serve_hot: the in-process refinement daemon driven over
// loopback TCP from this process.
//
// serve_store serves a StoreBackedIndexSource whose B+-tree file is several
// times larger than the pager pool plus the posting-list cache, with the
// result cache on but every query distinct, so every answer is computed
// through pager, B+-tree and posting decode. About 5% of the queries are
// heavy ones that admission routes to the degraded engine.
//
// serve_hot serves an in-memory corpus with the result cache on, replaying
// a Zipf-skewed trace over a few hundred distinct queries, so nearly every
// answer is a cache hit; at fixed intervals the benchmark records accepted
// refinements into a query log and attaches it, which invalidates the
// cache and forces refills.
//
// Each workload has one serial closed-loop phase (one server::Client, one
// request on the wire at a time) and an open-loop rate ladder. The open
// loop uses at most two generator threads with two pipelined connections
// each. It speaks the frame protocol through frame.h directly, because an
// open-loop generator must never block on a reply and server::Client only
// offers a blocking Poll. Each request is timed from when it was due.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <functional>
#include <set>
#include <thread>
#include <unordered_map>

#include "core/query_log.h"
#include "harness.h"
#include "index/index_store.h"
#include "index/store_index_source.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/kvstore.h"
#include "text/tokenizer.h"

namespace xrefine::perfbench {
namespace {

enum class Outcome : uint8_t {
  kPending,
  kOk,
  kMismatch,
  kError,
  kShed,
  kTransport,
};

struct Request {
  uint32_t query = 0;  // index into the workload's query texts
  Clock::time_point due, sent, done;
  Outcome outcome = Outcome::kPending;
  bool degraded = false;
  uint64_t compute_us = 0;  // prepare + scan + rank reported by the server
  uint64_t prepare_us = 0, scan_us = 0, rank_us = 0;
  uint64_t epoch_sent = 0;  // write epochs (serve_hot) at send and reply
  uint64_t epoch_done = 0;
};

/// Decides whether a served response is the right answer for `request`.
using CheckFn = std::function<bool(const Request& request,
                                   const std::string& canonical_bytes)>;

/// One pipelined loopback connection owned by one generator thread.
class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }
  int fd() const { return fd_; }
  void Queue(const std::string& frame) { tx_ += frame; }

  bool Flush() {
    size_t off = 0;
    while (off < tx_.size()) {
      ssize_t n = ::send(fd_, tx_.data() + off, tx_.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    tx_.clear();
    return true;
  }

  /// Reads what is available and hands every complete frame to `on_frame`.
  /// Returns false when the connection broke or sent a malformed frame.
  bool Receive(const std::function<void(const server::FrameHeader&,
                                        std::string_view)>& on_frame) {
    char buf[65536];
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) return true;
    if (n <= 0) return false;
    rx_.append(buf, static_cast<size_t>(n));
    size_t pos = 0;
    while (rx_.size() - pos >= server::kFrameHeaderSize) {
      server::FrameHeader header;
      if (!server::DecodeFrameHeader(
               std::string_view(rx_).substr(pos, server::kFrameHeaderSize),
               &header)
               .ok()) {
        return false;
      }
      size_t total = server::kFrameHeaderSize + header.payload_len;
      if (rx_.size() - pos < total) break;
      on_frame(header, std::string_view(rx_).substr(
                           pos + server::kFrameHeaderSize, header.payload_len));
      pos += total;
    }
    rx_.erase(0, pos);
    return true;
  }

 private:
  int fd_ = -1;
  std::string tx_;
  std::string rx_;
};

/// Summary of one fixed-rate open-loop step.
struct StepResult {
  double rate = 0;
  double seconds = 0;
  std::vector<Request> requests;
  /// Requests sent but unanswered when the last one was sent.
  size_t outstanding_at_end = 0;
  std::vector<double> late_us;
  size_t ok = 0, mismatch = 0, error = 0, shed = 0, transport = 0;
};

/// The open loop: requests i = 0..n-1 are due at start + i / rate and are
/// sent when due whatever the state of earlier ones. Request i goes to
/// generator thread i % 2 and to that thread's connection (i / 2) % 2.
StepResult OpenLoop(uint16_t port, double rate, double seconds,
                    const std::vector<uint32_t>& queries,
                    const std::vector<std::string>& texts,
                    const CheckFn& check,
                    const std::atomic<uint64_t>* write_epoch,
                    const std::function<void(Clock::time_point)>& during) {
  constexpr size_t kThreads = 2, kConnsPerThread = 2;
  StepResult step;
  step.rate = rate;
  step.seconds = seconds;
  const size_t n = std::min(queries.size(),
                            static_cast<size_t>(rate * seconds));
  step.requests.resize(n);
  // Connect before fixing the schedule, so session set-up is not charged
  // to the first requests.
  Connection conns[kThreads][kConnsPerThread];
  bool connected = true;
  for (auto& per_thread : conns) {
    for (auto& c : per_thread) connected &= c.Connect(port);
  }
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (size_t i = 0; i < n; ++i) {
    step.requests[i].query = queries[i];
    step.requests[i].due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  rate));
  }
  const auto drain_deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds + 5.0));
  std::vector<size_t> outstanding(kThreads, 0);
  std::vector<std::vector<double>> late(kThreads);
  auto epoch = [&] {
    return write_epoch == nullptr
               ? 0
               : write_epoch->load(std::memory_order_acquire);
  };

  auto generator = [&](size_t t) {
    Connection* mine = conns[t];
    bool broken = !connected;
    size_t next = t;  // this thread's next request index
    size_t inflight = 0;
    auto on_frame = [&](const server::FrameHeader& header,
                        std::string_view payload) {
      // Replies come back on the connection their request went out on, so
      // a thread only ever touches its own requests (i % kThreads == t).
      size_t idx = static_cast<size_t>(header.request_id - 1);
      if (idx >= n || idx % kThreads != t ||
          step.requests[idx].outcome != Outcome::kPending) {
        broken = true;
        return;
      }
      Request& r = step.requests[idx];
      r.done = Clock::now();
      r.epoch_done = epoch();
      --inflight;
      switch (header.type) {
        case server::FrameType::kRefineResponse: {
          server::RefineResponse response;
          if (!server::DecodeRefineResponse(payload, &response).ok()) {
            r.outcome = Outcome::kTransport;
            return;
          }
          response.degraded = (header.flags & server::kFrameFlagDegraded) != 0;
          r.degraded = response.degraded;
          r.prepare_us = response.prepare_us;
          r.scan_us = response.scan_us;
          r.rank_us = response.rank_us;
          r.compute_us = response.prepare_us + response.scan_us +
                         response.rank_us;
          r.outcome = check(r, CanonicalResponseBytes(std::move(response)))
                          ? Outcome::kOk
                          : Outcome::kMismatch;
          return;
        }
        case server::FrameType::kError:
          r.outcome = Outcome::kError;
          return;
        case server::FrameType::kRetryAfter:
          r.outcome = Outcome::kShed;
          return;
        default:
          r.outcome = Outcome::kTransport;
      }
    };
    while (!broken && (next < n || inflight > 0)) {
      auto now = Clock::now();
      if (now > drain_deadline) break;
      bool sent_any = false;
      while (next < n && step.requests[next].due <= now) {
        Request& r = step.requests[next];
        server::RefineRequest req;
        req.query = texts[r.query];
        req.deadline_ms = 30'000;
        mine[(next / kThreads) % kConnsPerThread].Queue(
            server::EncodeRefineRequestFrame(next + 1, req));
        r.sent = now;
        r.epoch_sent = epoch();
        late[t].push_back(MicrosBetween(r.due, now));
        ++inflight;
        next += kThreads;
        sent_any = true;
        if (next >= n) outstanding[t] = inflight;
      }
      if (sent_any) {
        for (size_t c = 0; c < kConnsPerThread; ++c) broken |= !mine[c].Flush();
      }
      pollfd fds[kConnsPerThread];
      for (size_t c = 0; c < kConnsPerThread; ++c) {
        fds[c] = pollfd{mine[c].fd(), POLLIN, 0};
      }
      auto wake = next < n ? step.requests[next].due : drain_deadline;
      auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
          wake - Clock::now());
      timespec ts{};
      if (wait.count() > 0) {
        ts.tv_sec = static_cast<time_t>(wait.count() / 1'000'000'000);
        ts.tv_nsec = static_cast<long>(wait.count() % 1'000'000'000);
      }
      if (inflight == 0) {
        if (wait.count() > 0) std::this_thread::sleep_until(wake);
        continue;
      }
      int ready = ::ppoll(fds, kConnsPerThread, &ts, nullptr);
      if (ready < 0 && errno != EINTR) broken = true;
      for (size_t c = 0; ready > 0 && c < kConnsPerThread; ++c) {
        if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) {
          broken |= !mine[c].Receive(on_frame);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) threads.emplace_back(generator, t);
  if (during) during(start);
  for (auto& th : threads) th.join();

  for (size_t t = 0; t < kThreads; ++t) {
    step.outstanding_at_end += outstanding[t];
    step.late_us.insert(step.late_us.end(), late[t].begin(), late[t].end());
  }
  for (Request& r : step.requests) {
    if (r.outcome == Outcome::kPending) r.outcome = Outcome::kTransport;
    switch (r.outcome) {
      case Outcome::kOk: ++step.ok; break;
      case Outcome::kMismatch: ++step.mismatch; break;
      case Outcome::kError: ++step.error; break;
      case Outcome::kShed: ++step.shed; break;
      default: ++step.transport; break;
    }
  }
  return step;
}

double LatencyUs(const Request& r) { return MicrosBetween(r.due, r.done); }

/// Whether a step meets the workload's latency limit: every request
/// answered correctly (a refused request misses the limit), the high
/// percentile within `limit_us`, no growing backlog (fewer requests
/// outstanding at the end of the schedule than Little's law allows at the
/// limit) and a generator that kept to its schedule (p99 lateness within
/// one per-thread interval).
bool MeetsSlo(const StepResult& step, double limit_us, Percentiles* p) {
  std::vector<double> us;
  for (const Request& r : step.requests) {
    us.push_back(r.outcome == Outcome::kOk ? LatencyUs(r) : 1e12);
  }
  *p = Summarize(us);
  double allowed_backlog =
      std::max(8.0, step.rate * limit_us / 1e6);
  double interval_us = 2e6 / step.rate;
  return step.ok == step.requests.size() && p->high <= limit_us &&
         static_cast<double>(step.outstanding_at_end) <= allowed_backlog &&
         Quantile(step.late_us, 0.99) <= interval_us;
}

/// Serial closed loop through server::Client: one request on the wire at a
/// time, over every query in `queries`, probing the host into `probes`
/// when given.
std::vector<Request> SerialLoop(uint16_t port,
                                const std::vector<uint32_t>& queries,
                                const std::vector<std::string>& texts,
                                const CheckFn& check, Report* report,
                                PassProbes* probes = nullptr) {
  std::vector<Request> done;
  server::Client client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    report->Fail("serial client could not connect");
    return done;
  }
  client.set_recv_timeout_ms(30'000);
  for (uint32_t q : queries) {
    if (probes != nullptr) probes->Before(done.size());
    Request r;
    r.query = q;
    r.due = r.sent = Clock::now();
    server::Client::RefineResult result;
    Status st = client.Refine(texts[q], 30'000, &result);
    r.done = Clock::now();
    if (!st.ok()) {
      r.outcome = Outcome::kTransport;
      done.push_back(r);
      break;
    }
    if (result.kind == server::Client::RefineResult::Kind::kRefined) {
      r.degraded = result.response.degraded;
      r.outcome = check(r, CanonicalResponseBytes(result.response))
                      ? Outcome::kOk
                      : Outcome::kMismatch;
    } else {
      r.outcome = result.kind == server::Client::RefineResult::Kind::kError
                      ? Outcome::kError
                      : Outcome::kShed;
    }
    done.push_back(r);
  }
  if (probes != nullptr) probes->End();
  return done;
}

uint64_t Failures(const std::vector<Request>& requests) {
  uint64_t f = 0;
  for (const Request& r : requests) f += r.outcome != Outcome::kOk;
  return f;
}

/// The latencies of one pass, kNoRun for requests not answered correctly
/// (request i of every pass has the same query and the same due offset).
std::vector<double> Latencies(const std::vector<Request>& requests) {
  std::vector<double> us;
  for (const Request& r : requests) {
    us.push_back(r.outcome == Outcome::kOk ? LatencyUs(r) : kNoRun);
  }
  return us;
}

/// Computes `fn(i)` for i in [0, n) on four threads.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (auto& th : threads) th.join();
}

/// Samples the daemon's queue-depth gauge every millisecond while alive.
class QueueSampler {
 public:
  QueueSampler()
      : gauge_(metrics::Registry::Global().gauge("server.queue_depth")),
        thread_([this] {
          while (!stop_.load()) {
            max_.store(std::max(max_.load(), gauge_->value()));
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}
  QueueSampler(const QueueSampler&) = delete;
  QueueSampler& operator=(const QueueSampler&) = delete;
  ~QueueSampler() {
    stop_.store(true);
    thread_.join();
  }
  int64_t max() const { return max_.load(); }

 private:
  metrics::Gauge* gauge_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> max_{0};
  std::thread thread_;  // last: starts after the members it reads
};

/// Folds the served requests of a traced step into spans: one request span
/// from send to reply and, for answers the server computed (reply time at
/// least the reported stage time), the server's prepare, scan and rank
/// stages as its children, ending at the reply. The request span's self
/// time is then the server and client residual.
void TraceRequests(const std::vector<Request>& requests, Tracer* tracer) {
  auto us = [](uint64_t v) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::microseconds(v));
  };
  uint64_t id = 0;
  for (const Request& r : requests) {
    ++id;
    if (r.outcome != Outcome::kOk) continue;
    int64_t root = tracer->Add("request", r.sent, r.done, -1, id);
    if (r.compute_us == 0 ||
        MicrosBetween(r.sent, r.done) < static_cast<double>(r.compute_us)) {
      continue;
    }
    auto rank_start = r.done - us(r.rank_us);
    auto scan_start = rank_start - us(r.scan_us);
    tracer->Add("core.prepare", scan_start - us(r.prepare_us), scan_start,
                root, id);
    tracer->Add("core.scan", scan_start, rank_start, root, id);
    tracer->Add("core.rank", rank_start, r.done, root, id);
  }
}

/// What the two serving workloads configure differently.
struct ServeSpec {
  const char* name;
  size_t authors;
  bool store_backed;
  std::vector<double> rates;  // ascending; includes nominal_rate
  double nominal_rate;
  double limit_us;  // latency limit on the high percentile
  /// Serial passes: at least `serial_passes`, and more until
  /// `serial_share` of the run's seconds have passed.
  int serial_passes;
  double serial_share;
  /// Nominal passes, `nominal_share` of the run's seconds in all, and one
  /// step per other rate, `other_share` of them in all.
  int nominal_passes;
  double nominal_share, other_share;
  /// CPUs each nominal pass is confined to (rotating from pass to pass).
  size_t nominal_cpus;
};

/// The traced serving run's boundary at the index layer: forwards every
/// call to the store-backed source and counts, for each FetchList of a list
/// the source had not cached, one list fetched from the store and its
/// encoded bytes decoded (the store path does not feed the registry's
/// index.list_fetches / index.bytes_decoded counters).
class CountingSource : public index::IndexSource {
 public:
  CountingSource(const index::StoreBackedIndexSource* inner,
                 const storage::KVStore& store)
      : inner_(inner) {
    inner_->ForEachKeyword([&](std::string_view kw) {
      auto value = store.Get(index::InvertedListKey(kw));
      if (value.ok()) encoded_[std::string(kw)] = value.value().size();
    });
  }

  StatusOr<index::PostingListHandle> FetchList(
      std::string_view keyword) const override {
    if (!inner_->IsCachedForTesting(keyword)) {
      auto it = encoded_.find(std::string(keyword));
      if (it != encoded_.end()) {
        fetches_.fetch_add(1);
        bytes_.fetch_add(it->second);
      }
    }
    return inner_->FetchList(keyword);
  }
  void Prefetch(const std::vector<std::string>& keywords) const override {
    inner_->Prefetch(keywords);
  }
  bool Contains(std::string_view keyword) const override {
    return inner_->Contains(keyword);
  }
  size_t ListSize(std::string_view keyword) const override {
    return inner_->ListSize(keyword);
  }
  size_t keyword_count() const override { return inner_->keyword_count(); }
  void ForEachKeyword(
      const std::function<void(std::string_view)>& fn) const override {
    inner_->ForEachKeyword(fn);
  }
  const index::StatisticsTable& stats() const override {
    return inner_->stats();
  }
  const xml::NodeTypeTable& types() const override { return inner_->types(); }
  index::CooccurrenceTable& cooccurrence() const override {
    return inner_->cooccurrence();
  }

  uint64_t fetches() const { return fetches_.load(); }
  uint64_t bytes() const { return bytes_.load(); }

 private:
  const index::StoreBackedIndexSource* inner_;
  std::unordered_map<std::string, size_t> encoded_;
  mutable std::atomic<uint64_t> fetches_{0};
  mutable std::atomic<uint64_t> bytes_{0};
};

/// The corpus a workload serves and, when store-backed, its saved file.
struct Served {
  Corpus corpus;
  std::string store_path;
};

/// One daemon and the engines and store it serves from, in dependency
/// order (the server, declared last, stops first).
struct Daemon {
  std::unique_ptr<storage::KVStore> store;
  std::unique_ptr<index::StoreBackedIndexSource> store_source;
  std::unique_ptr<CountingSource> counting;  // traced runs only
  std::unique_ptr<core::XRefine> primary, degraded;
  std::unique_ptr<server::Server> server;
  uint16_t port() const { return server->port(); }
};

/// Opens the store (when there is one), builds the engines, starts the
/// daemon and sends it two warm-up queries that no workload uses. Every
/// pass gets a fresh daemon, so every pass starts from the same caches.
std::unique_ptr<Daemon> StartDaemon(const Served& served,
                                    const text::Lexicon& lexicon,
                                    const server::AdmissionOptions& admission,
                                    SetupTimes* times, Report* report,
                                    bool count_fetches = false) {
  auto d = std::make_unique<Daemon>();
  const index::IndexSource* source = served.corpus.index.get();
  if (!served.store_path.empty()) {
    auto start = Clock::now();
    storage::PagerOptions pager;
    pager.max_cached_pages = 64;
    auto store = storage::KVStore::Open(served.store_path, pager);
    if (!store.ok()) {
      report->Fail("could not open the corpus store");
      return nullptr;
    }
    d->store = std::move(store).value();
    index::StoreIndexSourceOptions options;
    options.cache_capacity_bytes = 256u << 10;
    auto opened = index::StoreBackedIndexSource::Open(d->store.get(), options);
    if (!opened.ok()) {
      report->Fail("could not open the store-backed source");
      return nullptr;
    }
    d->store_source = std::move(opened).value();
    source = d->store_source.get();
    times->open_store += SecondsSince(start);
    if (count_fetches) {
      d->counting =
          std::make_unique<CountingSource>(d->store_source.get(), *d->store);
      source = d->counting.get();
    }
  }
  auto start = Clock::now();
  core::XRefineOptions options;
  options.result_cache.enabled = true;
  d->primary = std::make_unique<core::XRefine>(source, &lexicon, options);
  d->degraded = std::make_unique<core::XRefine>(
      source, &lexicon, server::MakeDegradedOptions(options));
  server::ServerOptions server_options;
  server_options.admission = admission;
  d->server = std::make_unique<server::Server>(
      d->primary.get(), d->degraded.get(), server_options);
  if (!d->server->Start().ok()) {
    report->Fail("daemon did not start");
    return nullptr;
  }
  server::Client client;
  if (!client.Connect("127.0.0.1", d->port()).ok()) {
    report->Fail("warm-up client could not connect");
    return nullptr;
  }
  for (const char* q : {"xml keyword search warmup", "databse query warmup"}) {
    server::Client::RefineResult result;
    if (!client.Refine(q, 30'000, &result).ok()) {
      report->Fail("warm-up query failed");
      return nullptr;
    }
  }
  times->warm += SecondsSince(start);
  return d;
}

/// Set-up rounds (generate, build, save, open, warm), each between two
/// host probes, reported as setup_s (see ReportSetup); keeps the last
/// round's corpus and store.
bool SetUpRounds(const RunConfig& config, const ServeSpec& spec,
                 const text::Lexicon& lexicon,
                 const server::AdmissionOptions& admission, HostProbe* probe,
                 Served* served, Report* report) {
  const int rounds = config.fast ? 1 : 9;
  std::vector<SetupTimes> times;
  for (int r = 0; r < rounds; ++r) {
    CpuRotation cpu(static_cast<size_t>(r), 1);
    SetupTimes t;
    const double probe_before = probe->Time();
    *served = Served{};
    served->corpus = MakeCorpus(spec.authors, &t);
    if (spec.store_backed) {
      served->store_path = config.work_dir + "/" + spec.name + ".xrdb";
      auto start = Clock::now();
      std::remove(served->store_path.c_str());
      storage::PagerOptions pager;
      pager.max_cached_pages = 64;
      auto store = storage::KVStore::Open(served->store_path, pager);
      if (!store.ok() ||
          !index::SaveCorpus(*served->corpus.index, store.value().get())
               .ok()) {
        report->Fail("could not save the corpus store");
        return false;
      }
      t.save_store += SecondsSince(start);
    }
    if (StartDaemon(*served, lexicon, admission, &t, report) == nullptr) {
      return false;
    }
    t.host_scale =
        HostProbe::kReferenceUs / std::min(probe_before, probe->Time());
    times.push_back(t);
  }
  ReportSetup(times, report);
  // The high-water mark of set-up and warm-up. Later phases run many
  // threads whose malloc arenas make the process's high-water mark vary
  // from run to run by more than any memory change worth catching.
  report->Set("peak_rss_mb", PeakRssMb(), "MiB");
  return true;
}

std::string StepLine(const StepResult& step, const Percentiles& p, bool met) {
  char line[320];
  std::snprintf(
      line, sizeof(line),
      "rate %.0f/s for %.2fs: sent %zu ok %zu shed %zu error %zu transport "
      "%zu mismatch %zu; p50 %.0fus p%.0f %.0fus (n=%zu); late p99 %.0fus; "
      "backlog at end %zu; %s",
      step.rate, step.seconds, step.requests.size(), step.ok, step.shed,
      step.error, step.transport, step.mismatch, p.p50, p.high_pct, p.high,
      p.count, Quantile(step.late_us, 0.99), step.outstanding_at_end,
      met ? "meets limit" : "misses limit");
  return line;
}

/// Counts a step's requests; a shed request is a failure at or below the
/// nominal rate and only a missed limit on the overload steps above it.
void CountStep(const ServeSpec& spec, const StepResult& step, Report* report) {
  uint64_t failed = step.mismatch + step.transport + step.error;
  if (step.rate <= spec.nominal_rate) failed += step.shed;
  report->CountAttempt(step.requests.size(), failed);
  if (failed > 0) {
    Percentiles p;
    bool met = MeetsSlo(step, spec.limit_us, &p);
    report->Note(std::string(spec.name) + " failures in " +
                 StepLine(step, p, met));
  }
}

/// One step of the rate ladder on a fresh daemon; returns whether it met
/// the limit.
bool LadderStep(const ServeSpec& spec, const StepResult& step,
                Report* report) {
  Percentiles p;
  bool met = MeetsSlo(step, spec.limit_us, &p);
  report->Note(std::string(spec.name) + " " + StepLine(step, p, met));
  CountStep(spec, step, report);
  return met;
}

/// p50/p99 of the per-request median latencies of the main class.
void ReportLatency(const std::vector<double>& typical,
                   const std::function<bool(size_t)>& main_class,
                   const char* what, Report* report) {
  std::vector<double> us;
  for (size_t i = 0; i < typical.size(); ++i) {
    if (main_class(i) && typical[i] < kNoRun) us.push_back(typical[i]);
  }
  Percentiles p = Summarize(us);
  report->Set("p50_us", p.p50, "us");
  report->Set("p99_us", p.high, "us");
  char line[200];
  std::snprintf(line, sizeof(line),
                "%s: n=%zu requests, high percentile p%.0f", what, p.count,
                p.high_pct);
  report->Note(line);
}

void ReportServerLayers(const RegistrySnapshot& before,
                        const RegistrySnapshot& after, double requests,
                        int64_t queue_max, const StepResult& step,
                        Report* report) {
  auto d = [&](const char* name) {
    return static_cast<double>(Delta(before, after, name));
  };
  double hits = d("cache.hits"), misses = d("cache.misses");
  report->Set("cache.hit_frac", hits + misses > 0 ? hits / (hits + misses) : 0,
              "ratio");
  report->Set("cache.probe_us",
              HistogramDeltaMean(before, after, "query.cache_probe_us"), "us");
  report->Set("cache.coalesced_waits", d("cache.coalesced_waits"), "count");
  report->Set("cache.evictions", d("cache.evictions"), "count");
  report->Set("cache.epoch_invalidations", d("cache.epoch_invalidations"),
              "count");
  double reqs = d("server.requests");
  report->Set("server.inline_hit_frac",
              reqs > 0 ? d("server.inline_hits") / reqs : 0, "ratio");
  report->Set("server.queue_depth_max", static_cast<double>(queue_max),
              "count");
  report->Set("server.shed", d("server.shed"), "count");
  report->Set("server.degraded", d("server.degraded"), "count");
  report->Set("gen.late_us_p99", Quantile(step.late_us, 0.99), "us");
  report->Set("slca.elements_scanned",
              requests > 0 ? d("slca.elements_scanned") / requests : 0,
              "count");
  report->Set("slca.lookups", requests > 0 ? d("slca.lookups") / requests : 0,
              "count");
  report->Set("rules.count",
              d("query.count") > 0
                  ? d("query.rules_generated") / d("query.count")
                  : 0,
              "count");
  ReportStoreLayers(before, after, requests, report);
}

/// The traced run of a serving workload: the nominal step once untraced
/// and once traced (spans, registry deltas, queue sampling), each on a
/// fresh daemon. `run` runs one nominal pass on a fresh daemon. Returns the
/// traced pass's answered requests.
double TracedNominal(const std::function<StepResult()>& run,
                     const std::function<bool(size_t)>& main_class,
                     Tracer* tracer, Report* report) {
  auto p50 = [&](const StepResult& step) {
    std::vector<double> us;
    for (size_t i = 0; i < step.requests.size(); ++i) {
      const Request& r = step.requests[i];
      if (r.outcome == Outcome::kOk && main_class(i)) {
        us.push_back(LatencyUs(r));
      }
    }
    return Summarize(us).p50;
  };
  StepResult untraced = run();
  RegistrySnapshot before = RegistrySnapshot::Take();
  StepResult traced;
  int64_t queue_max = 0;
  {
    QueueSampler sampler;
    traced = run();
    queue_max = sampler.max();
  }
  RegistrySnapshot after = RegistrySnapshot::Take();
  TraceRequests(traced.requests, tracer);
  double untraced_p50 = p50(untraced);
  report->Set("trace_overhead_frac",
              (p50(traced) - untraced_p50) / untraced_p50, "ratio");
  ReportServerLayers(before, after, static_cast<double>(traced.ok), queue_max,
                     traced, report);
  report->Set("server.residual_us", tracer->MeanSelfMicros("request"), "us");
  report->Set("prepare.us", tracer->MeanSelfMicros("core.prepare"), "us");
  report->Set("scan.us", tracer->MeanSelfMicros("core.scan"), "us");
  report->Set("rank.us", tracer->MeanSelfMicros("core.rank"), "us");
  return static_cast<double>(traced.ok);
}

/// Phases of a serving run of `T` seconds, in the shares its ServeSpec
/// gives. A traced run makes two nominal passes of the same length.
struct ServePlan {
  int serial_passes, nominal_passes;
  double serial_seconds, nominal_seconds, other_seconds;
  static ServePlan For(const RunConfig& config, const ServeSpec& spec) {
    ServePlan p;
    const double T = config.seconds;
    p.serial_passes = config.fast ? 2 : spec.serial_passes;
    p.nominal_passes = config.fast ? 2 : spec.nominal_passes;
    p.serial_seconds = config.fast ? 0 : spec.serial_share * T;
    p.nominal_seconds = spec.nominal_share * T / p.nominal_passes;
    p.other_seconds =
        spec.other_share * T / static_cast<double>(spec.rates.size() - 1);
    return p;
  }
};

/// Per-request median latencies of the two kinds of pass.
struct PhaseLatencies {
  std::vector<double> serial;   // index j: serial_list[j]
  std::vector<double> nominal;  // index i: request i of the nominal step
};

/// The untraced phases of a serving run: serial passes (one client, each
/// pass on a fresh daemon confined to the next CPU, passes spread over the
/// plan's serial seconds, latencies scaled to reference host speed with
/// `probe`) reported as qps, then the nominal passes and one step per other
/// rate on fresh daemons, reported as max_qps_at_slo. Returns both phases'
/// per-request median latencies (the open loop's unscaled) and counts the
/// nominal passes' answers and degraded answers.
PhaseLatencies RunServePhases(
    const ServeSpec& spec, const ServePlan& plan, HostProbe* probe,
    const std::function<std::unique_ptr<Daemon>()>& fresh_daemon,
    const std::function<StepResult(double rate, double seconds)>& step_on,
    const std::vector<uint32_t>& serial_list,
    const std::vector<std::string>& texts, const CheckFn& check,
    Report* report, size_t* answered, size_t* degraded) {
  PhaseLatencies typical;
  PassTimes serial_times;
  const auto serial_start = Clock::now();
  int serial_passes = 0;
  for (; serial_passes < plan.serial_passes ||
         SecondsSince(serial_start) < plan.serial_seconds;
       ++serial_passes) {
    CpuRotation cpu(static_cast<size_t>(serial_passes), 1);
    std::unique_ptr<Daemon> d = fresh_daemon();
    if (d == nullptr) return {};
    PassProbes probes(probe);
    std::vector<Request> reqs = SerialLoop(d->port(), serial_list, texts,
                                           check, report, &probes);
    report->CountAttempt(reqs.size(), Failures(reqs));
    serial_times.Add(probes.Scale(Latencies(reqs)));
  }
  typical.serial = serial_times.Medians();
  double serial_us = 0;
  for (double us : typical.serial) serial_us += us;
  report->Set("qps",
              static_cast<double>(typical.serial.size()) * 1e6 / serial_us,
              "1/s");
  char line[120];
  std::snprintf(line, sizeof(line), "%s serial: %zu requests x %d passes",
                spec.name, typical.serial.size(), serial_passes);
  report->Note(line);

  PassTimes nominal_times;
  double max_qps = 0;
  for (int p = 0; p < plan.nominal_passes; ++p) {
    CpuRotation cpus(static_cast<size_t>(p), spec.nominal_cpus);
    StepResult step = step_on(spec.nominal_rate, plan.nominal_seconds);
    for (const Request& r : step.requests) {
      *answered += r.outcome == Outcome::kOk;
      *degraded += r.outcome == Outcome::kOk && r.degraded;
    }
    nominal_times.Add(Latencies(step.requests));
    if (p == 0) {
      if (LadderStep(spec, step, report)) max_qps = spec.nominal_rate;
    } else {
      CountStep(spec, step, report);
    }
  }
  for (double rate : spec.rates) {
    if (rate == spec.nominal_rate) continue;
    if (LadderStep(spec, step_on(rate, plan.other_seconds), report)) {
      max_qps = std::max(max_qps, rate);
    }
  }
  report->Set("max_qps_at_slo", max_qps, "1/s");
  typical.nominal = nominal_times.Medians();
  return typical;
}

int Finish(const RunConfig& config, Report* report) {
  std::vector<std::string> keep;
  if (config.trace) {
    for (const auto& [name, unit] : PerLayerMetrics()) {
      if (!report->Has(name)) report->Set(name, 0, unit);
      keep.push_back(name);
    }
  } else {
    report->Set("failed_frac",
                static_cast<double>(report->failed()) /
                    static_cast<double>(
                        std::max<uint64_t>(1, report->attempted())),
                "ratio");
    keep = EndToEndMetricNames();
  }
  return report->Finish(keep);
}

}  // namespace

int RunServeStore(const RunConfig& config) {
  Report report;
  const text::Lexicon lexicon = text::Lexicon::BuiltIn();
  const ServeSpec spec{"serve_store", config.fast ? 200u : 2000u, true,
                       {100, 200, 400, 800}, 100, 50'000, 2, 0.75, 1, 0.08,
                       0.12, 4};
  const ServePlan plan = ServePlan::For(config, spec);
  const size_t serial_n = config.fast ? 20 : 700;

  server::AdmissionOptions admission;
  Served served;
  // Admission thresholds and the heavy queries depend on the corpus, so the
  // set-up rounds come first (their daemons only warm up, under default
  // admission) and the inputs are drawn from the kept corpus.
  HostProbe probe;
  if (!SetUpRounds(config, spec, lexicon, admission, &probe, &served,
                   &report)) {
    return report.Finish({});
  }
  const index::IndexedCorpus& corpus = *served.corpus.index;

  // Inputs: distinct well-behaved queries plus distinct heavy ones built
  // from the corpus's highest-volume terms, one request in twenty heavy.
  // Every open-loop step replays the same list on a fresh daemon, so the
  // list covers the longest step; the serial list follows it.
  size_t step_n = 0;
  for (double rate : spec.rates) {
    double secs =
        rate == spec.nominal_rate ? plan.nominal_seconds : plan.other_seconds;
    step_n = std::max(step_n, static_cast<size_t>(rate * secs));
  }
  const size_t total_n = step_n + serial_n;
  std::vector<workload::CorruptedQuery> well =
      MakeQueries(served.corpus, lexicon, total_n, MixSeed(config.seed, 1));
  auto volume = [&](const core::Query& q) {
    uint64_t v = 0;
    for (const auto& t : q) v += corpus.ListSize(t);
    return v;
  };
  uint64_t max_well = 0;
  for (const auto& cq : well) {
    max_well = std::max(max_well, volume(cq.corrupted));
  }
  std::vector<std::pair<size_t, std::string>> by_volume;
  corpus.ForEachKeyword([&](std::string_view kw) {
    by_volume.emplace_back(corpus.ListSize(kw), std::string(kw));
  });
  std::sort(by_volume.rbegin(), by_volume.rend());
  by_volume.resize(std::min<size_t>(by_volume.size(), 40));
  const uint64_t heavy_floor = max_well + max_well / 5;
  std::vector<core::Query> heavy;
  {
    Random rng(MixSeed(config.seed, 3));
    std::set<std::string> seen;
    for (int attempt = 0; heavy.size() < total_n / 20 + 1 && attempt < 100000;
         ++attempt) {
      auto pick = by_volume;
      for (size_t i = pick.size(); i > 1; --i) {
        std::swap(pick[i - 1], pick[static_cast<size_t>(rng.Uniform(
                                   0, static_cast<int64_t>(i) - 1))]);
      }
      core::Query q;
      uint64_t v = 0;
      for (const auto& [size, term] : pick) {
        if (v > heavy_floor || q.size() >= 8) break;
        q.push_back(term);
        v += size;
      }
      if (v <= heavy_floor) continue;
      core::Query sorted = q;
      std::sort(sorted.begin(), sorted.end());
      if (seen.insert(JoinTerms(sorted)).second) heavy.push_back(q);
    }
  }
  // Sized to the corpus as an operator would: well-behaved queries stay
  // under the degrade line, heavy ones land above it, nothing is rejected.
  admission.degrade_list_volume = max_well;
  admission.hot_degrade_list_volume = max_well;
  admission.reject_list_volume = UINT64_MAX;

  std::vector<std::string> texts;
  std::vector<bool> is_heavy;
  {
    size_t w = 0, h = 0;
    for (size_t i = 0; i < total_n; ++i) {
      bool take_heavy = i % 20 == 10 && h < heavy.size();
      if (!take_heavy && w >= well.size()) break;
      is_heavy.push_back(take_heavy);
      texts.push_back(take_heavy ? JoinTerms(heavy[h++])
                                 : JoinTerms(well[w++].corrupted));
    }
  }
  if (texts.size() < total_n) {
    report.Fail("query generator produced too few distinct queries");
    return report.Finish({});
  }
  std::vector<uint32_t> step_list(step_n), serial_list(serial_n);
  for (size_t i = 0; i < step_n; ++i) step_list[i] = static_cast<uint32_t>(i);
  for (size_t i = 0; i < serial_n; ++i) {
    serial_list[i] = static_cast<uint32_t>(step_n + i);
  }

  // References, computed before timing on cache-off engines over the
  // in-memory index of the same corpus: the store-backed daemon must
  // answer byte for byte what the in-memory engine answers.
  std::vector<std::string> reference(texts.size());
  const size_t judged_n = std::min<size_t>(well.size(), config.fast ? 40 : 400);
  std::vector<core::RefineOutcome> judged(judged_n);
  {
    core::XRefine primary(&corpus, &lexicon, {});
    core::XRefine degraded(&corpus, &lexicon, server::MakeDegradedOptions({}));
    ParallelFor(texts.size(), [&](size_t i) {
      const core::XRefine& engine = is_heavy[i] ? degraded : primary;
      reference[i] = ReferenceResponseBytes(
          engine.Run(text::TokenizeQuery(texts[i])), is_heavy[i]);
    });
    ParallelFor(judged_n,
                [&](size_t i) { judged[i] = primary.Run(well[i].corrupted); });
  }
  if (config.perturb_reference) reference[0] += "perturbed";
  {
    std::vector<const core::RefineOutcome*> ptrs;
    for (const auto& o : judged) ptrs.push_back(&o);
    report.Set("cg_at_3", MeanCgAt3(well, ptrs), "gain");
  }

  CheckFn check = [&](const Request& r, const std::string& bytes) {
    return bytes == reference[r.query];
  };
  SetupTimes ignored;
  uint64_t fetched = 0, decoded = 0;  // counted on the traced pass
  auto step_on_fresh_daemon = [&](double rate, double secs,
                                  bool count_fetches = false) {
    std::unique_ptr<Daemon> d = StartDaemon(served, lexicon, admission,
                                            &ignored, &report, count_fetches);
    if (d == nullptr) return StepResult{};
    uint64_t fetched0 = count_fetches ? d->counting->fetches() : 0;
    uint64_t decoded0 = count_fetches ? d->counting->bytes() : 0;
    StepResult step = OpenLoop(d->port(), rate, secs, step_list, texts, check,
                               nullptr, nullptr);
    if (count_fetches) {
      fetched = d->counting->fetches() - fetched0;
      decoded = d->counting->bytes() - decoded0;
    }
    return step;
  };

  if (config.trace) {
    Tracer tracer;
    int pass = 0;
    double answered = TracedNominal(
        [&] {
          StepResult step = step_on_fresh_daemon(
              spec.nominal_rate, plan.nominal_seconds, pass++ == 1);
          CountStep(spec, step, &report);
          return step;
        },
        [&](size_t i) { return !is_heavy[i]; }, &tracer, &report);
    if (answered > 0) {
      report.Set("index.list_fetches", static_cast<double>(fetched) / answered,
                 "count");
      report.Set("index.bytes_decoded", static_cast<double>(decoded) / answered,
                 "B");
    }
    tracer.Dump(config.work_dir + "/serve_store.spans.tsv");
  } else {
    size_t answered = 0, degraded = 0;
    PhaseLatencies typical = RunServePhases(
        spec, plan, &probe,
        [&] {
          return StartDaemon(served, lexicon, admission, &ignored, &report);
        },
        step_on_fresh_daemon, serial_list, texts, check, &report, &answered,
        &degraded);
    // Latency comes from the serial passes: one request at a time, so a
    // slow stretch of the host stretches a request without also queueing
    // the ones behind it, and passes spread over most of the run.
    auto heavy_serial = [&](size_t j) { return is_heavy[serial_list[j]]; };
    ReportLatency(typical.serial, [&](size_t j) { return !heavy_serial(j); },
                  "serial-client latency, median of the passes per request",
                  &report);
    std::vector<double> degraded_us;
    for (size_t j = 0; j < typical.serial.size(); ++j) {
      if (heavy_serial(j) && typical.serial[j] < kNoRun) {
        degraded_us.push_back(typical.serial[j]);
      }
    }
    Percentiles dp = Summarize(degraded_us);
    report.Set("degraded_p99_us", dp.high, "us");
    report.Set("degraded_frac",
               answered > 0 ? static_cast<double>(degraded) /
                                  static_cast<double>(answered)
                            : 0,
               "ratio");
    char line[200];
    std::snprintf(line, sizeof(line),
                  "degraded answers: n=%zu requests, high percentile p%.0f",
                  dp.count, dp.high_pct);
    report.Note(line);
  }
  FILE* f = std::fopen(served.store_path.c_str(), "rb");
  if (f != nullptr) {
    std::fseek(f, 0, SEEK_END);
    long bytes = std::ftell(f);
    std::fclose(f);
    report.Set("store_bytes_per_posting",
               static_cast<double>(bytes) /
                   static_cast<double>(served.corpus.total_postings),
               "B");
    char line[200];
    std::snprintf(line, sizeof(line),
                  "store file %ld bytes; pager pool 64 pages (%zu bytes); "
                  "posting-list cache %u bytes",
                  bytes, size_t{64} * storage::kPageSize, 256u << 10);
    report.Note(line);
  }
  std::remove(served.store_path.c_str());
  probe.NoteTo(&report);
  return Finish(config, &report);
}

int RunServeHot(const RunConfig& config) {
  Report report;
  const text::Lexicon lexicon = text::Lexicon::BuiltIn();
  const ServeSpec spec{"serve_hot", config.fast ? 200u : 300u, false,
                       {125, 250, 500, 1000}, 250, 50'000, 4, 0, 4, 0.7,
                       0.1, 1};
  const ServePlan plan = ServePlan::For(config, spec);
  const size_t distinct = config.fast ? 64 : 256;
  const size_t serial_n = config.fast ? 2000 : 15000;
  const double write_interval_s = 2.0;
  const double post_write_window_s = 0.1;

  Served served;
  HostProbe probe;
  if (!SetUpRounds(config, spec, lexicon, server::AdmissionOptions{}, &probe,
                   &served, &report)) {
    return report.Finish({});
  }
  std::vector<workload::CorruptedQuery> pool =
      MakeQueries(served.corpus, lexicon, distinct, MixSeed(config.seed, 1));
  std::vector<std::string> texts;
  for (const auto& cq : pool) texts.push_back(JoinTerms(cq.corrupted));

  // A Zipf-skewed trace (s = 1) over the distinct queries; every step
  // replays its prefix, the serial loop its own stretch.
  size_t step_n = 0;
  for (double rate : spec.rates) {
    double secs =
        rate == spec.nominal_rate ? plan.nominal_seconds : plan.other_seconds;
    step_n = std::max(step_n, static_cast<size_t>(rate * secs));
  }
  std::vector<uint32_t> trace(step_n + serial_n);
  {
    Random rng(MixSeed(config.seed, 4));
    std::vector<double> cdf(pool.size());
    double sum = 0;
    for (size_t i = 0; i < pool.size(); ++i) {
      sum += 1.0 / static_cast<double>(i + 1);
      cdf[i] = sum;
    }
    for (auto& c : cdf) c /= sum;
    for (auto& q : trace) {
      size_t rank = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), rng.NextDouble()) -
          cdf.begin());
      q = static_cast<uint32_t>(std::min(rank, pool.size() - 1));
    }
  }
  std::vector<uint32_t> step_list(trace.begin(),
                                  trace.begin() + static_cast<long>(step_n));
  std::vector<uint32_t> serial_list(trace.begin() + static_cast<long>(step_n),
                                    trace.end());

  // Writes: log version k holds the accepted refinements (issued ->
  // intended) of the first k batches of four distinct queries, each
  // recorded twice to reach the mining support. A step attaches versions
  // 1, 2, ... at fixed offsets; references cover every version a step
  // reaches.
  double longest = std::max(plan.nominal_seconds, plan.other_seconds);
  std::vector<double> write_offsets;
  for (double at = write_interval_s / 2; at < longest; at += write_interval_s) {
    write_offsets.push_back(at);
  }
  std::vector<core::QueryLog> logs(write_offsets.size() + 1);
  for (size_t k = 1; k < logs.size(); ++k) {
    logs[k] = logs[k - 1];
    for (size_t j = 0; j < 4; ++j) {
      const auto& cq = pool[((k - 1) * 4 + j) % pool.size()];
      logs[k].Record(cq.corrupted, cq.intended);
      logs[k].Record(cq.corrupted, cq.intended);
    }
  }
  std::vector<std::vector<std::string>> reference(
      logs.size(), std::vector<std::string>(pool.size()));
  std::vector<core::RefineOutcome> judged(pool.size());
  {
    std::vector<std::unique_ptr<core::XRefine>> engines;
    for (size_t k = 0; k < logs.size(); ++k) {
      engines.push_back(std::make_unique<core::XRefine>(
          served.corpus.index.get(), &lexicon, core::XRefineOptions{}));
      if (k > 0) engines.back()->AttachQueryLog(logs[k]);
    }
    ParallelFor(logs.size() * pool.size(), [&](size_t i) {
      size_t k = i / pool.size(), q = i % pool.size();
      core::RefineOutcome out = engines[k]->Run(pool[q].corrupted);
      reference[k][q] = ReferenceResponseBytes(out, false);
      if (k == 0) judged[q] = std::move(out);
    });
  }
  if (config.perturb_reference) reference[0][trace[0]] += "perturbed";
  {
    std::vector<const core::RefineOutcome*> ptrs;
    for (const auto& o : judged) ptrs.push_back(&o);
    report.Set("cg_at_3", MeanCgAt3(pool, ptrs), "gain");
  }

  // Write epoch: even = version epoch/2 is live; odd = an attach is in
  // progress and either neighbouring version may answer. A request may
  // match any version live between its send and its reply.
  std::atomic<uint64_t> epoch{0};
  CheckFn check = [&](const Request& r, const std::string& bytes) {
    uint64_t lo = r.epoch_sent / 2, hi = (r.epoch_done + 1) / 2;
    for (uint64_t v = lo; v <= hi && v < reference.size(); ++v) {
      if (bytes == reference[v][r.query]) return true;
    }
    return false;
  };
  std::vector<double> attach_us;
  SetupTimes ignored;
  // A fresh daemon whose cache holds every distinct query (one serial
  // pass, also checked), then one open-loop step with the writes.
  auto fresh = [&]() -> std::unique_ptr<Daemon> {
    epoch.store(0);
    std::unique_ptr<Daemon> d = StartDaemon(
        served, lexicon, server::AdmissionOptions{}, &ignored, &report);
    if (d == nullptr) return nullptr;
    std::vector<uint32_t> all(pool.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
    std::vector<Request> warm = SerialLoop(d->port(), all, texts, check,
                                           &report);
    report.CountAttempt(warm.size(), Failures(warm));
    return d;
  };
  auto step_on_fresh_daemon = [&](double rate, double secs) {
    std::unique_ptr<Daemon> d = fresh();
    if (d == nullptr) return StepResult{};
    return OpenLoop(
        d->port(), rate, secs, step_list, texts, check, &epoch,
        [&](Clock::time_point start) {
          for (size_t k = 0; k < write_offsets.size(); ++k) {
            if (write_offsets[k] >= secs) break;
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(write_offsets[k])));
            epoch.fetch_add(1);
            auto t0 = Clock::now();
            d->primary->AttachQueryLog(logs[k + 1]);
            attach_us.push_back(MicrosBetween(t0, Clock::now()));
            epoch.fetch_add(1);
          }
        });
  };
  // Requests due within the window after a scheduled write.
  auto post_write = [&](size_t i) {
    double due = static_cast<double>(i) / spec.nominal_rate;
    for (double at : write_offsets) {
      if (due >= at && due < at + post_write_window_s) return true;
    }
    return false;
  };
  // The main class: requests outside the post-write windows whose query
  // was already requested at least 20 ms earlier since the last write, so
  // the answer is in the cache — the hit path this workload is about. The
  // rest are refills.
  std::vector<bool> expected_hit(step_list.size());
  {
    std::vector<double> seen(pool.size(), -1);
    size_t next_write = 0;
    for (size_t i = 0; i < step_list.size(); ++i) {
      double due = static_cast<double>(i) / spec.nominal_rate;
      while (next_write < write_offsets.size() &&
             due >= write_offsets[next_write]) {
        std::fill(seen.begin(), seen.end(), -1);
        ++next_write;
      }
      double& first = seen[step_list[i]];
      if (first < 0) first = due;
      expected_hit[i] = !post_write(i) && due - first >= 0.02;
    }
  }

  if (config.trace) {
    Tracer tracer;
    RegistrySnapshot before = RegistrySnapshot::Take();
    size_t attaches_before = attach_us.size();
    TracedNominal(
        [&] {
          StepResult step =
              step_on_fresh_daemon(spec.nominal_rate, plan.nominal_seconds);
          CountStep(spec, step, &report);
          return step;
        },
        [&](size_t i) { return expected_hit[i]; }, &tracer, &report);
    RegistrySnapshot after = RegistrySnapshot::Take();
    report.Set("write.attach_us", Quantile(attach_us, 0.5), "us");
    double writes = static_cast<double>(attach_us.size() - attaches_before);
    report.Set("refill.count",
               writes > 0 ? static_cast<double>(
                                Delta(before, after, "cache.misses")) /
                                writes
                          : 0,
               "count");
    tracer.Dump(config.work_dir + "/serve_hot.spans.tsv");
  } else {
    size_t answered = 0, degraded = 0;
    std::vector<double> typical =
        RunServePhases(spec, plan, &probe, fresh, step_on_fresh_daemon,
                       serial_list, texts, check, &report, &answered,
                       &degraded)
            .nominal;
    ReportLatency(typical, [&](size_t i) { return expected_hit[i]; },
                  "nominal-rate latency of expected cache hits, median of "
                  "the passes per request",
                  &report);
    std::vector<double> pw;
    for (size_t i = 0; i < typical.size(); ++i) {
      if (post_write(i) && typical[i] < kNoRun) pw.push_back(typical[i]);
    }
    Percentiles p = Summarize(pw);
    report.Set("post_write_p99_us", p.high, "us");
    char line[200];
    std::snprintf(line, sizeof(line),
                  "post-write window %.0f ms after each attach: n=%zu "
                  "requests, high percentile p%.0f; %zu distinct queries, "
                  "result cache 1024 entries",
                  post_write_window_s * 1e3, p.count, p.high_pct,
                  pool.size());
    report.Note(line);
  }
  probe.NoteTo(&report);
  return Finish(config, &report);
}

}  // namespace xrefine::perfbench
