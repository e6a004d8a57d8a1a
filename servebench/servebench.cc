// Service benchmark for the LDP heavy-hitters stack.
//
// One process drives the real serving path over loopback:
//   client Aggregator::Encode + EncodeReportBatch -> net::ReportClient (TCP)
//   -> ReportServer -> EpochManager (2 shards, CheckpointStore at
//   SyncMode::kFull with group commit on) -> ReplicaStore/ReplicaView
//   -> WindowedQuery + EstimateTopK.
//
// Phases of every workload (README.md gives each workload's inputs):
//   1. set-up   generate the stream with its ground truth, open the store,
//               start the server and the replica (and pre-populate history);
//               repeated, the median is setup_s.
//   2. encode   one thread encodes the whole stream into 512-report frames.
// Then kCycles cycles of:
//   re-encode   the encoder runs again, off the wire, for a slice of time;
//   3. closed   2 connections replay a round of frames as fast as acks allow;
//   4. open     1 connection sends a segment of frames at a fixed rate while
//               one thread queries and one thread refreshes the replica.
// Then the counts, exactness and ground-truth checks run, and the service is
// torn down in order: server, manager, replica, store, directory.
//
// Usage:
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --work-dir <dir>
// The last stdout line is one JSON object: correct, attempted, failed and
// the end-to-end (--trace 0) or per-layer (--trace 1) metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "open_loop.h"
#include "src/common/random.h"
#include "src/net/report_client.h"
#include "src/obs/json_reader.h"
#include "src/obs/metrics.h"
#include "src/protocols/aggregator.h"
#include "src/protocols/registry.h"
#include "src/server/epoch_manager.h"
#include "src/server/replica_view.h"
#include "src/server/report_codec.h"
#include "src/server/report_server.h"
#include "src/store/checkpoint_store.h"
#include "src/store/replica_store.h"
#include "src/workload/workload.h"

#ifndef SERVEBENCH_GIT_COMMIT
#define SERVEBENCH_GIT_COMMIT "unknown"
#endif
#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SERVEBENCH_COMPILER
#define SERVEBENCH_COMPILER "unknown"
#endif

namespace servebench {
namespace {

using ldphh::Aggregator;
using ldphh::DomainItem;
using ldphh::HeavyHitterEntry;
using ldphh::Status;
using ldphh::WireReport;

constexpr size_t kFrameReports = 512;
constexpr int kShards = 2;
constexpr int kSetupRepeats = 5;
constexpr size_t kCycles = 24;  // Closed-loop round + open-loop segment pairs.
constexpr double kBeta = 1e-3;  // Failure probability of the accuracy checks.
constexpr int kDeadlineSeconds = 165;

// ------------------------------------------------------------- workloads --

enum class Shape { kPlanted, kZipf };

struct WorkloadSpec {
  std::string name;
  std::string config;            // ProtocolConfig text.
  Shape shape = Shape::kZipf;
  int item_bits = 32;            // Generator item width.
  std::vector<double> planted;   // kPlanted: heavy shares of n.
  uint64_t zipf_items = 0;       // kZipf: distinct items.
  double zipf_s = 1.1;
  bool remap_to_domain = false;  // Map the distinct items onto [0, items).
  uint64_t reports_per_epoch = 0;
  uint64_t history_epochs = 0;   // Closed epochs pre-populated in set-up.
  size_t closed_round_frames = 0;  // Phase 3 round: a whole number of epochs.
  size_t closed_frames = 0;      // Frames of phase 3: kCycles rounds.
  double open_rate = 0;          // Phase 4 offered load, reports/s.
  double open_share = 0.6;       // Phase 4 length as a share of --seconds.
  std::vector<uint64_t> windows; // Query window lengths, in epochs.
  int repeats = 1;               // Times each window is asked per round.
  double query_rate = 0;         // Queries started per second; 0: back to back.
  bool primary_too = false;      // Alternate queries between primary/replica.
  size_t query_k = 10;           // k of the query mix.
  size_t check_k = 16;           // k of the all-epochs correctness query.
};

bool MakeSpecFor(const std::string& name, WorkloadSpec* s) {
  s->name = name;
  if (name == "pes_planted") {
    s->config = "private_expander_sketch(domain_bits=32,eps=4,n_hint=1048576)";
    s->shape = Shape::kPlanted;
    s->item_bits = 32;
    s->planted = {0.16, 0.14, 0.12, 0.10};
    s->reports_per_epoch = uint64_t{1} << 18;
    s->closed_round_frames = 512;  // One epoch.
    s->open_rate = 350000;
    s->windows = {4};
    s->query_rate = 40;
    s->query_k = 8;
    s->check_k = 16;
    return true;
  }
  if (name == "unary_small_epochs") {
    s->config = "rappor_unary(domain=56,eps=1)";
    s->shape = Shape::kZipf;
    s->item_bits = 32;
    s->zipf_items = 56;
    s->zipf_s = 1.1;
    s->remap_to_domain = true;
    s->reports_per_epoch = uint64_t{1} << 15;
    s->closed_round_frames = 256;  // Four epochs.
    s->open_rate = 300000;
    s->windows = {64};
    s->query_rate = 200;
    s->query_k = 10;
    s->check_k = 10;
    return true;
  }
  if (name == "hashtogram_history") {
    s->config = "hashtogram(domain_bits=16,eps=4)";
    s->shape = Shape::kZipf;
    s->item_bits = 16;
    s->zipf_items = 4096;
    s->zipf_s = 1.1;
    s->reports_per_epoch = uint64_t{1} << 14;
    s->history_epochs = 100;
    s->closed_round_frames = 128;  // Four epochs.
    s->open_rate = 50000;
    s->windows = {1, 8, 32};
    s->repeats = 3;
    s->primary_too = true;
    s->query_k = 10;
    s->check_k = 16;
    return true;
  }
  return false;
}

bool MakeSpec(const std::string& name, WorkloadSpec* s) {
  if (!MakeSpecFor(name, s)) return false;
  s->closed_frames = kCycles * s->closed_round_frames;
  return true;
}

// -------------------------------------------------------------- helpers --

std::atomic<const char*> g_phase{"start"};

double PeakRssMb();

void SetPhase(const char* phase) {
  g_phase.store(phase);
  std::fprintf(stderr, "servebench: phase %s (peak rss so far %.1f MB)\n",
               phase, PeakRssMb());
}

// Fails the run, naming the phase, instead of letting a hang stall it.
class Watchdog {
 public:
  explicit Watchdog(int seconds)
      : thread_([this, seconds] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::seconds(seconds),
                            [this] { return stop_; })) {
            std::fprintf(stderr,
                         "servebench: run deadline of %d s exceeded in phase "
                         "'%s'\n",
                         seconds, g_phase.load());
            std::fflush(stderr);
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "servebench: FAILED in phase '%s': %s\n", g_phase.load(),
               what.c_str());
  std::fflush(stderr);
  std::exit(2);
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

template <typename T>
T Take(ldphh::StatusOr<T> v, const char* what) {
  Check(v.status(), what);
  return std::move(v).value();
}

// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[rank == 0 ? 0 : rank - 1];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Ns(Clock::duration d) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

// z with P(|Z| > z) = tail for a standard normal Z.
double TwoSidedZ(double tail) {
  double lo = 0.0, hi = 40.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (std::erfc(mid / std::sqrt(2.0)) > tail) lo = mid; else hi = mid;
  }
  return hi;
}

uint64_t ConfigUint(const ldphh::ProtocolConfig& c, const char* key) {
  uint64_t v = 0;
  Check(c.GetUint(key, &v), key);
  return v;
}

double ConfigDouble(const ldphh::ProtocolConfig& c, const char* key) {
  double v = 0;
  Check(c.GetDouble(key, &v), key);
  return v;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// ---------------------------------------------------------------- tracing --

// Spans around each call the benchmark makes into a layer. Kept in memory
// and written at exit with the metrics registry; off unless --trace 1.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t id;
    uint64_t parent;
    uint64_t request;
  };

  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
  bool on() const { return on_; }
  uint64_t NewId() { return next_id_.fetch_add(1); }

  uint64_t Record(const char* name, Clock::time_point start,
                  Clock::time_point end, uint64_t parent, uint64_t request,
                  uint64_t id = 0) {
    if (!on_) return 0;
    if (id == 0) id = NewId();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, static_cast<int64_t>(Ns(start - origin_)),
                      static_cast<int64_t>(Ns(end - origin_)), id, parent,
                      request});
    return id;
  }

  bool Write(const std::string& path, const std::string& metrics_json) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\":[");
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"start_ns\":%" PRId64
                   ",\"end_ns\":%" PRId64 ",\"id\":%" PRIu64
                   ",\"parent\":%" PRIu64 ",\"request\":%" PRIu64 "}",
                   i == 0 ? "" : ",", s.name, s.start_ns, s.end_ns, s.id,
                   s.parent, s.request);
    }
    std::fprintf(f, "\n],\"metrics\":%s}\n", metrics_json.c_str());
    return std::fclose(f) == 0;
  }

  size_t size() {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  const bool on_;
  const Clock::time_point origin_;
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

// ------------------------------------------------- registry snapshots --

// Counter/gauge values and histogram buckets of the process registry, so
// per-layer figures cover only the load phases (set-up repeats and history
// pre-population are subtracted out).
struct RegistrySnapshot {
  std::map<std::string, double> values;
  std::map<std::string, std::map<uint64_t, uint64_t>> buckets;
};

RegistrySnapshot TakeRegistrySnapshot() {
  ldphh::obs::JsonValue doc;
  Check(ldphh::obs::ParseJson(ldphh::obs::MetricsRegistry::Global().DumpJson(),
                              &doc),
        "parse metrics dump");
  RegistrySnapshot snap;
  const ldphh::obs::JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr) return snap;
  for (const auto& m : metrics->array) {
    const auto* name = m.Find("name");
    const auto* type = m.Find("type");
    if (name == nullptr || type == nullptr) continue;
    if (type->string_value == "histogram") {
      auto& b = snap.buckets[name->string_value];
      if (const auto* list = m.Find("buckets")) {
        for (const auto& entry : list->array) {
          b[static_cast<uint64_t>(entry.Find("le")->number_value)] =
              static_cast<uint64_t>(entry.Find("count")->number_value);
        }
      }
    } else if (const auto* v = m.Find("value")) {
      snap.values[name->string_value] = v->number_value;
    }
  }
  return snap;
}

double Delta(const RegistrySnapshot& a, const RegistrySnapshot& b,
             const std::string& name) {
  const auto ia = a.values.find(name);
  const auto ib = b.values.find(name);
  return (ib == b.values.end() ? 0.0 : ib->second) -
         (ia == a.values.end() ? 0.0 : ia->second);
}

// Quantile (bucket upper bound) of the observations made between a and b.
double DeltaQuantile(const RegistrySnapshot& a, const RegistrySnapshot& b,
                     const std::string& name, double q, uint64_t* count) {
  std::map<uint64_t, uint64_t> d;
  uint64_t total = 0;
  const auto ib = b.buckets.find(name);
  if (ib != b.buckets.end()) {
    const auto ia = a.buckets.find(name);
    for (const auto& [le, c] : ib->second) {
      uint64_t before = 0;
      if (ia != a.buckets.end()) {
        const auto it = ia->second.find(le);
        if (it != ia->second.end()) before = it->second;
      }
      if (c > before) {
        d[le] = c - before;
        total += c - before;
      }
    }
  }
  if (count != nullptr) *count = total;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  uint64_t acc = 0;
  for (const auto& [le, c] : d) {
    acc += c;
    if (static_cast<double>(acc) >= target) return static_cast<double>(le);
  }
  return static_cast<double>(d.rbegin()->first);
}

double DeltaQuantile(const RegistrySnapshot& a, const RegistrySnapshot& b,
                     const std::string& name, double q) {
  return DeltaQuantile(a, b, name, q, nullptr);
}

// Deepest shard queue right now (ShardedAggregator's queue-depth gauges).
double QueueDepthNow() {
  const RegistrySnapshot snap = TakeRegistrySnapshot();
  double depth = 0;
  for (int s = 0; s < kShards; ++s) {
    const auto it = snap.values.find(ldphh::obs::LabeledName(
        "ldphh_ingest_queue_depth", "shard", std::to_string(s)));
    if (it != snap.values.end()) depth = std::max(depth, it->second);
  }
  return depth;
}

// ---------------------------------------------------------------- service --

enum LoadPhase : int { kSetupLoad = 0, kClosedLoad = 3, kOpenLoad = 4 };

// What the sink wrapper records about every SubmitWire call.
struct SinkLog {
  std::atomic<int> phase{kSetupLoad};
  // Span id of the open-loop frame being sent (one connection in phase 4,
  // so the sink call in flight belongs to it).
  std::atomic<uint64_t> open_frame_span{0};
  std::atomic<uint64_t> open_frame_seq{0};
  std::mutex mu;
  std::vector<double> open_sink_us;                 // Phase 4, in frame order.
  std::vector<double> all_sink_us;                  // Phases 3 and 4.
  std::vector<uint64_t> closed_under_load;  // Epochs closed in phases 3, 4.
  // Phase 4 epoch -> start of the SubmitWire call that closed it (its last
  // frame reached the sink). The replica is refreshed in phase 4 only.
  std::map<uint64_t, Clock::time_point> closing_frame;
};

struct Service {
  std::string dir;
  std::unique_ptr<ldphh::CheckpointStore> store;
  std::unique_ptr<ldphh::EpochManager> manager;
  std::mutex manager_mu;  // EpochManager's control surface is single-threaded.
  std::unique_ptr<ldphh::ReportServer> server;
  std::unique_ptr<ldphh::ReplicaStore> replica;
  std::unique_ptr<ldphh::ReplicaView> view;
  SinkLog log;
  bool server_stopped = false;
  bool manager_closed = false;

  // Stops ingestion, then releases everything in dependency order, and only
  // then deletes the store directory.
  void Teardown() {
    const char* saved = g_phase.load();
    SetPhase("teardown");
    StopIngest();
    view.reset();
    replica.reset();
    server.reset();
    manager.reset();
    store.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    g_phase.store(saved);
  }

  void StopIngest() {
    if (server != nullptr && !server_stopped) {
      server->Stop();
      server_stopped = true;
    }
    if (manager != nullptr && !manager_closed) {
      std::lock_guard<std::mutex> lock(manager_mu);
      Check(manager->Close(), "EpochManager::Close");
      manager_closed = true;
    }
  }

  ~Service() { Teardown(); }
};

Status SubmitToManager(Service* svc, Tracer* tracer, std::string_view payload) {
  const Clock::time_point t0 = Clock::now();
  Status status;
  bool closed = false;
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(svc->manager_mu);
    epoch = svc->manager->current_epoch();
    status = svc->manager->SubmitWire(payload);
    closed = svc->manager->current_epoch() != epoch;
  }
  const Clock::time_point t1 = Clock::now();
  const int phase = svc->log.phase.load();
  if (phase == kSetupLoad) return status;
  const double us = Ns(t1 - t0) / 1e3;
  uint64_t parent = 0, request = 0;
  {
    std::lock_guard<std::mutex> lock(svc->log.mu);
    svc->log.all_sink_us.push_back(us);
    if (phase == kOpenLoad) {
      svc->log.open_sink_us.push_back(us);
      parent = svc->log.open_frame_span.load();
      request = svc->log.open_frame_seq.load();
    }
    if (closed) svc->log.closed_under_load.push_back(epoch);
    if (closed && phase == kOpenLoad) svc->log.closing_frame[epoch] = t0;
  }
  tracer->Record("sink.submit_wire", t0, t1, parent, request);
  return status;
}

// Starts the service's ReportServer; its sink is the epoch manager.
void StartServer(Service* svc, Tracer* tracer) {
  ldphh::ReportServer::Options options;
  // One sink thread: the manager admits one SubmitWire at a time anyway.
  options.sink_threads = 1;
  svc->server = Take(ldphh::ReportServer::Create(
                         options,
                         [svc, tracer](std::string_view payload) {
                           return SubmitToManager(svc, tracer, payload);
                         }),
                     "ReportServer::Create");
  Check(svc->server->Start(), "ReportServer::Start");
}

// Everything one set-up produces: the stream, its truth, the service, and
// the direct aggregator that sees the same reports outside the server path.
struct Env {
  WorkloadSpec spec;
  uint64_t seed = 0;
  ldphh::ProtocolConfig config;  // Resolved.
  uint16_t wire_id = 0;
  std::vector<uint64_t> stream;  // Item values of the served stream.
  uint64_t history_reports = 0;
  std::unordered_map<uint64_t, uint64_t> truth;  // Whole database.
  std::unique_ptr<Aggregator> direct;
  std::unique_ptr<Service> svc;
  std::vector<std::string> frames;
};

void Encode(const Aggregator& client, uint64_t first_user,
            const uint64_t* values, size_t count, ldphh::Rng& rng,
            std::vector<WireReport>* out) {
  out->clear();
  for (size_t i = 0; i < count; ++i) {
    auto r = client.Encode(first_user + i, DomainItem(values[i]), rng);
    Check(r.status(), "Aggregator::Encode");
    out->push_back({first_user + i, r.value().report});
  }
}

std::unique_ptr<Env> SetUp(const WorkloadSpec& spec, uint64_t seed,
                           double seconds, const std::string& work_dir,
                           int rep, Tracer* tracer) {
  auto env = std::make_unique<Env>();
  env->spec = spec;
  env->seed = seed;

  // Stream size: the closed-loop frames plus what the open loop offers.
  const size_t open_frames = static_cast<size_t>(
      std::ceil(spec.open_rate * seconds * spec.open_share / kFrameReports));
  const uint64_t stream_reports =
      static_cast<uint64_t>(spec.closed_frames + open_frames) * kFrameReports;
  env->history_reports = spec.history_epochs * spec.reports_per_epoch;
  const uint64_t n = env->history_reports + stream_reports;

  ldphh::Workload w =
      spec.shape == Shape::kPlanted
          ? ldphh::MakePlantedWorkload(n, spec.item_bits, spec.planted, seed)
          : ldphh::MakeZipfWorkload(n, spec.item_bits, spec.zipf_items,
                                    spec.zipf_s, seed);
  std::vector<uint64_t> values(w.database.size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = w.database[i].limbs[0];
  w = ldphh::Workload();
  if (spec.remap_to_domain) {
    std::vector<uint64_t> distinct = values;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    for (auto& v : values) {
      v = static_cast<uint64_t>(
          std::lower_bound(distinct.begin(), distinct.end(), v) -
          distinct.begin());
    }
  }
  for (uint64_t v : values) ++env->truth[v];

  auto config = Take(ldphh::ProtocolConfig::FromText(spec.config), "config");
  env->direct = Take(ldphh::CreateAggregator(config), "CreateAggregator");
  env->config = env->direct->config();
  env->wire_id =
      Take(ldphh::ProtocolRegistry::Global().WireIdOf(env->config.protocol()),
           "WireIdOf");

  auto svc = std::make_unique<Service>();
  svc->dir = work_dir + "/store-" + std::to_string(getpid()) + "-" +
             std::to_string(rep);
  std::error_code ec;
  std::filesystem::remove_all(svc->dir, ec);
  std::filesystem::create_directories(svc->dir);

  ldphh::CheckpointStoreOptions store_options;
  store_options.sync_mode = ldphh::SyncMode::kFull;
  store_options.group_commit = true;  // The library default is off.
  svc->store = Take(ldphh::CheckpointStore::Open(svc->dir, store_options),
                    "CheckpointStore::Open");
  ldphh::EpochManagerOptions manager_options;
  manager_options.reports_per_epoch = spec.reports_per_epoch;
  manager_options.aggregator.num_shards = kShards;
  svc->manager = Take(
      ldphh::EpochManager::Create(env->config, svc->store.get(), manager_options),
      "EpochManager::Create");
  Check(svc->manager->Start(), "EpochManager::Start");

  // History: closed epochs written before any load, submitted in-process.
  if (env->history_reports > 0) {
    ldphh::Rng rng(seed ^ 0x6869737431ull);
    std::vector<WireReport> reports;
    for (uint64_t off = 0; off < env->history_reports; off += kFrameReports) {
      Encode(*env->direct, off, values.data() + off, kFrameReports, rng,
             &reports);
      for (const auto& r : reports) Check(env->direct->Aggregate(r), "direct");
      Check(SubmitToManager(svc.get(), tracer,
                            ldphh::EncodeReportBatch(reports, env->wire_id)),
            "history SubmitWire");
    }
    // Load begins on a settled store: the history's compactions are done.
    Check(svc->store->WaitForCompaction(), "WaitForCompaction");
  }
  env->stream.assign(values.begin() + static_cast<std::ptrdiff_t>(env->history_reports),
                     values.end());

  StartServer(svc.get(), tracer);
  svc->replica = Take(ldphh::ReplicaStore::Open(svc->dir, {}), "ReplicaStore::Open");
  svc->view = std::make_unique<ldphh::ReplicaView>(svc->replica.get());
  env->svc = std::move(svc);
  return env;
}

// ----------------------------------------------------------------- phases --

struct EncodeResult {
  double protocol_ns = 0;   // Aggregator::Encode per report.
  double codec_ns = 0;      // EncodeReportBatch per report.
  double aggregate_ns = 0;  // Direct Aggregator::Aggregate per report.
  double decode_ns = 0;     // DecodeReportBatch per report (traced runs).
  double bytes_per_report = 0;
};

// The encode rate is taken per chunk of frames. Besides phase 2's pass, each
// load cycle encodes the stream again, off the wire, for kReencodeSeconds /
// kCycles, so the chunks are spread over the whole run. Other tenants of a
// shared machine only ever slow a chunk, and their load shifts on the scale
// of seconds, so the 99th-percentile chunk is the encoder's own rate (as
// the fastest of repeated timings is); a slower encoder moves every chunk.
constexpr size_t kChunkFrames = 128;
constexpr double kReencodeSeconds = 8.0;

class EncodeTimer {
 public:
  explicit EncodeTimer(const Env& env)
      : env_(env),
        client_(Take(ldphh::CreateAggregator(env.config), "client aggregator")),
        rng_(env.seed ^ 0x7265656e63ull) {}

  // Adds one frame's encode time.
  void Add(Clock::duration d) {
    chunk_ += d;
    if (++chunk_frames_ == kChunkFrames) {
      rates_.push_back(kChunkFrames * kFrameReports / (Ns(chunk_) / 1e9));
      chunk_frames_ = 0;
      chunk_ = Clock::duration{};
    }
  }

  // Encodes frames of the stream again, off the wire, for about `seconds`.
  void Reencode(double seconds) {
    const size_t frames = env_.stream.size() / kFrameReports;
    std::vector<WireReport> reports;
    std::string frame;
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    while (Clock::now() < end) {
      const Clock::time_point t0 = Clock::now();
      Encode(*client_, env_.history_reports + next_ * kFrameReports,
             env_.stream.data() + next_ * kFrameReports, kFrameReports, rng_,
             &reports);
      frame = ldphh::EncodeReportBatch(reports, env_.wire_id);
      Add(Clock::now() - t0);
      next_ = (next_ + 1) % frames;
    }
  }

  const std::vector<double>& rates() const { return rates_; }

 private:
  const Env& env_;
  std::unique_ptr<Aggregator> client_;
  ldphh::Rng rng_;
  size_t next_ = 0;
  size_t chunk_frames_ = 0;
  Clock::duration chunk_{};
  std::vector<double> rates_;
};

EncodeResult EncodePhase(Env* env, Tracer* tracer, EncodeTimer* timer) {
  EncodeResult r;
  auto client = Take(ldphh::CreateAggregator(env->config), "client aggregator");
  ldphh::Rng rng(env->seed ^ 0x73747265616dull);
  const size_t frames = env->stream.size() / kFrameReports;
  env->frames.resize(frames);
  std::vector<WireReport> reports;
  reports.reserve(kFrameReports);
  std::vector<WireReport> decoded;
  Clock::duration encode{}, codec{}, aggregate{}, decode{};
  uint64_t bytes = 0;
  for (size_t f = 0; f < frames; ++f) {
    const uint64_t first = env->history_reports + f * kFrameReports;
    const Clock::time_point t0 = Clock::now();
    Encode(*client, first, env->stream.data() + f * kFrameReports,
           kFrameReports, rng, &reports);
    const Clock::time_point t1 = Clock::now();
    env->frames[f] = ldphh::EncodeReportBatch(reports, env->wire_id);
    const Clock::time_point t2 = Clock::now();
    encode += t1 - t0;
    codec += t2 - t1;
    timer->Add(t2 - t0);
    bytes += env->frames[f].size();
    if (tracer->on()) {
      const uint64_t parent = tracer->Record("client.frame", t0, t2, 0, f);
      tracer->Record("protocols.encode", t0, t1, parent, f);
      tracer->Record("report_codec.encode_batch", t1, t2, parent, f);
      decoded.clear();
      const Clock::time_point d0 = Clock::now();
      Check(ldphh::DecodeReportBatch(env->frames[f], &decoded), "decode");
      decode += Clock::now() - d0;
    }
    const Clock::time_point a0 = Clock::now();
    for (const auto& rep : reports) Check(env->direct->Aggregate(rep), "direct");
    aggregate += Clock::now() - a0;
  }
  const double n = static_cast<double>(frames * kFrameReports);
  r.protocol_ns = Ns(encode) / n;
  r.codec_ns = Ns(codec) / n;
  r.aggregate_ns = Ns(aggregate) / n;
  r.decode_ns = Ns(decode) / n;
  r.bytes_per_report = static_cast<double>(bytes) / n;
  return r;
}

struct ClientCounters {
  uint64_t frames_sent = 0;
  uint64_t frames_acked = 0;
  uint64_t frames_failed = 0;
  uint64_t busy_retries = 0;
  uint64_t reconnects = 0;
};

void AddStats(const ldphh::net::ReportClient::Stats& s, ClientCounters* c) {
  c->frames_acked += s.frames_acked;
  c->busy_retries += s.busy_retries;
  c->reconnects += s.reconnects;
}

struct LoadOutput {
  std::vector<double> round_rates;  // Phase 3: reports/s of each round.
  OpenLoopResult sender;            // Phase 4, all segments in order.
  std::vector<double> segment_ack_p50;  // Phase 4: median ack of each segment.
  std::vector<double> query_ms, merge_ms, topk_ms;
  std::map<uint64_t, std::vector<double>> query_ms_by_window;
  uint64_t queries = 0, queries_failed = 0, distinct_windows = 0;
  std::vector<double> refresh_ms;
  uint64_t refreshes = 0;
  std::map<uint64_t, Clock::time_point> seen;  // Epoch -> first visible.
  double queue_depth_max = 0;
};

// One phase-3 round: both connections start together, send their half of
// the round's frames as fast as acks allow and flush. Returns its rate,
// first send -> last ack (the round's epoch closes included).
double ClosedRound(Env* env, Tracer* tracer, size_t r,
                   std::vector<std::unique_ptr<ldphh::net::ReportClient>>* clients,
                   double* queue_depth_max) {
  const size_t round_frames = env->spec.closed_round_frames;
  const size_t connections = clients->size();
  std::mutex mu;
  std::condition_variable cv;
  size_t ready = 0, finished = 0;
  Clock::time_point start = Clock::time_point::max(), end{};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (++ready == connections) cv.notify_all();
        cv.wait(lock, [&] { return ready == connections; });
      }
      ldphh::net::ReportClient& client = *(*clients)[c];
      const Clock::time_point t_start = Clock::now();
      const size_t begin = r * round_frames;
      for (size_t f = begin + c; f < begin + round_frames; f += connections) {
        const Clock::time_point t0 = Clock::now();
        const Status s = client.Send(env->frames[f]);
        tracer->Record("net.client_send", t0, Clock::now(), 0, f);
        if (!s.ok()) std::fprintf(stderr, "servebench: send: %s\n", s.ToString().c_str());
      }
      const Clock::time_point t0 = Clock::now();
      const Status s = client.Flush();
      const Clock::time_point t_end = Clock::now();
      tracer->Record("net.client_flush", t0, t_end, 0, r);
      if (!s.ok()) std::fprintf(stderr, "servebench: flush: %s\n", s.ToString().c_str());
      std::lock_guard<std::mutex> lock(mu);
      start = std::min(start, t_start);
      end = std::max(end, t_end);
      ++finished;
    });
  }
  // Traced runs sample the shard queues from this otherwise idle thread.
  while (tracer->on()) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (finished == connections) break;
    }
    *queue_depth_max = std::max(*queue_depth_max, QueueDepthNow());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (auto& t : threads) t.join();
  return static_cast<double>(round_frames * kFrameReports) / (Ns(end - start) / 1e9);
}

// Phases 3 and 4 alternate in kCycles cycles: a closed-loop round (queries
// paused), then an open-loop segment (queries running). Spread over the
// whole run, each phase samples the same spells of a shared machine's
// background load instead of one phase catching a busy spell and the other
// a quiet one.
void LoadPhase(Env* env, Tracer* tracer, EncodeTimer* encode_timer,
               ClientCounters* counters, LoadOutput* out) {
  Service* svc = env->svc.get();
  const WorkloadSpec& spec = env->spec;
  const size_t first_open = spec.closed_frames;
  const size_t open_frames = env->frames.size() - first_open;
  std::atomic<bool> done{false};
  std::atomic<bool> paused{true};
  std::atomic<bool> querying{false};

  std::vector<std::unique_ptr<ldphh::net::ReportClient>> closed_clients;
  for (int c = 0; c < 2; ++c) {
    closed_clients.push_back(Take(ldphh::net::ReportClient::ConnectTcp(
                                      "127.0.0.1", svc->server->port(), {}),
                                  "connect"));
  }
  ldphh::net::ReportClient::Options open_options;
  open_options.pipeline_window = 1;  // Send() returns once the frame is acked.
  auto open_client = Take(ldphh::net::ReportClient::ConnectTcp(
                              "127.0.0.1", svc->server->port(), open_options),
                          "connect");

  std::thread refresher([&] {
    while (!done.load()) {
      const Clock::time_point t0 = Clock::now();
      auto advanced = svc->view->Refresh();
      const Clock::time_point t1 = Clock::now();
      tracer->Record("replica_view.refresh", t0, t1, 0, out->refreshes);
      out->refresh_ms.push_back(MsBetween(t0, t1));
      ++out->refreshes;
      if (advanced.ok() && advanced.value()) {
        for (uint64_t e : svc->view->PersistedEpochs()) {
          out->seen.emplace(e, t1);
        }
      }
      if (tracer->on() && out->refreshes % 5 == 0) {
        out->queue_depth_max = std::max(out->queue_depth_max, QueueDepthNow());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::thread querier([&] {
    std::map<std::pair<uint64_t, uint64_t>, int> asked;
    uint64_t q = 0;
    const Clock::duration period =
        spec.query_rate > 0
            ? std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(1.0 / spec.query_rate))
            : Clock::duration::zero();
    Clock::time_point due = Clock::now();
    // Queries start once the widest window is covered, so every query asks
    // for the mix's full windows.
    const uint64_t widest = *std::max_element(spec.windows.begin(), spec.windows.end());
    while (!done.load()) {
      const std::vector<uint64_t> visible = svc->view->PersistedEpochs();
      if (visible.size() < widest) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      // Primary queries ask only about epochs the primary lists too: the
      // replica can list a just-closed epoch before the primary's own index
      // does, and the primary then answers OutOfRange.
      uint64_t last = visible.back();
      if (spec.primary_too) {
        const std::vector<uint64_t> on_primary = svc->manager->PersistedEpochs();
        if (on_primary.empty()) continue;
        last = std::min(last, on_primary.back());
      }
      for (uint64_t w : spec.windows) {
        for (int rep = 0; rep < spec.repeats && !done.load(); ++rep, ++q) {
          const uint64_t first = last + 1 >= visible.front() + w
                                     ? last + 1 - w
                                     : visible.front();
          const bool primary = spec.primary_too && q % 2 == 1;
          // Paced queries keep their rate; a pause does not bunch them up.
          due = std::max(due + period, Clock::now());
          std::this_thread::sleep_until(due);
          // Wait out closed-loop rounds (paused is checked after querying is
          // set, so the round never starts while a query runs).
          querying.store(true);
          while (paused.load() && !done.load()) {
            querying.store(false);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            querying.store(true);
          }
          if (done.load()) {
            querying.store(false);
            break;
          }
          ++asked[{first, last}];
          const Clock::time_point t0 = Clock::now();
          auto agg_or = primary ? svc->manager->WindowedQuery(first, last)
                                : svc->view->WindowedQuery(first, last);
          const Clock::time_point t1 = Clock::now();
          Status status = agg_or.status();
          if (status.ok()) {
            auto agg = std::move(agg_or).value();
            auto top = agg->EstimateTopK(spec.query_k);
            status = top.status();
          }
          const Clock::time_point t2 = Clock::now();
          querying.store(false);
          ++out->queries;
          if (!status.ok()) {
            ++out->queries_failed;
            std::fprintf(stderr, "servebench: %s query [%" PRIu64 ", %" PRIu64
                         "]: %s\n", primary ? "primary" : "replica", first, last,
                         status.ToString().c_str());
            continue;
          }
          const uint64_t parent = tracer->Record(
              primary ? "query.primary" : "query.replica", t0, t2, 0, q);
          tracer->Record("epoch_manager.window_query", t0, t1, parent, q);
          tracer->Record("protocols.estimate_topk", t1, t2, parent, q);
          out->query_ms.push_back(MsBetween(t0, t2));
          out->query_ms_by_window[last + 1 - first].push_back(MsBetween(t0, t2));
          out->merge_ms.push_back(MsBetween(t0, t1));
          out->topk_ms.push_back(MsBetween(t1, t2));
        }
      }
    }
    out->distinct_windows = asked.size();
  });

  for (size_t c = 0; c < kCycles; ++c) {
    // Re-encoding and a phase 3 round, queries paused.
    paused.store(true);
    while (querying.load()) std::this_thread::sleep_for(std::chrono::microseconds(200));
    encode_timer->Reencode(kReencodeSeconds / kCycles);
    svc->log.phase.store(kClosedLoad);
    out->round_rates.push_back(
        ClosedRound(env, tracer, c, &closed_clients, &out->queue_depth_max));
    // Phase 4 segment, queries running.
    svc->log.phase.store(kOpenLoad);
    paused.store(false);
    const size_t begin = open_frames * c / kCycles;
    const size_t count = open_frames * (c + 1) / kCycles - begin;
    const OpenLoopResult r = RunOpenLoop(
        count, spec.open_rate / kFrameReports, Clock::now(), [&](size_t i) {
          const uint64_t id = tracer->on() ? tracer->NewId() : 0;
          svc->log.open_frame_span.store(id);
          svc->log.open_frame_seq.store(begin + i);
          const Clock::time_point t0 = Clock::now();
          const Status s = open_client->Send(env->frames[first_open + begin + i]);
          tracer->Record("net.send_ack", t0, Clock::now(), 0, begin + i, id);
          if (!s.ok()) {
            std::fprintf(stderr, "servebench: send: %s\n", s.ToString().c_str());
          }
          return s;
        });
    auto append = [](std::vector<double>* to, const std::vector<double>& v) {
      to->insert(to->end(), v.begin(), v.end());
    };
    append(&out->sender.ack_ms, r.ack_ms);
    append(&out->sender.late_ms, r.late_ms);
    append(&out->sender.send_ms, r.send_ms);
    out->sender.failed += r.failed;
    out->segment_ack_p50.push_back(Quantile(r.ack_ms, 0.5));
  }
  done.store(true);
  querier.join();
  refresher.join();

  counters->frames_sent = env->frames.size();
  for (const auto* client : {closed_clients[0].get(), closed_clients[1].get(),
                             open_client.get()}) {
    AddStats(client->stats(), counters);
  }
  counters->frames_failed = counters->frames_sent - counters->frames_acked;
}

// ----------------------------------------------------------------- checks --

bool SameTopK(const std::vector<HeavyHitterEntry>& a,
              const std::vector<HeavyHitterEntry>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item) return false;
    if (std::memcmp(&a[i].estimate, &b[i].estimate, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// Detection threshold and per-item error bound at this n, from the
// protocol's analysis (never from a recorded output).
struct Accuracy {
  double threshold = 0;
  std::unordered_map<uint64_t, double> bound;  // Item -> error bound.
  std::string how;
};

// Hashtogram-style estimate: R * median over R rows of a row's signed
// bucket count. A row's variance is its randomized-response noise,
// R * n * c^2, plus the mass of other items hashed into the same bucket,
// sum f_y^2 / T; the median of R rows has about 1.2533 * sd_row / sqrt(R).
double SketchSd(double n, double c, double rows, double table,
                double others_sq) {
  const double row_var = rows * n * c * c + others_sq / table;
  return 1.2533 * std::sqrt(row_var / rows);
}

Accuracy ComputeAccuracy(const Env& env, double n) {
  Accuracy acc;
  const std::string& protocol = env.config.protocol();
  const double eps = ConfigDouble(env.config, "eps");
  std::vector<std::pair<uint64_t, uint64_t>> sorted(env.truth.begin(),
                                                    env.truth.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  double sum_sq = 0;
  for (const auto& [item, f] : sorted) sum_sq += static_cast<double>(f) * f;
  const size_t k = env.spec.check_k;
  if (protocol == "private_expander_sketch") {
    // Theorem 3.13 (item 2) with this implementation's constants: an item
    // is recovered once f >= 4.5 c_{eps/2} sqrt(n M Lz), M coordinates of
    // Lz payload bits each; estimates come from the eps/2 Hashtogram.
    const double m = static_cast<double>(ConfigUint(env.config, "num_coords"));
    const double y = static_cast<double>(ConfigUint(env.config, "hash_range"));
    const double d =
        static_cast<double>(ConfigUint(env.config, "expander_degree"));
    const double bits = static_cast<double>(ConfigUint(env.config, "domain_bits"));
    const double message_bytes = std::ceil(bits / 8.0);
    const double chunk = std::max(1.0, std::floor((2 * message_bytes + m - 1) / m));
    const double lz = 8 * chunk + d * std::ceil(std::log2(y));
    const double e = std::exp(eps / 2.0);
    const double c = (e + 1) / (e - 1);
    acc.threshold = 4.5 * c * std::sqrt(n * m * lz);
    const double rows = static_cast<double>(ConfigUint(env.config, "fo_rows"));
    const double table = static_cast<double>(ConfigUint(env.config, "fo_table"));
    const double z = TwoSidedZ(kBeta / static_cast<double>(k));
    for (const auto& [item, f] : sorted) {
      if (static_cast<double>(f) < acc.threshold) break;
      const double others = sum_sq - static_cast<double>(f) * f;
      acc.bound[item] = z * SketchSd(n, c, rows, table, others);
    }
    acc.how = "PES recovery threshold 4.5*c_{eps/2}*sqrt(n*M*Lz), M=" +
              std::to_string(static_cast<int>(m)) +
              " Lz=" + std::to_string(static_cast<int>(lz));
    return acc;
  }
  // Frequency oracles: every estimate within z sd with probability 1-beta
  // over the whole domain, so an item beating the (k+1)-th true count by
  // 2 z sd_max must rank in the top k.
  double domain = 0;
  std::function<double(uint64_t)> sd;
  if (protocol == "rappor_unary") {
    domain = static_cast<double>(ConfigUint(env.config, "domain"));
    const double e = std::exp(eps / 2.0);
    const double p = e / (e + 1), q = 1 - p;
    sd = [=](uint64_t f) {
      const double ff = static_cast<double>(f);
      return std::sqrt(ff * p * (1 - p) + (n - ff) * q * (1 - q)) / (p - q);
    };
    acc.how = "rappor_unary standard error";
  } else if (protocol == "hashtogram") {
    domain = std::ldexp(1.0, static_cast<int>(ConfigUint(env.config, "domain_bits")));
    const double e = std::exp(eps);
    const double c = (e + 1) / (e - 1);
    const double rows = static_cast<double>(ConfigUint(env.config, "rows"));
    const double table = static_cast<double>(ConfigUint(env.config, "table_size"));
    sd = [=](uint64_t f) {
      return SketchSd(n, c, rows, table, sum_sq - static_cast<double>(f) * f);
    };
    acc.how = "hashtogram standard error";
  } else {
    Die("no accuracy model for " + protocol);
  }
  const double z = TwoSidedZ(kBeta / domain);
  double sd_max = sd(0);
  for (const auto& [item, f] : sorted) sd_max = std::max(sd_max, sd(f));
  const double next = sorted.size() > k ? static_cast<double>(sorted[k].second) : 0;
  acc.threshold = next + 2 * z * sd_max;
  for (const auto& [item, f] : sorted) {
    if (static_cast<double>(f) < acc.threshold) break;
    acc.bound[item] = z * sd(f);
  }
  return acc;
}

struct CheckResult {
  bool counts = false, exact = false, truth = false;
};

CheckResult RunChecks(Env* env, uint64_t frames_sent, uint64_t frames_acked,
                      uint64_t rejected_reports, uint64_t rejected_frames) {
  CheckResult r;
  Service* svc = env->svc.get();
  const std::vector<uint64_t> epochs = svc->manager->PersistedEpochs();
  if (epochs.empty()) Die("no persisted epochs");
  uint64_t persisted = 0;
  for (uint64_t e : epochs) {
    persisted += Take(svc->manager->WindowedQuery(e, e), "epoch WindowedQuery")
                     ->ReportCount();
  }
  const uint64_t sent = env->history_reports + frames_sent * kFrameReports;
  const uint64_t acked = env->history_reports + frames_acked * kFrameReports;
  r.counts = sent == acked && acked == persisted && rejected_reports == 0 &&
             rejected_frames == 0;
  std::printf("check counts: sent=%" PRIu64 " acked=%" PRIu64
              " persisted=%" PRIu64 " rejected_reports=%" PRIu64
              " rejected_frames=%" PRIu64 " -> %s\n",
              sent, acked, persisted, rejected_reports, rejected_frames,
              r.counts ? "ok" : "FAIL");

  // The replica must catch up with every closed epoch.
  SetPhase("check.replica_catch_up");
  while (svc->view->PersistedEpochs() != epochs) {
    Check(svc->view->Refresh().status(), "replica Refresh");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  SetPhase("check.exactness");
  const size_t k = env->spec.check_k;
  auto primary = Take(svc->manager->WindowedQuery(epochs.front(), epochs.back()),
                      "primary WindowedQuery");
  auto replica = Take(svc->view->WindowedQuery(epochs.front(), epochs.back()),
                      "replica WindowedQuery");
  const auto top_primary = Take(primary->EstimateTopK(k), "primary top-k");
  const auto top_replica = Take(replica->EstimateTopK(k), "replica top-k");
  const auto top_direct = Take(env->direct->EstimateTopK(k), "direct top-k");
  r.exact = SameTopK(top_primary, top_replica) &&
            SameTopK(top_primary, top_direct) &&
            primary->ReportCount() == env->direct->ReportCount();
  std::printf("check exactness: top-%zu of %zu epochs, primary == replica == "
              "direct aggregator -> %s\n",
              k, epochs.size(), r.exact ? "ok" : "FAIL");

  SetPhase("check.ground_truth");
  const double n = static_cast<double>(env->direct->ReportCount());
  const Accuracy acc = ComputeAccuracy(*env, n);
  r.truth = !acc.bound.empty();
  std::printf("check ground truth: n=%.0f threshold=%.1f (%s), %zu items "
              "above it\n",
              n, acc.threshold, acc.how.c_str(), acc.bound.size());
  for (const auto& [item, bound] : acc.bound) {
    const uint64_t f = env->truth.at(item);
    const auto it = std::find_if(top_primary.begin(), top_primary.end(),
                                 [&](const HeavyHitterEntry& e) {
                                   return e.item == DomainItem(item);
                                 });
    const bool found = it != top_primary.end();
    const double err = found ? std::fabs(it->estimate - static_cast<double>(f)) : 0;
    const bool ok = found && err <= bound;
    std::printf("  item %" PRIu64 ": true=%" PRIu64 " %s est=%.1f |err|=%.1f "
                "bound=%.1f -> %s\n",
                item, f, found ? "found" : "MISSING",
                found ? it->estimate : 0.0, err, bound, ok ? "ok" : "FAIL");
    r.truth = r.truth && ok;
  }
  if (acc.bound.empty()) std::printf("  no item above threshold -> FAIL\n");
  return r;
}

// ------------------------------------------------------------------ main --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a->workload = value;
    else if (key == "--seed") a->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") a->seconds = std::atof(value.c_str());
    else if (key == "--trace") a->trace = value == "1";
    else if (key == "--work-dir") a->work_dir = value;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

void PrintMetric(std::string* json, const char* name, double value,
                 const char* unit) {
  std::printf("metric %-40s %.6f %s\n", name, value, unit);
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.9g,\"unit\":\"%s\"}",
                json->empty() ? "" : ",", name, value, unit);
  json->append(buf);
}

int Main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) || !MakeSpec(args.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: servebench --workload pes_planted|unary_small_epochs|"
                 "hashtogram_history --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR]\n");
    return 2;
  }
  Watchdog watchdog(kDeadlineSeconds);
  Tracer tracer(args.trace);
  std::filesystem::create_directories(args.work_dir);

  std::printf("stamp nproc=%u build_type=%s compiler=\"%s\" git_commit=%s\n",
              std::thread::hardware_concurrency(), SERVEBENCH_BUILD_TYPE,
              SERVEBENCH_COMPILER, SERVEBENCH_GIT_COMMIT);
  std::printf("stamp workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              spec.name.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);
  const ldphh::CheckpointStoreOptions defaults;
  std::printf("stamp store sync_mode=full group_commit=on (set explicitly; "
              "library default %s) segment_max_bytes=%zu compaction_trigger=%d "
              "background_compaction=%s shards=%d frame_reports=%zu\n",
              defaults.group_commit ? "on" : "off", defaults.segment_max_bytes,
              defaults.compaction_trigger,
              defaults.background_compaction ? "on" : "off", kShards,
              kFrameReports);

  // Phase 1: set-up, repeated; the last one is kept.
  SetPhase("setup");
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    env.reset();  // Tears the previous service down first, off the clock.
    const Clock::time_point t0 = rep == 0 ? process_start : Clock::now();
    std::unique_ptr<Env> next =
        SetUp(spec, args.seed, args.seconds, args.work_dir, rep, &tracer);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    env = std::move(next);
  }
  std::printf("info config=%s epoch_reports=%" PRIu64 " history_epochs=%" PRIu64
              " stream_reports=%zu frames=%zu closed_frames=%zu open_rate=%g\n",
              env->config.ToText().c_str(), spec.reports_per_epoch,
              spec.history_epochs, env->stream.size(),
              env->stream.size() / kFrameReports, spec.closed_frames,
              spec.open_rate);

  SetPhase("encode");
  EncodeTimer encode_timer(*env);
  const EncodeResult enc = EncodePhase(env.get(), &tracer, &encode_timer);

  const RegistrySnapshot before = TakeRegistrySnapshot();
  const uint64_t replayed_before = env->svc->replica->Stats().segments_replayed;
  ClientCounters counters;
  SetPhase("load");
  LoadOutput load;
  LoadPhase(env.get(), &tracer, &encode_timer, &counters, &load);
  const RegistrySnapshot after = TakeRegistrySnapshot();
  const uint64_t replayed =
      env->svc->replica->Stats().segments_replayed - replayed_before;

  SetPhase("stop_ingest");
  env->svc->StopIngest();
  SetPhase("checks");
  const CheckResult checks = RunChecks(
      env.get(), counters.frames_sent, counters.frames_acked,
      static_cast<uint64_t>(Delta(before, after,
                                  "ldphh_ingest_rejected_reports_total")),
      static_cast<uint64_t>(
          Delta(before, after, "ldphh_ingest_wire_rejected_batches_total")));
  SetPhase("store_size");
  Check(env->svc->store->WaitForCompaction(), "WaitForCompaction");
  const double store_mb =
      static_cast<double>(DirBytes(env->svc->dir)) / (1024.0 * 1024.0);
  // Epoch blobs written under load: the state size, and the base of the
  // store's write amplification.
  double load_blob_bytes = 0, last_blob_kb = 0;
  {
    std::lock_guard<std::mutex> lock(env->svc->log.mu);
    std::string blob;
    for (uint64_t epoch : env->svc->log.closed_under_load) {
      Check(env->svc->store->Get(epoch, &blob), "store Get");
      load_blob_bytes += static_cast<double>(blob.size());
      last_blob_kb = static_cast<double>(blob.size()) / 1024.0;
    }
  }

  // Visible latency: the epoch's last frame reaches the sink -> first
  // replica refresh that lists the epoch. (Timed from the end of that
  // SubmitWire call instead, it reads 0: the replica can list the epoch
  // before the call returns, while the manager still rolls its shards.)
  std::vector<double> visible_ms;
  {
    std::lock_guard<std::mutex> lock(env->svc->log.mu);
    for (const auto& [epoch, closing] : env->svc->log.closing_frame) {
      const auto it = load.seen.find(epoch);
      if (it == load.seen.end()) continue;
      visible_ms.push_back(MsBetween(closing, it->second));
    }
  }
  std::vector<double> transport_us;
  std::vector<double> sink_us_all;
  {
    std::lock_guard<std::mutex> lock(env->svc->log.mu);
    const auto& sink = env->svc->log.open_sink_us;
    for (size_t i = 0; i < load.sender.send_ms.size() && i < sink.size(); ++i) {
      transport_us.push_back(std::max(0.0, load.sender.send_ms[i] * 1e3 - sink[i]));
    }
    sink_us_all = env->svc->log.all_sink_us;
  }
  const double rss_mb = PeakRssMb();

  SetPhase("teardown");
  const std::string metrics_json =
      ldphh::obs::MetricsRegistry::Global().DumpJson();
  env.reset();

  const bool correct = checks.counts && checks.exact && checks.truth &&
                       load.queries > 0 && !visible_ms.empty();
  const uint64_t attempted = counters.frames_sent + load.queries;
  const uint64_t failed = counters.frames_failed + load.queries_failed;
  std::printf("info frames=%" PRIu64 " acked=%" PRIu64 " failed=%" PRIu64
              " queries=%" PRIu64 " (failed %" PRIu64 ", distinct windows %" PRIu64
              ") open_frames=%zu visible_samples=%zu refreshes=%" PRIu64 "\n",
              counters.frames_sent, counters.frames_acked,
              counters.frames_failed, load.queries, load.queries_failed,
              load.distinct_windows, load.sender.ack_ms.size(),
              visible_ms.size(), load.refreshes);
  const std::vector<double>& chunk_rates = encode_timer.rates();
  std::printf("info encode: %zu chunks of %zu reports, rate p10 %.0f p50 %.0f "
              "p99 %.0f\n",
              chunk_rates.size(), kChunkFrames * kFrameReports,
              Quantile(chunk_rates, 0.1), Quantile(chunk_rates, 0.5),
              Quantile(chunk_rates, 0.99));
  std::printf("info closed-loop rounds: %zu, rate p10 %.0f p50 %.0f p90 %.0f\n",
              load.round_rates.size(), Quantile(load.round_rates, 0.1),
              Quantile(load.round_rates, 0.5), Quantile(load.round_rates, 0.9));
  std::printf("info setup_s:");
  for (double v : setup_s) std::printf(" %.3f", v);
  std::printf("\n");
  for (const auto& [window, ms] : load.query_ms_by_window) {
    std::printf("info queries over %" PRIu64 " epochs: %zu, p50 %.3f ms, p90 "
                "%.3f ms\n",
                window, ms.size(), Quantile(ms, 0.5), Quantile(ms, 0.9));
  }

  // End-to-end figures: the result of an untraced run; a traced run prints
  // them too (outside the result), so the tracing overhead can be read off.
  std::string json, e2e_unused;
  std::string* e2e = args.trace ? &e2e_unused : &json;
  const auto ack = load.sender.ack_ms;
  PrintMetric(e2e, "setup_s", Median(setup_s), "s");
  PrintMetric(e2e, "encode_reports_per_s", Quantile(encode_timer.rates(), 0.99), "1/s");
  // Rates and latencies of the closed-loop rounds and open-loop segments
  // are taken from the better quarter of them: other tenants' CPU steal
  // comes in bursts of a second or so and only ever slows a round or a
  // segment, while a slower service moves all of them (README.md).
  PrintMetric(e2e, "ingest_reports_per_s", Quantile(load.round_rates, 0.75), "1/s");
  PrintMetric(e2e, "ack_p50_ms", Quantile(load.segment_ack_p50, 0.25), "ms");
  std::printf("info ack_p50_ms over all %zu frames %.6f\n", ack.size(),
              Quantile(ack, 0.5));
  // Not gated: on a shared disk its run-to-run spread is several times any
  // useful bound (README.md, "Reference figures and spread").
  std::printf("info ack_p99_ms %.6f over %zu frames\n", Quantile(ack, 0.99),
              ack.size());
  PrintMetric(e2e, "visible_p50_ms", Median(visible_ms), "ms");
  PrintMetric(e2e, "query_p50_ms", Quantile(load.query_ms, 0.5), "ms");
  // Not gated either: a tenth of unary_small_epochs' 0.2 ms queries are
  // preempted by ingest threads, so p90 sits where that share decides it
  // (README.md, "End-to-end metrics").
  std::printf("info query_p90_ms %.6f over %zu queries\n",
              Quantile(load.query_ms, 0.9), load.query_ms.size());
  PrintMetric(e2e, "rss_peak_mb", rss_mb, "MB");
  PrintMetric(e2e, "store_mb", store_mb, "MB");
  if (args.trace) {
    const auto& a = before;
    const auto& b = after;
    auto q_ms = [&](const char* name, double q) {
      return DeltaQuantile(a, b, name, q) / 1e6;
    };
    uint64_t puts = 0, syncs = 0, compaction_count = 0;
    DeltaQuantile(a, b, "ldphh_store_put_duration_ns", 0.5, &puts);
    DeltaQuantile(a, b, "ldphh_log_sync_duration_ns", 0.5, &syncs);
    DeltaQuantile(a, b, "ldphh_store_compaction_duration_ns", 0.5,
                  &compaction_count);
    const double epochs_closed = Delta(a, b, "ldphh_epoch_closed_total");
    const double appended = Delta(a, b, "ldphh_log_appended_bytes_total");
    PrintMetric(&json, "protocols.encode_ns", enc.protocol_ns, "ns");
    PrintMetric(&json, "protocols.aggregate_ns", enc.aggregate_ns, "ns");
    PrintMetric(&json, "protocols.topk_ms_p50", Median(load.topk_ms), "ms");
    PrintMetric(&json, "protocols.state_kb", last_blob_kb, "KB");
    PrintMetric(&json, "report_codec.encode_ns", enc.codec_ns, "ns");
    PrintMetric(&json, "report_codec.decode_ns", enc.decode_ns, "ns");
    PrintMetric(&json, "report_codec.bytes_per_report", enc.bytes_per_report, "B");
    PrintMetric(&json, "report_server.sink_us_p50", Quantile(sink_us_all, 0.5), "us");
    PrintMetric(&json, "report_server.sink_us_p99", Quantile(sink_us_all, 0.99), "us");
    PrintMetric(&json, "report_server.transport_us_p50", Median(transport_us), "us");
    PrintMetric(&json, "net.busy_retries", static_cast<double>(counters.busy_retries), "count");
    PrintMetric(&json, "net.reconnects", static_cast<double>(counters.reconnects), "count");
    PrintMetric(&json, "net.read_throttle_events",
                Delta(a, b, "ldphh_net_read_throttle_events_total"), "count");
    PrintMetric(&json, "sharded_aggregator.batch_aggregate_us_p50",
                DeltaQuantile(a, b, "ldphh_ingest_batch_aggregate_duration_ns", 0.5) / 1e3,
                "us");
    PrintMetric(&json, "sharded_aggregator.queue_depth_max",
                load.queue_depth_max, "count");
    PrintMetric(&json, "epoch_manager.close_ms_p50", q_ms("ldphh_epoch_close_duration_ns", 0.5), "ms");
    PrintMetric(&json, "epoch_manager.close_ms_p99", q_ms("ldphh_epoch_close_duration_ns", 0.99), "ms");
    PrintMetric(&json, "epoch_manager.window_merge_ms_p50", Median(load.merge_ms), "ms");
    PrintMetric(&json, "epoch_manager.epochs_closed", epochs_closed, "count");
    PrintMetric(&json, "checkpoint_store.put_ms_p50", q_ms("ldphh_store_put_duration_ns", 0.5), "ms");
    PrintMetric(&json, "checkpoint_store.put_ms_p99", q_ms("ldphh_store_put_duration_ns", 0.99), "ms");
    PrintMetric(&json, "checkpoint_store.sync_ms_p50", q_ms("ldphh_log_sync_duration_ns", 0.5), "ms");
    PrintMetric(&json, "checkpoint_store.syncs_per_put",
                puts == 0 ? 0.0 : static_cast<double>(syncs) / static_cast<double>(puts),
                "ratio");
    PrintMetric(&json, "checkpoint_store.compactions", static_cast<double>(compaction_count), "count");
    PrintMetric(&json, "checkpoint_store.compaction_ms_p50",
                q_ms("ldphh_store_compaction_duration_ns", 0.5), "ms");
    PrintMetric(&json, "checkpoint_store.write_amp",
                load_blob_bytes == 0 ? 0.0 : appended / load_blob_bytes, "ratio");
    PrintMetric(&json, "replica_view.refresh_ms_p50", Median(load.refresh_ms), "ms");
    PrintMetric(&json, "replica_view.refreshes_per_epoch",
                visible_ms.empty() ? 0.0
                                   : static_cast<double>(load.refreshes) /
                                         static_cast<double>(visible_ms.size()),
                "ratio");
    PrintMetric(&json, "replica_store.segments_replayed", static_cast<double>(replayed), "count");
    PrintMetric(&json, "generator.late_p50_ms", Quantile(load.sender.late_ms, 0.5), "ms");
    PrintMetric(&json, "generator.late_p99_ms", Quantile(load.sender.late_ms, 0.99), "ms");
    const std::string path = args.work_dir + "/trace-" + spec.name + "-" +
                             std::to_string(args.seed) + ".json";
    if (!tracer.Write(path, metrics_json)) Die("cannot write " + path);
    std::printf("info trace: %zu spans and the metrics registry in %s\n",
                tracer.size(), path.c_str());
  }
  std::printf("checks counts=%s exactness=%s ground_truth=%s\n",
              checks.counts ? "ok" : "FAIL", checks.exact ? "ok" : "FAIL",
              checks.truth ? "ok" : "FAIL");
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
