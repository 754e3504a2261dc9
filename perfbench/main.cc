// habf_perfbench: one run of one workload of the repository benchmark.
//
// An in-process net::Server (StoreBackend or DynamicBackend, or the traced
// stand-ins in layers.h) is pinned to one CPU set; net::RunLoadgen, and the
// open-loop mutation client of the dynamic workload, run on a disjoint set.
// The run builds its inputs from --seed (WorkloadStreamKey: stream indices
// [0, N) are members, [N, 2N) the Zipf-costed negatives), sets up several
// times, measures the wire for --seconds in windows, checks every answer it
// can, and prints one JSON object of raw results as its last line. run.py
// turns that into the benchmark's result line.
//
//   habf_perfbench --workload wire_static_large --seed 1 --seconds 30
//                  --trace 0 --work-dir .bench_build/perfbench/work

#include <poll.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dynamic_filter.h"
#include "core/filter_store.h"
#include "core/habf.h"
#include "core/sharded_filter.h"
#include "layers.h"
#include "net/client.h"
#include "net/loadgen.h"
#include "net/protocol.h"
#include "net/server.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/dataset.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using habf::KeySpan;
using habf::WeightedKey;

// --- workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  size_t members;
  bool known_negatives;     // build with stream [N, 2N) as costed negatives
  bool dynamic;             // DynamicShardedHabf + durable WAL + mutations
  size_t keys_per_request;
  size_t connections;
  size_t window;            // closed-loop requests in flight per connection
  uint64_t key_space;       // multiple of N the query stream draws from
  size_t workers;           // server worker loops
};

// Why these two: the paper's setting, with a filter larger than L2 and half
// the keys reaching round 2; and the only mix with durable writes beside
// reads. A third, 200k members in 4-key requests (per-frame cost, filter in
// L2), was dropped: its generator saturated before the server, and its
// throughput and p99 moved 19% and 24% between runs on a 4-vCPU host.
//
// One loadgen connection per client CPU. The large workload's server runs a
// single worker loop, which saturates while the generator keeps headroom.
// The dynamic workload runs three loops: the durable writer connects first
// and the two query connections after it, so every window puts the writer
// on a loop of its own and its fsyncs never stall the queries.
constexpr Workload kWorkloads[] = {
    {"wire_static_large", 2000000, true, false, 64, 2, 8, 2, 1},
    {"wire_dynamic_durable", 400000, false, true, 64, 2, 8, 1, 3},
};

constexpr size_t kShards = 8;
constexpr size_t kBitsPerKey = 10;
// Mild skew: with a heavier head, whether one costly key stays a false
// positive decides weighted_fpr, and the figure stops being steady per seed.
constexpr double kZipfTheta = 0.3;
// Measured windows per run; metrics are window medians, which shrug off the
// few-second slowdowns this kind of shared host shows.
constexpr int kWindows = 10;
constexpr double kWarmupSeconds = 1.0;
constexpr size_t kRecoveryReps = 9;
// The dynamic workload's writer: 16-key durable frames drawn from a bounded
// pool, open loop at a fixed rate of about a fifth of the durable ceiling
// (one fsync per key: a frame holds its loop for ~2 ms here), so the delta
// and the ack latency reach a steady state.
constexpr size_t kMutationKeysPerFrame = 16;
constexpr size_t kMutationPool = 32768;
constexpr double kMutationFramesPerSecond = 100;
constexpr size_t kCaptureBatches = 4096;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return (argc % 2) == 1 && args->seconds > 0 &&
         FindWorkload(args->workload) != nullptr;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// --- CPU placement -----------------------------------------------------------

struct Placement {
  bool pinned = false;
  std::vector<int> all;
  std::vector<int> server;
  std::vector<int> client;
};

Placement ChoosePlacement() {
  Placement p;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) p.all.push_back(cpu);
    }
  }
  // Fewer than 4 CPUs cannot give both sides two of their own: run unpinned
  // and say so in the provenance.
  if (p.all.size() >= 4) {
    p.pinned = true;
    const size_t half = p.all.size() / 2;
    p.server.assign(p.all.begin(), p.all.begin() + half);
    p.client.assign(p.all.begin() + half, p.all.end());
  } else {
    p.server = p.all;
    p.client = p.all;
  }
  return p;
}

void PinThread(int tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(tid, sizeof(set), &set);
}

/// Pins the calling thread; threads it creates afterwards inherit the mask.
void PinSelf(const std::vector<int>& cpus) { PinThread(0, cpus); }

void PinEveryThread(const std::vector<int>& cpus) {
  for (const auto& [tid, cpu] : ReadThreadCpu()) PinThread(tid, cpus);
}

std::vector<int> LiveTids() {
  std::vector<int> tids;
  for (const auto& [tid, cpu] : ReadThreadCpu()) tids.push_back(tid);
  return tids;
}

std::string CpuList(const std::vector<int>& cpus) {
  std::string out;
  for (const int cpu : cpus) {
    if (!out.empty()) out += ",";
    out += std::to_string(cpu);
  }
  return out;
}

// --- inputs ------------------------------------------------------------------

std::vector<std::string> StreamKeys(uint64_t seed, uint64_t begin,
                                    uint64_t count) {
  std::vector<std::string> keys;
  keys.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    keys.push_back(habf::WorkloadStreamKey(seed, begin + i));
  }
  return keys;
}

/// Stream indices [N, 2N) with Zipf(kZipfTheta) costs.
std::vector<WeightedKey> CostedNegatives(uint64_t seed, size_t n) {
  habf::Dataset data;
  data.negatives.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    data.negatives.push_back(WeightedKey{habf::WorkloadStreamKey(seed, n + i), 1.0});
  }
  habf::AssignZipfCosts(&data, kZipfTheta, seed);
  return std::move(data.negatives);
}

/// The filter configuration is fixed; only the keys come from --seed. (The
/// HABF seed picks H0 from hash functions of very different speeds, which
/// would make throughput a property of the seed.)
habf::HabfOptions FilterOptions(const Workload& w) {
  habf::HabfOptions options;
  options.total_bits = w.members * kBitsPerKey;
  return options;
}

habf::ShardedBuildOptions Sharding(const Placement& placement) {
  habf::ShardedBuildOptions sharding;
  sharding.num_shards = kShards;
  sharding.num_threads = placement.all.size();
  sharding.routing = habf::RoutingMode::kTwoChoice;
  return sharding;
}

// --- one set-up: inputs, build, server start ---------------------------------

struct Served {
  std::vector<std::string> members;      // static only (dynamic owns its own)
  std::vector<WeightedKey> negatives;    // known negatives, if any
  std::unique_ptr<StaticStore> store;
  std::unique_ptr<habf::DynamicShardedHabf> dynamic;
  std::unique_ptr<habf::net::ServerBackend> backend;
  std::unique_ptr<habf::net::Server> server;
  std::vector<int> server_tids;
  std::string wal_dir;
  double build_s = 0;
  double setup_s = 0;
};

/// The filter a static server serves (the dynamic tier's current base).
const StaticFilter& BaseFilter(const Served& s,
                               StaticStore::VersionedSnapshot* pin) {
  *pin = s.dynamic != nullptr ? s.dynamic->AcquireBase() : s.store->Acquire();
  return *pin->filter;
}

/// Starts the server on the calling thread's CPU set, then pins each worker
/// loop to one CPU of `cpus` in turn: left to the scheduler, two busy loops
/// sometimes share a CPU for seconds and halve a window's throughput.
bool StartServer(const Workload& w, const std::vector<int>& cpus, Served* s,
                 std::unique_ptr<habf::net::ServerBackend> backend,
                 std::string* error) {
  if (s->server != nullptr) s->server->Shutdown();
  s->server.reset();
  s->backend = std::move(backend);
  habf::net::ServerOptions options;
  options.num_workers = w.workers;
  const std::vector<int> before = LiveTids();
  auto server = std::make_unique<habf::net::Server>(s->backend.get(), options);
  if (!server->Start(error)) return false;
  s->server_tids.clear();
  const std::set<int> old(before.begin(), before.end());
  for (const int tid : LiveTids()) {
    if (old.count(tid) == 0) s->server_tids.push_back(tid);
  }
  // Start() creates the worker threads first and the acceptor last, and
  // Linux hands out thread ids in creation order.
  std::sort(s->server_tids.begin(), s->server_tids.end());
  for (size_t i = 0; i < w.workers && i < s->server_tids.size(); ++i) {
    PinThread(s->server_tids[i], {cpus[i % cpus.size()]});
  }
  s->server = std::move(server);
  return true;
}

bool SetUp(const Workload& w, const Args& args, const Placement& placement,
           Served* s, std::string* error) {
  PinSelf(placement.all);
  if (w.dynamic) {
    s->wal_dir = args.work_dir + "/wal";
    fs::remove_all(s->wal_dir);
  }
  const int64_t start = NowNs();
  std::vector<std::string> members = StreamKeys(args.seed, 0, w.members);
  if (w.known_negatives) s->negatives = CostedNegatives(args.seed, w.members);
  const habf::HabfOptions options = FilterOptions(w);
  const habf::ShardedBuildOptions sharding = Sharding(placement);
  std::unique_ptr<habf::net::ServerBackend> backend;
  int64_t durability_ns = 0;
  const int64_t build_start = NowNs();
  if (w.dynamic) {
    // A shard compacts once 2% of its keys are mutated: after ~6 s of the
    // writer, so inside a traced run's single set-up but not inside one
    // 3-second untraced window.
    habf::DynamicOptions dynamic_options;
    dynamic_options.dirty_fraction_threshold = 0.02;
    s->dynamic = std::make_unique<habf::DynamicShardedHabf>(
        std::move(members), s->negatives, options, sharding, dynamic_options);
    s->build_s = Seconds(NowNs() - build_start);
    // The initial checkpoint is a disk write and fsync: it stays out of
    // setup_s, whose bound would otherwise be the shared disk's.
    const int64_t durability_start = NowNs();
    if (!s->dynamic->EnableDurability(s->wal_dir, error)) return false;
    durability_ns = NowNs() - durability_start;
    backend = std::make_unique<habf::net::DynamicBackend>(s->dynamic.get());
  } else {
    s->store = std::make_unique<StaticStore>(
        habf::BuildShardedHabf(members, s->negatives, options, sharding));
    s->build_s = Seconds(NowNs() - build_start);
    s->members = std::move(members);
    backend = std::make_unique<habf::net::StoreBackend<StaticFilter>>(
        s->store.get());
  }
  // Everything that exists now (the dynamic tier's compaction pool too)
  // serves from the server CPU set; the server threads inherit it.
  PinEveryThread(placement.server);
  if (w.dynamic) {
    s->dynamic->StartBackgroundCompaction(std::chrono::milliseconds(200));
  }
  if (!StartServer(w, placement.server, s, std::move(backend), error)) {
    return false;
  }
  s->setup_s = Seconds(NowNs() - start - durability_ns);
  return true;
}

void TearDown(Served* s) {
  if (s->server != nullptr) s->server->Shutdown();
  s->server.reset();
  s->backend.reset();
  s->dynamic.reset();
  s->store.reset();
}

// --- the open-loop durable writer --------------------------------------------

struct MutationResult {
  uint64_t frames_sent = 0;
  uint64_t frames_acked = 0;
  uint64_t frames_refused = 0;
  uint64_t keys_acked = 0;
  bool transport_ok = false;
  std::string error;
  habf::net::LatencyHistogram ack_ns;
  double duration_s = 0;
};

/// Sends `kMutationKeysPerFrame`-key insert/remove frames on a fixed
/// schedule until `stop`, then drains. Ack latency runs from the scheduled
/// send time, so a stalled server shows as latency, not as fewer samples.
/// last_acked[i] becomes +1 / -1 when pool key i's latest acked op was an
/// insert / remove.
void RunMutations(habf::net::BlockingClient& client,
                  const std::vector<std::string>& pool, uint64_t seed,
                  const std::atomic<bool>& stop,
                  std::vector<int8_t>* last_acked, MutationResult* result) {
  using Clock = std::chrono::steady_clock;
  struct Pending {
    uint64_t id;
    Clock::time_point scheduled;
    bool insert;
    std::vector<uint32_t> indices;
  };
  habf::Xoshiro256 rng(seed ^ 0x6d75746174696f6eULL);
  std::deque<Pending> pending;
  uint64_t next_id = 1;
  const auto interval = std::chrono::nanoseconds(
      static_cast<int64_t>(1e9 / kMutationFramesPerSecond));
  const Clock::time_point start = Clock::now();
  Clock::time_point next_send = start;

  auto receive_one = [&]() {
    habf::net::OwnedFrame frame;
    if (!client.ReadFrame(&frame, &result->error)) return false;
    if (pending.empty()) {
      result->error = "mutation response with nothing in flight";
      return false;
    }
    Pending p = std::move(pending.front());
    pending.pop_front();
    habf::net::MutateResponseView view;
    std::string parse_error;
    if (frame.op == habf::net::kOpMutateResponse && frame.request_id == p.id &&
        habf::net::ParseMutateResponsePayload(frame.payload, &view,
                                              &parse_error) &&
        view.status == habf::net::kStatusOk &&
        view.applied == p.indices.size()) {
      result->frames_acked += 1;
      result->keys_acked += p.indices.size();
      for (const uint32_t i : p.indices) (*last_acked)[i] = p.insert ? 1 : -1;
      result->ack_ns.Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               p.scheduled)
              .count()));
    } else {
      result->frames_refused += 1;
    }
    return true;
  };

  while (!stop.load(std::memory_order_relaxed)) {
    if (Clock::now() >= next_send) {
      Pending p{next_id++, next_send, (rng.Next() & 1) == 0, {}};
      std::vector<std::string_view> keys;
      for (size_t k = 0; k < kMutationKeysPerFrame; ++k) {
        const uint32_t i = static_cast<uint32_t>(rng.NextBounded(pool.size()));
        p.indices.push_back(i);
        keys.push_back(pool[i]);
      }
      if (!client.SendMutation(p.id, p.insert, KeySpan(keys.data(), keys.size()),
                               &result->error)) {
        return;
      }
      result->frames_sent += 1;
      pending.push_back(std::move(p));
      next_send += interval;
      continue;
    }
    pollfd pfd{client.fd(), POLLIN, 0};
    const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
        next_send - Clock::now());
    poll(&pfd, 1, static_cast<int>(std::max<int64_t>(0, wait.count())));
    if ((pfd.revents & POLLIN) != 0 && !receive_one()) return;
  }
  while (!pending.empty()) {
    if (!receive_one()) return;
  }
  result->duration_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  result->transport_ok = true;
}

// --- the wire phase ----------------------------------------------------------

struct WindowResult {
  double keys_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t samples = 0;
};

struct PhaseResult {
  std::vector<WindowResult> windows;
  habf::net::LatencyHistogram latency_ns;
  uint64_t requests_sent = 0;
  uint64_t responses = 0;
  uint64_t keys = 0;
  uint64_t false_negatives = 0;
  bool loadgen_ok = true;
  std::string error;
  MutationResult mutations;
  double wall_s = 0;
  CpuDelta server_cpu;
  int64_t client_cpu_ns = 0;
  habf::net::ServerStats stats_before;
  habf::net::ServerStats stats_after;
  uint64_t protocol_errors = 0;

  /// Folds a later phase (possibly on another server) into this one.
  void Add(const PhaseResult& o) {
    windows.insert(windows.end(), o.windows.begin(), o.windows.end());
    latency_ns.Merge(o.latency_ns);
    requests_sent += o.requests_sent;
    responses += o.responses;
    keys += o.keys;
    false_negatives += o.false_negatives;
    if (!o.loadgen_ok) {
      loadgen_ok = false;
      error = o.error;
    }
    mutations.frames_sent += o.mutations.frames_sent;
    mutations.frames_acked += o.mutations.frames_acked;
    mutations.frames_refused += o.mutations.frames_refused;
    mutations.keys_acked += o.mutations.keys_acked;
    mutations.ack_ns.Merge(o.mutations.ack_ns);
    mutations.duration_s += o.mutations.duration_s;
    if (!o.mutations.transport_ok) {
      mutations.transport_ok = false;
      mutations.error = o.mutations.error;
    }
    wall_s += o.wall_s;
    protocol_errors += o.protocol_errors;
  }
};

habf::net::LoadgenOptions LoadOptions(const Workload& w, const Args& args,
                                      uint16_t port, double seconds) {
  habf::net::LoadgenOptions load;
  load.port = port;
  load.connections = w.connections;
  load.keys_per_request = w.keys_per_request;
  load.max_in_flight = w.window;
  load.duration = std::chrono::milliseconds(
      std::max<int64_t>(1, static_cast<int64_t>(seconds * 1000)));
  load.key_seed = args.seed;
  load.key_space = w.members * w.key_space;
  load.expect_members = w.members;
  load.collect_server_stats = false;
  return load;
}

/// Runs `windows` closed-loop windows of `seconds_each` against the served
/// filter; the dynamic workload's writer runs across all of them.
PhaseResult RunPhase(const Workload& w, const Args& args,
                     const Placement& placement, Served* s, int windows,
                     double seconds_each, const std::vector<std::string>& pool,
                     std::vector<int8_t>* last_acked) {
  PhaseResult phase;
  PinSelf(placement.client);
  phase.stats_before = s->server->stats();
  const std::map<int, ThreadCpu> cpu_before = ReadThreadCpu();
  const int64_t process_before = ProcessCpuNs();
  const int64_t start = NowNs();

  std::atomic<bool> stop{false};
  std::thread writer;
  habf::net::BlockingClient writer_client;
  if (w.dynamic) {
    if (writer_client.Connect("127.0.0.1", s->server->port(),
                              &phase.mutations.error)) {
      writer = std::thread([&] {
        RunMutations(writer_client, pool, args.seed, stop, last_acked,
                     &phase.mutations);
      });
    }
  }
  for (int i = 0; i < windows; ++i) {
    habf::net::LoadgenReport report;
    std::string error;
    const bool ok = habf::net::RunLoadgen(
        LoadOptions(w, args, s->server->port(), seconds_each), &report, &error);
    if (!ok) {
      phase.loadgen_ok = false;
      phase.error = error;
    }
    WindowResult window;
    window.keys_per_s = report.duration_seconds > 0
                            ? static_cast<double>(report.keys_queried) /
                                  report.duration_seconds
                            : 0;
    window.p50_us = static_cast<double>(report.latency_ns.ValueAtPercentile(50)) * 1e-3;
    window.p99_us = static_cast<double>(report.latency_ns.ValueAtPercentile(99)) * 1e-3;
    window.samples = report.latency_ns.count();
    std::fprintf(stderr, "window %d: %.0f keys/s p50 %.1f us p99 %.1f us (%llu samples)\n",
                 i, window.keys_per_s, window.p50_us, window.p99_us,
                 static_cast<unsigned long long>(window.samples));
    phase.windows.push_back(window);
    phase.latency_ns.Merge(report.latency_ns);
    phase.requests_sent += report.requests_sent;
    phase.responses += report.responses_received;
    phase.keys += report.keys_queried;
    phase.false_negatives += report.false_negatives;
  }
  stop.store(true);
  if (writer.joinable()) writer.join();

  phase.wall_s = Seconds(NowNs() - start);
  const std::map<int, ThreadCpu> cpu_after = ReadThreadCpu();
  const int64_t process_cpu = ProcessCpuNs() - process_before;
  phase.stats_after = s->server->stats();
  phase.protocol_errors =
      phase.stats_after.protocol_errors - phase.stats_before.protocol_errors;
  phase.server_cpu = DeltaOver(cpu_before, cpu_after, s->server_tids);
  // Client CPU: the process total minus every thread alive across the whole
  // phase; what is left ran on the loadgen and writer threads, which exited.
  std::vector<int> survivors;
  for (const auto& [tid, cpu] : cpu_before) {
    if (cpu_after.count(tid) != 0) survivors.push_back(tid);
  }
  phase.client_cpu_ns =
      process_cpu - DeltaOver(cpu_before, cpu_after, survivors).on_cpu_ns;
  PinSelf(placement.server);
  return phase;
}

// --- output ------------------------------------------------------------------

class JsonObject {
 public:
  JsonObject& Number(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  JsonObject& String(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
    }
    return Raw(key, quoted + "\"");
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Object(const std::string& key, const JsonObject& value) {
    return Raw(key, value.str());
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonObject& Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
    return *this;
  }
  std::string body_;
};

/// Cost-weighted FPR of `filter` over the costed negatives.
template <typename F>
double WeightedFpr(const F& filter, const std::vector<WeightedKey>& negatives) {
  double hit_cost = 0;
  double total_cost = 0;
  std::vector<std::string_view> views;
  std::vector<uint8_t> out;
  for (size_t begin = 0; begin < negatives.size(); begin += 4096) {
    const size_t end = std::min(negatives.size(), begin + 4096);
    views.clear();
    for (size_t i = begin; i < end; ++i) views.push_back(negatives[i].key);
    out.assign(views.size(), 0);
    filter.ContainsBatch(KeySpan(views.data(), views.size()), out.data());
    for (size_t i = begin; i < end; ++i) {
      total_cost += negatives[i].cost;
      if (out[i - begin]) hit_cost += negatives[i].cost;
    }
  }
  return total_cost > 0 ? hit_cost / total_cost : 0;
}

/// Members of stream [begin, begin + count) the filter misses.
template <typename F>
uint64_t MissedMembers(const F& filter, uint64_t seed, uint64_t begin,
                       uint64_t count) {
  uint64_t missed = 0;
  for (uint64_t chunk = 0; chunk < count; chunk += 4096) {
    const std::vector<std::string> keys =
        StreamKeys(seed, begin + chunk, std::min<uint64_t>(4096, count - chunk));
    const std::vector<std::string_view> views(keys.begin(), keys.end());
    std::vector<uint8_t> out(views.size(), 0);
    filter.ContainsBatch(KeySpan(views.data(), views.size()), out.data());
    for (const uint8_t bit : out) missed += bit == 0 ? 1 : 0;
  }
  return missed;
}

struct BuildLayers {
  double bloom_bytes = 0;
  double expressor_bytes = 0;
  double initial_collisions = 0;
  double optimized = 0;
  double failed = 0;
};

BuildLayers DescribeBuild(const StaticFilter& filter) {
  BuildLayers b;
  for (size_t i = 0; i < filter.num_shards(); ++i) {
    const habf::Habf& shard = filter.shard(i);
    b.bloom_bytes += static_cast<double>(shard.bloom().MemoryUsageBytes());
    b.expressor_bytes += static_cast<double>(shard.expressor().MemoryUsageBytes());
    b.initial_collisions += static_cast<double>(shard.stats().initial_collisions);
    b.optimized += static_cast<double>(shard.stats().optimized);
    b.failed += static_cast<double>(shard.stats().failed);
  }
  return b;
}

/// Per-shard TPJO builds on one thread (each shard's own keys and options).
void TimeShardBuilds(const StaticFilter& filter,
                     const std::vector<std::string>& members,
                     const std::vector<WeightedKey>& negatives, double* max_s,
                     double* sum_s) {
  std::vector<std::vector<std::string_view>> pos(filter.num_shards());
  std::vector<std::vector<habf::WeightedKeyView>> neg(filter.num_shards());
  for (const std::string& key : members) pos[filter.ShardOf(key)].push_back(key);
  for (const WeightedKey& wk : negatives) {
    neg[filter.ShardOf(wk.key)].emplace_back(wk.key, wk.cost);
  }
  *max_s = 0;
  *sum_s = 0;
  for (size_t i = 0; i < filter.num_shards(); ++i) {
    const int64_t start = NowNs();
    habf::Habf shard = habf::Habf::Build(
        habf::StringSpan(pos[i].data(), pos[i].size()),
        habf::WeightedKeySpan(neg[i].data(), neg[i].size()),
        filter.shard(i).options());
    const double s = Seconds(NowNs() - start);
    habf::DoNotOptimizeAway(shard.MemoryUsageBytes());
    *max_s = std::max(*max_s, s);
    *sum_s += s;
  }
}

int Run(const Args& args) {
  const Workload& w = *FindWorkload(args.workload);
  const Placement placement = ChoosePlacement();
  fs::create_directories(args.work_dir);
  std::string error;

  // Every untraced window runs on a set-up of its own, so setup_s and
  // build_s are medians over set-ups spread across the whole run (a burst of
  // host noise then moves one sample, not the median).
  std::vector<double> setup_times;
  std::vector<double> build_times;
  Served served;
  auto set_up = [&]() {
    TearDown(&served);
    served = Served();
    if (!SetUp(w, args, placement, &served, &error)) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      return false;
    }
    setup_times.push_back(served.setup_s);
    build_times.push_back(served.build_s);
    return true;
  };
  if (!set_up()) return 1;

  // Offline, before any mutation: the deterministic per-seed figures.
  const std::vector<WeightedKey> eval_negatives =
      w.known_negatives ? served.negatives : CostedNegatives(args.seed, w.members);
  double weighted_fpr = 0;
  double filter_bytes = 0;
  uint64_t missed_members = 0;
  BuildLayers build_layers;
  {
    StaticStore::VersionedSnapshot pin;
    const StaticFilter& base = BaseFilter(served, &pin);
    build_layers = DescribeBuild(base);
    if (w.dynamic) {
      weighted_fpr = WeightedFpr(*served.dynamic, eval_negatives);
      filter_bytes = static_cast<double>(served.dynamic->MemoryUsageBytes());
      missed_members = MissedMembers(*served.dynamic, args.seed, 0, w.members);
    } else {
      weighted_fpr = WeightedFpr(base, eval_negatives);
      filter_bytes = static_cast<double>(base.MemoryUsageBytes());
      missed_members = MissedMembers(base, args.seed, 0, w.members);
    }
  }

  const std::vector<std::string> pool =
      w.dynamic ? StreamKeys(args.seed, 2 * w.members, kMutationPool)
                : std::vector<std::string>();
  // Per pool key, the last acked op against the current set-up's filter.
  std::vector<int8_t> last_acked(pool.size(), 0);

  // Warm-up, then the measured windows. A traced run splits its time between
  // untraced windows and traced ones, on a single set-up.
  RunPhase(w, args, placement, &served, 1, kWarmupSeconds, pool, &last_acked);
  const int windows = args.trace ? kWindows / 2 : kWindows;
  const double seconds_each = args.seconds / kWindows;
  PhaseResult plain;
  plain.mutations.transport_ok = true;
  for (int i = 0; i < windows; ++i) {
    if (i > 0 && !args.trace) {
      if (!set_up()) return 1;
      std::fill(last_acked.begin(), last_acked.end(), 0);
    }
    plain.Add(RunPhase(w, args, placement, &served, 1, seconds_each, pool,
                       &last_acked));
  }
  std::optional<PhaseResult> traced;
  Tracer tracer;
  BatchCapture capture(kCaptureBatches);
  if (args.trace) {
    std::unique_ptr<habf::net::ServerBackend> traced_backend;
    if (w.dynamic) {
      traced_backend = std::make_unique<TracedDynamicBackend>(
          served.dynamic.get(), &tracer, &capture);
    } else {
      traced_backend = std::make_unique<TracedStoreBackend>(
          served.store.get(), &tracer, &capture);
    }
    PinSelf(placement.server);
    if (!StartServer(w, placement.server, &served, std::move(traced_backend),
                     &error)) {
      std::fprintf(stderr, "traced server failed: %s\n", error.c_str());
      return 1;
    }
    traced = RunPhase(w, args, placement, &served, windows, seconds_each,
                      pool, &last_acked);
  }
  served.server->Shutdown();

  // Restart from disk: the static snapshot, or the dynamic tier dropped
  // with no checkpoint and recovered from its WAL.
  std::vector<double> recovery_times;
  uint64_t recovery_violations = 0;
  uint64_t recovery_checked = 0;
  habf::DynamicStats dynamic_stats;
  double delta_size = 0;
  if (w.dynamic) {
    served.dynamic->StopBackgroundCompaction();
    dynamic_stats = served.dynamic->stats();
    delta_size = static_cast<double>(served.dynamic->delta_size());
  }
  std::optional<ReplayCosts> replay;
  double hash_ns = 0;
  ProtocolCosts protocol;
  if (traced.has_value()) {
    const auto& batches = capture.batches();
    StaticStore::VersionedSnapshot pin;
    const StaticFilter& base = BaseFilter(served, &pin);
    if (w.dynamic) {
      replay = ReplayDynamic(*served.dynamic, batches);
    } else {
      replay = ReplayStatic(base, batches);
    }
    hash_ns = HashValuesNsPerKey(base, batches);
    const habf::net::ServerStats& a = traced->stats_before;
    const habf::net::ServerStats& b = traced->stats_after;
    const double batches_answered =
        static_cast<double>(std::max<uint64_t>(1, b.batches_answered - a.batches_answered));
    const size_t requests_per_read = static_cast<size_t>(std::lround(
        static_cast<double>(b.requests_answered - a.requests_answered) /
        batches_answered));
    protocol = MeasureProtocol(batches, w.keys_per_request, requests_per_read);
  }

  if (w.dynamic) {
    served.dynamic.reset();  // the drop: no checkpoint after the last ack
    std::vector<std::string> copies;
    for (size_t r = 0; r < kRecoveryReps; ++r) {
      const std::string copy = args.work_dir + "/recover-" + std::to_string(r);
      fs::remove_all(copy);
      fs::copy(served.wal_dir, copy);
      copies.push_back(copy);
    }
    for (size_t r = 0; r < copies.size(); ++r) {
      const int64_t start = NowNs();
      std::unique_ptr<habf::DynamicShardedHabf> reopened =
          habf::DynamicShardedHabf::Open(copies[r], {}, &error);
      recovery_times.push_back(Seconds(NowNs() - start));
      if (reopened == nullptr) {
        std::fprintf(stderr, "recovery failed: %s\n", error.c_str());
        recovery_violations += 1;
      } else if (r == 0) {
        for (size_t i = 0; i < pool.size(); ++i) {
          if (last_acked[i] != 1) continue;
          recovery_checked += 1;
          if (!reopened->MightContain(pool[i])) recovery_violations += 1;
        }
        recovery_violations += MissedMembers(*reopened, args.seed, 0, w.members);
      }
      reopened.reset();
      fs::remove_all(copies[r]);
    }
    fs::remove_all(served.wal_dir);
  } else {
    const std::string path = args.work_dir + "/static-snapshot.habf";
    const StaticStore::VersionedSnapshot served_pin = served.store->Acquire();
    served_pin.filter->SaveToFile(path);
    const std::vector<std::string> sample =
        StreamKeys(args.seed, 0, std::min<uint64_t>(2 * w.members, 100000));
    const std::vector<std::string_view> views(sample.begin(), sample.end());
    std::vector<uint8_t> expected(views.size(), 0);
    served_pin.filter->ContainsBatch(KeySpan(views.data(), views.size()),
                                     expected.data());
    for (size_t r = 0; r < 5; ++r) {
      const int64_t start = NowNs();
      std::optional<StaticFilter> loaded = StaticFilter::LoadFromFile(path);
      std::unique_ptr<StaticStore> store;
      if (loaded.has_value()) store = std::make_unique<StaticStore>(std::move(*loaded));
      recovery_times.push_back(Seconds(NowNs() - start));
      if (store == nullptr) {
        recovery_violations += 1;
        continue;
      }
      if (r == 0) {
        std::vector<uint8_t> got(views.size(), 0);
        store->Acquire().filter->ContainsBatch(KeySpan(views.data(), views.size()),
                                               got.data());
        recovery_checked += views.size();
        for (size_t i = 0; i < got.size(); ++i) {
          if (got[i] != expected[i]) recovery_violations += 1;
        }
      }
    }
    fs::remove(path);
  }

  // --- assemble the raw result ----------------------------------------------
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const PhaseResult& e2e = plain;
  std::vector<double> kps, p50, p99;
  uint64_t min_window_samples = ~uint64_t{0};
  for (const WindowResult& window : e2e.windows) {
    kps.push_back(window.keys_per_s);
    p50.push_back(window.p50_us);
    p99.push_back(window.p99_us);
    min_window_samples = std::min(min_window_samples, window.samples);
  }

  JsonObject metrics;
  metrics.Number("wire_keys_per_s", Median(kps))
      .Number("wire_p50_us", Median(p50))
      .Number("wire_p99_us", Median(p99))
      .Number("setup_s", Median(setup_times))
      .Number("build_s", Median(build_times))
      .Number("weighted_fpr", weighted_fpr)
      .Number("filter_bits_per_key",
              filter_bytes * 8 / static_cast<double>(w.members))
      .Number("rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0)
      .Number("recovery_s", Median(recovery_times));

  JsonObject layers;
  if (traced.has_value()) {
    const PhaseResult& t = *traced;
    const double keys = static_cast<double>(std::max<uint64_t>(1, t.keys));
    const SpanTotals query = tracer.Totals(kSpanBackendQuery);
    const SpanTotals mutate = tracer.Totals(kSpanBackendMutate);
    const SpanTotals acquire = tracer.Totals(kSpanStoreAcquire);
    const double backend_keys = static_cast<double>(
        std::max<uint64_t>(1, tracer.Counter(kCountBackendKeys)));
    const double mutate_cpu = static_cast<double>(tracer.Counter(kCountMutateCpuNs));
    const double requests = static_cast<double>(
        t.stats_after.requests_answered - t.stats_before.requests_answered);
    const double batches = static_cast<double>(std::max<uint64_t>(
        1, t.stats_after.batches_answered - t.stats_before.batches_answered));
    const double protocol_ns =
        (protocol.decode_ns_per_request + protocol.encode_ns_per_request) *
        requests;
    // Mutate's thread CPU is nearly all system time (write + fsync per key),
    // so it comes out of the system share to avoid counting it twice.
    const double kernel_ns = std::max(
        0.0, static_cast<double>(t.server_cpu.system_ns) - mutate_cpu);
    const double worker_ns = static_cast<double>(t.server_cpu.on_cpu_ns);
    const double parts = static_cast<double>(query.duration_ns) + mutate_cpu +
                         protocol_ns + kernel_ns;
    const double round1_keys = static_cast<double>(tracer.Counter(kCountRound1Keys));
    const double static_round2_ratio =
        round1_keys > 0
            ? static_cast<double>(tracer.Counter(kCountRound2Keys)) / round1_keys
            : 0;
    const SpanTotals sharded = tracer.Totals(kSpanShardedContains);
    const SpanTotals round1 = tracer.Totals(kSpanHabfRound1);
    const SpanTotals round2 = tracer.Totals(kSpanHabfRound2);
    const double plain_kps = Median(kps);
    std::vector<double> traced_kps;
    for (const WindowResult& window : t.windows) traced_kps.push_back(window.keys_per_s);

    // The same sharded build at one thread and at the configured count.
    double shard_max = 0;
    double shard_sum = 0;
    double speedup = 0;
    {
      const std::vector<std::string> members =
          w.dynamic ? StreamKeys(args.seed, 0, w.members) : served.members;
      PinSelf(placement.all);
      habf::ShardedBuildOptions sharding = Sharding(placement);
      sharding.num_threads = 1;
      int64_t start = NowNs();
      const StaticFilter serial = habf::BuildShardedHabf(
          members, served.negatives, FilterOptions(w), sharding);
      const double serial_s = Seconds(NowNs() - start);
      sharding.num_threads = placement.all.size();
      start = NowNs();
      const StaticFilter parallel = habf::BuildShardedHabf(
          members, served.negatives, FilterOptions(w), sharding);
      speedup = serial_s / std::max(1e-9, Seconds(NowNs() - start));
      TimeShardBuilds(serial, members, served.negatives, &shard_max, &shard_sum);
    }

    layers.Number("hashing.values_ns_per_key", hash_ns)
        .Number("core.habf.round1_ns_per_key",
                w.dynamic ? replay->round1_ns_per_key
                          : static_cast<double>(round1.self_ns) / backend_keys)
        .Number("core.habf.round2_ns_per_key",
                w.dynamic ? replay->round2_ns_per_key
                          : static_cast<double>(round2.self_ns) / backend_keys)
        .Number("core.habf.round2_ratio",
                w.dynamic ? replay->round2_ratio : static_round2_ratio)
        .Number("core.habf.bloom_bytes", build_layers.bloom_bytes)
        .Number("core.hash_expressor.bytes", build_layers.expressor_bytes)
        .Number("core.habf.shard_build_s_max", shard_max)
        .Number("core.habf.shard_build_s_sum", shard_sum)
        .Number("core.habf.initial_collisions", build_layers.initial_collisions)
        .Number("core.habf.optimized", build_layers.optimized)
        .Number("core.habf.failed", build_layers.failed)
        .Number("core.sharded_filter.group_ns_per_key",
                w.dynamic ? replay->group_ns_per_key
                          : static_cast<double>(sharded.self_ns) / backend_keys)
        .Number("build.parallel_speedup", speedup)
        .Number("build.parallel_efficiency",
                speedup / static_cast<double>(placement.all.size()))
        .Number("core.filter_store.acquire_ns",
                w.dynamic ? replay->acquire_ns
                          : static_cast<double>(acquire.duration_ns) /
                                static_cast<double>(std::max<uint64_t>(1, acquire.count)))
        .Number("backend.query_batch_ns_per_key",
                static_cast<double>(query.duration_ns) / backend_keys)
        .Number("backend.keys_per_call",
                backend_keys / static_cast<double>(std::max<uint64_t>(1, query.count)))
        .Number("backend.mutate_us_per_frame",
                mutate.count == 0 ? 0
                                  : static_cast<double>(mutate.duration_ns) * 1e-3 /
                                        static_cast<double>(mutate.count))
        .Number("net.protocol.decode_ns_per_request", protocol.decode_ns_per_request)
        .Number("net.protocol.encode_ns_per_request", protocol.encode_ns_per_request)
        .Number("net.server.keys_per_batch",
                static_cast<double>(t.stats_after.keys_queried -
                                    t.stats_before.keys_queried) / batches)
        .Number("net.server.requests_per_batch", requests / batches)
        .Number("net.server.worker_cpu_ns_per_key", worker_ns / keys)
        .Number("net.server.worker_util",
                worker_ns / (t.wall_s * 1e9 * static_cast<double>(w.workers)))
        .Number("net.server.kernel_ns_per_key", kernel_ns / keys)
        .Number("net.server.remainder_ns_per_key", (worker_ns - parts) / keys)
        .Number("net.server.unexplained_share",
                worker_ns > 0 ? (worker_ns - parts) / worker_ns : 0)
        .Number("client.cpu_ns_per_key", static_cast<double>(t.client_cpu_ns) / keys)
        .Number("core.dynamic_filter.overlay_ns_per_key",
                w.dynamic ? replay->overlay_ns_per_key : 0)
        .Number("core.dynamic_filter.delta_size", delta_size)
        .Number("core.dynamic_filter.compactions",
                static_cast<double>(dynamic_stats.compactions))
        .Number("core.dynamic_filter.keys_drained",
                static_cast<double>(dynamic_stats.keys_drained))
        .Number("core.dynamic_filter.checkpoints",
                static_cast<double>(dynamic_stats.checkpoints))
        .Number("core.dynamic_filter.front_rotations",
                static_cast<double>(dynamic_stats.front_rotations))
        .Number("core.delta_wal.append_fsync_us",
                WalAppendFsyncUs(args.work_dir + "/wal-probe", 200))
        .Number("trace.overhead_share",
                plain_kps > 0 ? 1.0 - Median(traced_kps) / plain_kps : 0);
    tracer.WriteSpans(args.work_dir + "/spans-" + w.name + "-" +
                      std::to_string(args.seed) + ".jsonl");
    if (replay.has_value() && !replay->answers_match) recovery_violations += 1;
  }
  const MutationResult& writes = plain.mutations;
  JsonObject mutation;
  mutation
      .Number("mutation_keys_per_s",
              static_cast<double>(writes.keys_acked) /
                  std::max(1e-9, writes.duration_s))
      .Number("mutation_ack_p50_us",
              static_cast<double>(writes.ack_ns.ValueAtPercentile(50)) * 1e-3)
      .Number("mutation_ack_p99_us",
              static_cast<double>(writes.ack_ns.ValueAtPercentile(99)) * 1e-3);

  JsonObject latency;
  latency.Number("count", static_cast<double>(e2e.latency_ns.count()))
      .Number("min_window_count", static_cast<double>(min_window_samples));
  for (const double pct : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999}) {
    char key[32];
    std::snprintf(key, sizeof(key), "p%g_us", pct);
    latency.Number(
        key, static_cast<double>(e2e.latency_ns.ValueAtPercentile(pct)) * 1e-3);
  }

  // Every request either phase sent, and what went wrong with them.
  double requests_sent = 0, responses = 0, false_negatives = 0;
  double protocol_errors = 0, frames_sent = 0, frames_acked = 0;
  double frames_refused = 0;
  bool transport_ok = true;
  for (const PhaseResult* phase : {&plain, traced ? &*traced : nullptr}) {
    if (phase == nullptr) continue;
    requests_sent += static_cast<double>(phase->requests_sent);
    responses += static_cast<double>(phase->responses);
    false_negatives += static_cast<double>(phase->false_negatives);
    protocol_errors += static_cast<double>(phase->protocol_errors);
    frames_sent += static_cast<double>(phase->mutations.frames_sent);
    frames_acked += static_cast<double>(phase->mutations.frames_acked);
    frames_refused += static_cast<double>(phase->mutations.frames_refused);
    transport_ok = transport_ok && phase->loadgen_ok &&
                   (!w.dynamic || phase->mutations.transport_ok);
    if (!phase->error.empty()) {
      std::fprintf(stderr, "loadgen: %s\n", phase->error.c_str());
    }
    if (w.dynamic && !phase->mutations.transport_ok) {
      std::fprintf(stderr, "writer: %s\n", phase->mutations.error.c_str());
    }
  }
  JsonObject counts;
  counts.Number("query_requests_sent", requests_sent)
      .Number("query_responses", responses)
      .Number("false_negatives", false_negatives)
      .Number("protocol_errors", protocol_errors)
      .Number("mutation_frames_sent", frames_sent)
      .Number("mutation_frames_acked", frames_acked)
      .Number("mutation_frames_refused", frames_refused)
      .Number("mutation_ack_count", static_cast<double>(writes.ack_ns.count()))
      .Number("missed_members", static_cast<double>(missed_members))
      .Number("recovery_checked", static_cast<double>(recovery_checked))
      .Number("recovery_violations", static_cast<double>(recovery_violations))
      .Bool("transport_ok", transport_ok);

  JsonObject provenance;
  provenance.String("build_type", PERFBENCH_BUILD_TYPE)
      .Number("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .String("allowed_cpus", CpuList(placement.all))
      .String("server_cpus", CpuList(placement.server))
      .String("client_cpus", CpuList(placement.client))
      .Bool("pinned", placement.pinned)
      .Number("server_workers", static_cast<double>(w.workers))
      .Number("seed", static_cast<double>(args.seed))
      .String("workload", w.name);

  JsonObject result;
  result.Object("provenance", provenance)
      .Object("counts", counts)
      .Object("latency", latency)
      .Object("metrics", metrics)
      .Object("mutation", mutation);
  if (traced.has_value()) result.Object("layers", layers);
  std::printf("%s\n", result.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "habf_perfbench: refusing to measure a non-Release build\n");
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "habf_perfbench: build type %s is not Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: habf_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  return perfbench::Run(args);
}
