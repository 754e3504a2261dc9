// Unit tests for the load generator (net/loadgen.h): the HDR-style
// histogram's bucketing and percentile math (exact below 64, <= ~1.6%
// relative error above, merge additivity), the closed-loop invariant that
// in-flight depth never exceeds the window (driven against a real loopback
// server), the --mutate-rate mix of durable writes into that loop, and the
// deterministic WorkloadStreamKey stream the generator
// shares with src/workload — which is what makes `--expect-members N` a
// wire-level one-sidedness check rather than a guess.

#include "net/loadgen.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/dynamic_filter.h"
#include "core/filter_store.h"
#include "core/habf.h"
#include "core/sharded_filter.h"
#include "net/protocol.h"
#include "net/server.h"
#include "util/rng.h"
#include "workload/dataset.h"

namespace habf {
namespace net {
namespace {

// --- histogram bucketing ----------------------------------------------------

TEST(LatencyHistogramTest, ValuesBelowSubBucketRangeAreExact) {
  for (uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    const size_t index = LatencyHistogram::BucketIndex(v);
    EXPECT_EQ(index, static_cast<size_t>(v));
    EXPECT_EQ(LatencyHistogram::BucketValue(index), v);
  }
}

TEST(LatencyHistogramTest, BucketValueIsALowerBoundWithinRelativeError) {
  // For every value, the bucket's reported lower bound must satisfy
  // value * (1 - 2^-6) <= BucketValue <= value: the HdrHistogram guarantee
  // that quantization error never exceeds one sub-bucket width (~1.6%).
  Xoshiro256 rng(8);
  std::vector<uint64_t> values;
  for (int shift = 0; shift < 63; ++shift) {
    values.push_back(uint64_t{1} << shift);
    values.push_back((uint64_t{1} << shift) - 1);
    values.push_back((uint64_t{1} << shift) + 1);
  }
  for (int i = 0; i < 10000; ++i) {
    values.push_back(rng.Next() >> rng.NextBounded(63));
  }
  for (const uint64_t v : values) {
    const uint64_t reported =
        LatencyHistogram::BucketValue(LatencyHistogram::BucketIndex(v));
    ASSERT_LE(reported, v) << v;
    // One sub-bucket width at v's scale: width = 2^(msb-6) for v >= 64.
    const double relative =
        v == 0 ? 0.0
               : static_cast<double>(v - reported) / static_cast<double>(v);
    ASSERT_LE(relative, 1.0 / 64.0 + 1e-12) << v;
  }
}

TEST(LatencyHistogramTest, BucketIndexIsMonotone) {
  // Monotonicity over a dense low range plus exponential probes: a larger
  // value may share a bucket but never maps to a smaller one.
  size_t prev = 0;
  for (uint64_t v = 0; v < 100000; ++v) {
    const size_t index = LatencyHistogram::BucketIndex(v);
    ASSERT_GE(index, prev) << v;
    prev = index;
  }
  for (uint64_t v = 100000; v > 0 && v < (uint64_t{1} << 62); v *= 3) {
    const size_t index = LatencyHistogram::BucketIndex(v);
    ASSERT_GE(index, prev) << v;
    prev = index;
  }
}

TEST(LatencyHistogramTest, EmptyHistogramReportsZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.ValueAtPercentile(50), 0u);
  EXPECT_EQ(h.ValueAtPercentile(99.9), 0u);
}

TEST(LatencyHistogramTest, PercentilesOnKnownSmallDistribution) {
  // 1..50 recorded once each — all in the exact (sub-64) bucket range, so
  // percentile p must be exactly ceil(p/2) with no quantization at all.
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 50; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 50u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 50u);
  EXPECT_DOUBLE_EQ(h.Mean(), 25.5);
  EXPECT_EQ(h.ValueAtPercentile(0), 1u);    // clamped to min
  EXPECT_EQ(h.ValueAtPercentile(2), 1u);    // 1st of 50
  EXPECT_EQ(h.ValueAtPercentile(50), 25u);  // 25th of 50
  EXPECT_EQ(h.ValueAtPercentile(90), 45u);
  EXPECT_EQ(h.ValueAtPercentile(100), 50u);
}

TEST(LatencyHistogramTest, PercentilesOnSkewedDistributionWithinError) {
  // 9900 fast (1000ns) + 100 slow (1000000ns): p50/p90 land on the fast
  // mode, p99 sits at the boundary, p99.9 on the slow mode — each within
  // the bucketing's relative error.
  LatencyHistogram h;
  for (int i = 0; i < 9900; ++i) h.Record(1000);
  for (int i = 0; i < 100; ++i) h.Record(1000000);
  const double kError = 1.0 / 64.0 + 1e-12;
  for (const double pct : {50.0, 90.0, 99.0}) {
    const uint64_t v = h.ValueAtPercentile(pct);
    EXPECT_GE(v, static_cast<uint64_t>(1000 * (1 - kError))) << pct;
    EXPECT_LE(v, 1000u) << pct;
  }
  const uint64_t p999 = h.ValueAtPercentile(99.9);
  EXPECT_GE(p999, static_cast<uint64_t>(1000000 * (1 - kError)));
  EXPECT_LE(p999, 1000000u);
  EXPECT_EQ(h.max(), 1000000u);
}

TEST(LatencyHistogramTest, MergeIsAdditive) {
  Xoshiro256 rng(31337);
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram whole;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.Next() >> rng.NextBounded(50);
    (i % 2 == 0 ? a : b).Record(v);
    whole.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_EQ(a.min(), whole.min());
  EXPECT_EQ(a.max(), whole.max());
  // Summation order differs between the split and whole histograms, so the
  // means agree only to floating-point accumulation error.
  EXPECT_NEAR(a.Mean() / whole.Mean(), 1.0, 1e-9);
  for (const double pct : {1.0, 25.0, 50.0, 75.0, 99.0, 99.9}) {
    EXPECT_EQ(a.ValueAtPercentile(pct), whole.ValueAtPercentile(pct)) << pct;
  }
  // Merging an empty histogram changes nothing.
  LatencyHistogram empty;
  const uint64_t before = a.ValueAtPercentile(50);
  a.Merge(empty);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_EQ(a.ValueAtPercentile(50), before);
}

// --- deterministic key stream ----------------------------------------------

TEST(WorkloadStreamKeyTest, DeterministicAndDistinct) {
  // Same (seed, index) -> same key, always; distinct indices -> distinct
  // keys; distinct seeds -> disjoint streams. This is the contract that
  // lets the loadgen and the server preload agree on membership without
  // exchanging a key list.
  std::set<std::string> seen;
  for (uint64_t i = 0; i < 5000; ++i) {
    const std::string key = WorkloadStreamKey(42, i);
    EXPECT_EQ(key, WorkloadStreamKey(42, i));
    EXPECT_TRUE(seen.insert(key).second) << "duplicate at index " << i;
  }
  size_t collisions = 0;
  for (uint64_t i = 0; i < 5000; ++i) {
    if (seen.count(WorkloadStreamKey(43, i)) > 0) ++collisions;
  }
  EXPECT_EQ(collisions, 0u);
}

// --- closed-loop window invariant against a real server ---------------------

class LoadgenServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Preload the first kMembers stream keys — exactly what
    // `habf_tool serve` + `habf_loadgen --expect-members` do.
    std::vector<std::string> members;
    for (uint64_t i = 0; i < kMembers; ++i) {
      members.push_back(WorkloadStreamKey(kSeed, i));
    }
    HabfOptions options;
    options.total_bits = 1 << 16;
    ShardedBuildOptions sharding;
    sharding.num_shards = 2;
    store_.Publish(BuildShardedHabf(members, {}, options, sharding));
    backend_ =
        std::make_unique<StoreBackend<ShardedFilter<Habf>>>(&store_);
    server_ = std::make_unique<Server>(backend_.get(), ServerOptions{});
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
  }

  static constexpr uint64_t kSeed = 42;
  static constexpr uint64_t kMembers = 2000;

  FilterStore<ShardedFilter<Habf>> store_;
  std::unique_ptr<StoreBackend<ShardedFilter<Habf>>> backend_;
  std::unique_ptr<Server> server_;
};

TEST_F(LoadgenServerTest, ClosedLoopNeverExceedsWindowAndSeesNoFalseNegatives) {
  LoadgenOptions options;
  options.port = server_->port();
  options.connections = 3;
  options.keys_per_request = 8;
  options.max_in_flight = 4;
  options.duration = std::chrono::milliseconds(300);
  options.key_seed = kSeed;
  options.key_space = kMembers;  // every key is a preloaded member
  options.expect_members = kMembers;

  LoadgenReport report;
  std::string error;
  ASSERT_TRUE(RunLoadgen(options, &report, &error)) << error;

  EXPECT_GT(report.requests_sent, 0u);
  // Every send was answered (the drain phase retires the tail).
  EXPECT_EQ(report.responses_received, report.requests_sent);
  EXPECT_EQ(report.keys_queried,
            report.responses_received * options.keys_per_request);
  // The closed-loop invariant: depth never exceeded the window.
  EXPECT_LE(report.max_in_flight_observed, options.max_in_flight);
  EXPECT_GT(report.max_in_flight_observed, 0u);
  // One-sidedness over the wire: members only, so zero misses...
  EXPECT_EQ(report.false_negatives, 0u);
  // ...which means every single answer was positive.
  EXPECT_EQ(report.positives, report.keys_queried);
  // Latency was recorded for every response.
  EXPECT_EQ(report.latency_ns.count(), report.responses_received);
  EXPECT_GT(report.latency_ns.max(), 0u);
  EXPECT_GE(report.latency_ns.ValueAtPercentile(99),
            report.latency_ns.ValueAtPercentile(50));
  EXPECT_GT(report.achieved_rps, 0.0);
  // The post-run stats fetch: the server's own counters agree with ours.
  ASSERT_FALSE(report.server_stats.empty());
  uint64_t server_keys = 0;
  for (const auto& entry : report.server_stats) {
    if (entry.first == "keys_queried") server_keys = entry.second;
  }
  EXPECT_EQ(server_keys, report.keys_queried);
}

TEST_F(LoadgenServerTest, WindowOfOneIsStrictPingPong) {
  LoadgenOptions options;
  options.port = server_->port();
  options.connections = 1;
  options.keys_per_request = 4;
  options.max_in_flight = 1;
  options.duration = std::chrono::milliseconds(150);
  options.key_seed = kSeed;
  options.key_space = kMembers;
  options.expect_members = kMembers;

  LoadgenReport report;
  std::string error;
  ASSERT_TRUE(RunLoadgen(options, &report, &error)) << error;
  EXPECT_EQ(report.max_in_flight_observed, 1u);
  EXPECT_EQ(report.false_negatives, 0u);
}

TEST_F(LoadgenServerTest, OpenLoopPacesAndReportsDepth) {
  LoadgenOptions options;
  options.port = server_->port();
  options.connections = 2;
  options.keys_per_request = 4;
  options.open_rate_per_connection = 2000.0;  // 2k rps/conn for 250ms
  options.duration = std::chrono::milliseconds(250);
  options.key_seed = kSeed;
  options.key_space = kMembers;
  options.expect_members = kMembers;

  LoadgenReport report;
  std::string error;
  ASSERT_TRUE(RunLoadgen(options, &report, &error)) << error;
  EXPECT_GT(report.requests_sent, 0u);
  EXPECT_EQ(report.responses_received, report.requests_sent);
  EXPECT_EQ(report.false_negatives, 0u);
  // Pacing bounds the send count by schedule, not by server speed: at 2000
  // rps for 250ms a connection can send at most ~500 (+1 tick of slack).
  EXPECT_LE(report.requests_sent, 2 * (500 + 2));
}

TEST_F(LoadgenServerTest, MutationsAgainstAStaticBackendFailTheRun) {
  LoadgenOptions options;
  options.port = server_->port();
  options.keys_per_request = 4;
  options.duration = std::chrono::milliseconds(100);
  options.key_seed = kSeed;
  options.key_space = kMembers;
  options.mutate_rate = 0.5;
  LoadgenReport report;
  std::string error;
  EXPECT_FALSE(RunLoadgen(options, &report, &error));
  EXPECT_NE(error.find("mutation refused"), std::string::npos) << error;
  EXPECT_EQ(report.mutations_acked, 0u);
}

// --- mixed read/write load against the durable dynamic tier -----------------

TEST(LoadgenMutationTest, MutateRateMixesDurableWritesIntoTheClosedLoop) {
  constexpr uint64_t kSeed = 7;
  constexpr uint64_t kMembers = 2000;
  const std::string dir = ::testing::TempDir() + "loadgen_mutate_rate_wal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<std::string> members;
  for (uint64_t i = 0; i < kMembers; ++i) {
    members.push_back(WorkloadStreamKey(kSeed, i));
  }
  HabfOptions options;
  options.total_bits = 1 << 16;
  ShardedBuildOptions sharding;
  sharding.num_shards = 4;
  DynamicOptions dynamic;
  dynamic.dirty_fraction_threshold = 0.0;  // every mutated shard compacts
  auto filter = std::make_unique<DynamicShardedHabf>(
      members, std::vector<WeightedKey>{}, options, sharding, dynamic);
  std::string error;
  ASSERT_TRUE(filter->EnableDurability(dir, &error)) << error;
  filter->StartBackgroundCompaction(std::chrono::milliseconds(5));

  DynamicBackend backend(filter.get());
  Server server(&backend, ServerOptions{});
  ASSERT_TRUE(server.Start(&error)) << error;
  LoadgenOptions load;
  load.port = server.port();
  load.connections = 2;
  load.keys_per_request = 8;
  load.max_in_flight = 4;
  load.duration = std::chrono::milliseconds(400);
  load.key_seed = kSeed;
  load.key_space = kMembers;
  load.expect_members = kMembers;
  load.mutate_rate = 0.25;
  LoadgenReport report;
  const bool ok = RunLoadgen(load, &report, &error);
  server.Shutdown();
  filter->StopBackgroundCompaction();
  ASSERT_TRUE(ok) << error;

  // Every fourth request was a mutation frame, every one fully acked, and
  // the queries around them (and across live compactions) stayed one-sided.
  EXPECT_EQ(report.responses_received, report.requests_sent);
  ASSERT_GT(report.mutations_acked, 0u);
  EXPECT_LE(report.mutations_acked * 4, report.responses_received);
  EXPECT_GE(report.mutations_acked * 4 + 4 * load.connections,
            report.responses_received);
  EXPECT_EQ(report.keys_mutated, report.mutations_acked * 8);
  EXPECT_EQ(report.mutation_latency_ns.count(), report.mutations_acked);
  EXPECT_EQ(report.latency_ns.count(),
            report.responses_received - report.mutations_acked);
  EXPECT_EQ(report.keys_queried, report.latency_ns.count() * 8);
  EXPECT_EQ(report.false_negatives, 0u);
  uint64_t server_keys_mutated = 0;
  for (const auto& entry : report.server_stats) {
    if (entry.first == "keys_mutated") server_keys_mutated = entry.second;
  }
  EXPECT_EQ(server_keys_mutated, report.keys_mutated);

  // Drop the filter without a checkpoint: recovery replays the WAL and the
  // stream members still all answer.
  filter.reset();
  auto recovered = DynamicShardedHabf::Open(dir, dynamic, &error);
  ASSERT_NE(recovered, nullptr) << error;
  for (const std::string& key : members) {
    ASSERT_TRUE(recovered->MightContain(key)) << key;
  }
  recovered.reset();
  std::filesystem::remove_all(dir);
}

// --- coordinated-omission correction ----------------------------------------

/// A single-connection HNP1 responder that answers every query all-positive
/// but delivers its FIRST response in two halves with a long sleep between
/// them. The loadgen's reader blocks mid-frame for the whole stall, so the
/// open-loop schedule backs up — exactly the generator hiccup that
/// coordinated omission classically erases from latency reports.
class StallingResponder {
 public:
  explicit StallingResponder(std::chrono::milliseconds stall)
      : stall_(stall) {
    listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    listen(listen_fd_, 1);
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
    port_ = ntohs(bound.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }

  ~StallingResponder() {
    if (listen_fd_ >= 0) close(listen_fd_);
    if (thread_.joinable()) thread_.join();
  }

  uint16_t port() const { return port_; }

 private:
  static bool SendAllBytes(int fd, std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    return true;
  }

  void Serve() {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    // Handshake: read the 8-byte hello, echo ours.
    std::string hello;
    char buf[4096];
    while (hello.size() < kHandshakeBytes) {
      const ssize_t n = recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        close(fd);
        return;
      }
      hello.append(buf, static_cast<size_t>(n));
    }
    if (!SendAllBytes(fd, EncodeHandshake())) {
      close(fd);
      return;
    }
    FrameDecoder decoder(kMaxFrameBytes);
    decoder.Feed(std::string_view(hello).substr(kHandshakeBytes));
    bool stalled_once = false;
    std::vector<std::string_view> keys;
    std::vector<uint8_t> answers;
    for (;;) {
      Frame frame;
      std::string error;
      const FrameDecoder::Status status = decoder.Next(&frame, &error);
      if (status == FrameDecoder::Status::kError) break;
      if (status == FrameDecoder::Status::kNeedMore) {
        const ssize_t n = recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;  // client done (or gone): stop serving
        decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
        continue;
      }
      if (frame.op != kOpQuery ||
          !ParseKeyBatchPayload(frame.payload, &keys, &error)) {
        break;
      }
      answers.assign(keys.size(), 1);
      std::string payload;
      AppendQueryResponsePayload(&payload, answers.data(), answers.size());
      std::string response;
      AppendFrame(&response, frame.request_id, kOpQueryResponse, payload);
      if (!stalled_once) {
        // Half the frame, a long pause, then the rest: the client's blocking
        // frame read cannot return until the stall ends.
        stalled_once = true;
        const std::string_view view(response);
        if (!SendAllBytes(fd, view.substr(0, view.size() / 2))) break;
        std::this_thread::sleep_for(stall_);
        if (!SendAllBytes(fd, view.substr(view.size() / 2))) break;
      } else if (!SendAllBytes(fd, response)) {
        break;
      }
    }
    close(fd);
  }

  std::chrono::milliseconds stall_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

TEST(LoadgenCoordinatedOmissionTest, OpenLoopChargesTheStallToEveryLateSend) {
  // A 250ms mid-frame stall against a 200 rps open-loop schedule backs up
  // ~50 scheduled sends. With latency measured from the *scheduled* time,
  // the whole backlog surfaces as queueing delay: a thick tail, not one
  // slow sample. (Measured from the actual send time — the coordinated-
  // omission bug this guards against — only the single stalled read would
  // look slow and p90 would collapse to the loopback microseconds.)
  StallingResponder responder(std::chrono::milliseconds(250));

  LoadgenOptions options;
  options.port = responder.port();
  options.connections = 1;
  options.keys_per_request = 4;
  options.open_rate_per_connection = 200.0;
  options.duration = std::chrono::milliseconds(700);
  options.key_space = 100;
  options.collect_server_stats = false;  // the fake serves one connection

  LoadgenReport report;
  std::string error;
  ASSERT_TRUE(RunLoadgen(options, &report, &error)) << error;
  ASSERT_GT(report.requests_sent, 50u);
  EXPECT_EQ(report.responses_received, report.requests_sent);

  // The stalled read itself.
  EXPECT_GE(report.latency_ns.max(), 150u * 1000 * 1000);
  // The backlog: ~a third of all samples carry tens-to-hundreds of ms of
  // schedule debt, so p90 sits far above loopback latency. Without the
  // correction this is microseconds.
  EXPECT_GE(report.latency_ns.ValueAtPercentile(90), 50u * 1000 * 1000);
}

TEST(LoadgenTransportTest, RefusedConnectionFailsCleanly) {
  LoadgenOptions options;
  options.port = 1;  // privileged + unbound: connect must fail
  options.duration = std::chrono::milliseconds(50);
  LoadgenReport report;
  std::string error;
  EXPECT_FALSE(RunLoadgen(options, &report, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(report.responses_received, 0u);
}

TEST(LoadgenTransportTest, MutateRateOutsideUnitIntervalIsRejected) {
  // Rejected before any connection is attempted, and named in the error.
  for (const double bad : {-0.1, 1.5, std::nan(""), HUGE_VAL}) {
    LoadgenOptions options;
    options.port = 1;
    options.mutate_rate = bad;
    LoadgenReport report;
    std::string error;
    EXPECT_FALSE(RunLoadgen(options, &report, &error)) << bad;
    EXPECT_NE(error.find("mutate_rate must be a fraction in [0, 1]"),
              std::string::npos)
        << error;
    EXPECT_EQ(report.requests_sent, 0u);
  }
}

}  // namespace
}  // namespace net
}  // namespace habf
