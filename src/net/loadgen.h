// Closed- and open-loop load generation against a habf_server (DESIGN.md
// §11), plus the HDR-style latency histogram the reports use.
//
// Closed loop (open_rate_per_connection == 0): each connection keeps at
// most `max_in_flight` pipelined requests outstanding — a new request is
// sent only when a response retires one, so the measured latency includes
// exactly the queueing the window allows and the generator can never
// overrun a slow server. Open loop (> 0): requests are paced on a fixed
// schedule regardless of responses — the arrival process the paper's
// serving experiments assume — and in-flight depth is whatever the server's
// backlog makes it (reported, not capped).
//
// Coordinated-omission correction: open-loop latency is measured from each
// request's *scheduled* send time, not the moment send() actually ran. When
// the generator stalls (a blocking send against a backpressured server, a
// slow frame read), the backlog of late sends therefore shows up in the
// histogram as the queueing delay real clients would have seen, instead of
// silently vanishing — the classic coordinated-omission error.
//
// Key streams are deterministic: connection c of a run draws stream indices
// from Xoshiro256(seed ⊕ c) over [0, key_space) and materializes keys with
// WorkloadStreamKey (src/workload/dataset.h) — the same function the
// serving tests and habf_tool use to preload members, so index <
// expect_members ⇒ the key IS a member and a 0 answer is a false negative
// counted by the report.
//
// Mixed read/write load (mutate_rate > 0): that fraction of each
// connection's requests goes out as kOpInsert / kOpRemove frames instead of
// queries, against a dynamic (`serve --wal-dir`) backend. Mutation frames
// alternate between inserting a fresh batch of connection-private keys and
// removing that same batch. Those keys never appear in the query stream,
// so the false-negative accounting above stays exact.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace habf {
namespace net {

/// Fixed-memory log-linear histogram (the HdrHistogram bucketing scheme):
/// values below 64 are exact; above, each power-of-two range splits into 64
/// linear sub-buckets, giving <= ~1.6% relative error at every scale out to
/// 2^63. Record() is O(1) and allocation-free.
class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 6;  // 64 sub-buckets per octave
  static constexpr size_t kSubBuckets = size_t{1} << kSubBucketBits;
  static constexpr size_t kMajorBuckets = 64 - kSubBucketBits;  // covers u64
  static constexpr size_t kNumBuckets = kSubBuckets * (kMajorBuckets + 1);

  LatencyHistogram();

  void Record(uint64_t value);
  void Merge(const LatencyHistogram& other);

  uint64_t count() const { return count_; }
  /// Exact recorded extremes (not bucket-quantized). 0 when empty.
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double Mean() const;

  /// Smallest recorded-bucket value v such that at least pct% of recorded
  /// values are <= v. pct in [0, 100]; quantized to the bucket's lower
  /// bound and clamped into [min(), max()]. 0 when empty.
  uint64_t ValueAtPercentile(double pct) const;

  /// Bucketing exposed for the unit tests: index of the bucket holding
  /// `value`, and the lower-bound value that bucket reports.
  static size_t BucketIndex(uint64_t value);
  static uint64_t BucketValue(size_t index);

 private:
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
  double sum_ = 0.0;
};

struct LoadgenOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t connections = 1;
  size_t keys_per_request = 16;
  /// Closed-loop pipelining window per connection (>= 1).
  size_t max_in_flight = 8;
  /// > 0 switches to open loop at this many requests/second/connection.
  double open_rate_per_connection = 0.0;
  std::chrono::milliseconds duration{1000};
  uint64_t key_seed = 42;
  /// Stream indices are drawn uniformly from [0, key_space).
  uint64_t key_space = uint64_t{1} << 20;
  /// Indices < expect_members were preloaded as members on the server; a
  /// negative answer for one is a false negative (one-sidedness violation).
  uint64_t expect_members = 0;
  /// Fraction in [0, 1] of requests sent as mutation frames (see above).
  /// RunLoadgen rejects anything else, NaN included.
  double mutate_rate = 0.0;
  /// Fetch the server's kOpStats counters into the report after the run
  /// (best-effort over one extra connection; failure leaves them empty).
  bool collect_server_stats = true;
};

struct LoadgenReport {
  uint64_t requests_sent = 0;
  uint64_t responses_received = 0;
  uint64_t keys_queried = 0;
  uint64_t positives = 0;
  uint64_t false_negatives = 0;
  /// Mutation frames acknowledged with every key applied, and their keys.
  /// A refused or partial mutation fails the run instead.
  uint64_t mutations_acked = 0;
  uint64_t keys_mutated = 0;
  /// Largest pipelined depth any connection reached (closed loop: <= the
  /// max_in_flight option, asserted by the unit tests).
  size_t max_in_flight_observed = 0;
  double duration_seconds = 0.0;
  double achieved_rps = 0.0;
  /// Request send -> response parsed, in nanoseconds. Open loop: from the
  /// scheduled send time (coordinated-omission corrected, see above).
  /// Query requests only; mutation acks have their own histogram.
  LatencyHistogram latency_ns;
  LatencyHistogram mutation_latency_ns;
  /// The server's kOpStats counters at the end of the run, when
  /// collect_server_stats succeeded (empty otherwise).
  std::vector<std::pair<std::string, uint64_t>> server_stats;
};

/// Runs the configured load (one thread per connection), merges every
/// connection's counters and histogram into *report. False with *error if
/// any connection fails to connect or hits a transport/protocol error.
bool RunLoadgen(const LoadgenOptions& options, LoadgenReport* report,
                std::string* error);

}  // namespace net
}  // namespace habf
