#include "net/loadgen.h"

#include <poll.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <thread>

#include "net/client.h"
#include "util/rng.h"
#include "workload/dataset.h"

namespace habf {
namespace net {

// --- LatencyHistogram -------------------------------------------------------

LatencyHistogram::LatencyHistogram() : counts_(kNumBuckets, 0) {}

size_t LatencyHistogram::BucketIndex(uint64_t value) {
  if (value < kSubBuckets) return static_cast<size_t>(value);
  // Major bucket = how far the MSB sits above the exact range; the 6 bits
  // after the MSB pick the linear sub-bucket.
  int msb = 63;
  while ((value & (uint64_t{1} << msb)) == 0) --msb;
  const size_t major = static_cast<size_t>(msb) - kSubBucketBits + 1;
  const size_t sub = static_cast<size_t>(
      (value >> (static_cast<size_t>(msb) - kSubBucketBits)) &
      (kSubBuckets - 1));
  return major * kSubBuckets + sub;
}

uint64_t LatencyHistogram::BucketValue(size_t index) {
  const size_t major = index / kSubBuckets;
  const uint64_t sub = index % kSubBuckets;
  if (major == 0) return sub;
  const uint64_t base = uint64_t{1} << (kSubBucketBits + major - 1);
  return base + (sub << (major - 1));
}

void LatencyHistogram::Record(uint64_t value) {
  counts_[BucketIndex(value)] += 1;
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  count_ += 1;
  sum_ += static_cast<double>(value);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kNumBuckets; ++i) counts_[i] += other.counts_[i];
  if (other.count_ > 0) {
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double LatencyHistogram::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

uint64_t LatencyHistogram::ValueAtPercentile(double pct) const {
  if (count_ == 0) return 0;
  pct = std::min(100.0, std::max(0.0, pct));
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(pct / 100.0 *
                                         static_cast<double>(count_))));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    cumulative += counts_[i];
    if (cumulative >= target) {
      const uint64_t value = BucketValue(i);
      return std::min(max_, std::max(min_, value));
    }
  }
  return max_;
}

// --- load generation --------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

struct InFlight {
  uint64_t request_id;
  Clock::time_point sent_at;
  bool mutation = false;
  std::vector<uint64_t> indices;  // query stream indices, for FN accounting
};

struct ConnectionResult {
  LoadgenReport report;
  bool ok = false;
  std::string error;
};

/// Which of a connection's requests become mutation frames, and their keys.
/// The credit accumulates mutate_rate per request, so exactly that fraction
/// of requests mutates, deterministically and without touching the query
/// key stream's RNG.
struct MutationCursor {
  double credit = 0.0;
  uint64_t next_key = 0;     // first key of the next fresh insert batch
  uint64_t batch_first = 0;  // first key of the batch the next remove takes
  bool insert_next = true;
};

/// Sends one request of keys_per_request keys — a query of fresh stream
/// keys, or (per the mutation cursor) an insert or remove batch — and
/// records it on the in-flight queue. Latency for the request is measured
/// from `scheduled_at` — the closed loop passes now(), the open loop passes
/// the tick the schedule assigned, so a stalled generator cannot hide its
/// backlog from the histogram (coordinated-omission correction).
bool SendOne(const LoadgenOptions& options, size_t connection_index,
             BlockingClient* client, Xoshiro256* rng,
             MutationCursor* mutations, uint64_t* next_request_id,
             Clock::time_point scheduled_at,
             std::deque<InFlight>* outstanding, LoadgenReport* report,
             std::string* error) {
  InFlight entry;
  entry.request_id = (*next_request_id)++;
  std::vector<std::string> keys;
  keys.reserve(options.keys_per_request);
  mutations->credit += options.mutate_rate;
  entry.mutation = mutations->credit >= 1.0;
  bool insert = false;
  if (entry.mutation) {
    mutations->credit -= 1.0;
    insert = mutations->insert_next;
    mutations->insert_next = !insert;
    if (insert) {
      mutations->batch_first = mutations->next_key;
      mutations->next_key += options.keys_per_request;
    }
    const std::string prefix =
        "loadgen-mutation-" + std::to_string(connection_index) + "-";
    for (size_t k = 0; k < options.keys_per_request; ++k) {
      keys.push_back(prefix + std::to_string(mutations->batch_first + k));
    }
  } else {
    entry.indices.reserve(options.keys_per_request);
    for (size_t k = 0; k < options.keys_per_request; ++k) {
      const uint64_t index = rng->NextBounded(options.key_space);
      entry.indices.push_back(index);
      keys.push_back(WorkloadStreamKey(options.key_seed, index));
    }
  }
  std::vector<std::string_view> views(keys.begin(), keys.end());
  const KeySpan span(views.data(), views.size());
  entry.sent_at = scheduled_at;
  const bool sent =
      entry.mutation
          ? client->SendMutation(entry.request_id, insert, span, error)
          : client->SendQuery(entry.request_id, span, error);
  if (!sent) return false;
  report->requests_sent += 1;
  outstanding->push_back(std::move(entry));
  report->max_in_flight_observed =
      std::max(report->max_in_flight_observed, outstanding->size());
  return true;
}

/// Checks a mutation ack: every key applied, or the run fails (a static
/// backend answers kOpError, which lands here too).
bool RetireMutation(const OwnedFrame& frame, size_t keys,
                    LoadgenReport* report, std::string* error) {
  if (frame.op != kOpMutateResponse) {
    *error = "mutation refused: op " + std::to_string(int{frame.op}) +
             " answered request_id " + std::to_string(frame.request_id);
    return false;
  }
  MutateResponseView response;
  if (!ParseMutateResponsePayload(frame.payload, &response, error)) {
    return false;
  }
  if (response.status != kStatusOk || response.applied != keys) {
    *error = "mutation applied " + std::to_string(response.applied) + " of " +
             std::to_string(keys) + " keys (status " +
             std::to_string(int{response.status}) + ")";
    return false;
  }
  report->mutations_acked += 1;
  report->keys_mutated += keys;
  return true;
}

/// Retires the oldest in-flight request against the next response frame.
bool ReceiveOne(const LoadgenOptions& options, BlockingClient* client,
                std::deque<InFlight>* outstanding, LoadgenReport* report,
                std::string* error) {
  OwnedFrame frame;
  if (!client->ReadFrame(&frame, error)) return false;
  if (outstanding->empty()) {
    *error = "response with nothing in flight";
    return false;
  }
  InFlight entry = std::move(outstanding->front());
  outstanding->pop_front();
  const Clock::time_point received_at = Clock::now();
  const uint64_t latency_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(received_at -
                                                           entry.sent_at)
          .count());
  if (frame.request_id != entry.request_id) {
    *error = "out-of-order response: request_id " +
             std::to_string(frame.request_id) + " (expected " +
             std::to_string(entry.request_id) + ")";
    return false;
  }
  if (entry.mutation) {
    if (!RetireMutation(frame, options.keys_per_request, report, error)) {
      return false;
    }
    report->responses_received += 1;
    report->mutation_latency_ns.Record(latency_ns);
    return true;
  }
  if (frame.op != kOpQueryResponse) {
    *error = "non-query response: op " + std::to_string(int{frame.op}) +
             " request_id " + std::to_string(frame.request_id);
    return false;
  }
  QueryResponseView response;
  if (!ParseQueryResponsePayload(frame.payload, &response, error)) {
    return false;
  }
  if (response.key_count != entry.indices.size()) {
    *error = "response key count mismatch";
    return false;
  }
  report->responses_received += 1;
  report->keys_queried += entry.indices.size();
  for (size_t i = 0; i < entry.indices.size(); ++i) {
    const bool hit = response.Bit(i);
    if (hit) report->positives += 1;
    if (!hit && entry.indices[i] < options.expect_members) {
      report->false_negatives += 1;
    }
  }
  report->latency_ns.Record(latency_ns);
  return true;
}

void RunConnection(const LoadgenOptions& options, size_t connection_index,
                   ConnectionResult* result) {
  BlockingClient client;
  if (!client.Connect(options.host, options.port, &result->error)) return;

  Xoshiro256 rng(options.key_seed ^
                 (0x9e3779b97f4a7c15ULL * (connection_index + 1)));
  MutationCursor mutations;
  std::deque<InFlight> outstanding;
  uint64_t next_request_id = 1;
  LoadgenReport* report = &result->report;

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + options.duration;

  if (options.open_rate_per_connection > 0.0) {
    // Open loop: fixed-schedule sends; responses are drained between ticks
    // via poll so a full frame never delays the next scheduled send by
    // more than its own (loopback-fast) read.
    const auto interval = std::chrono::nanoseconds(static_cast<uint64_t>(
        1e9 / options.open_rate_per_connection));
    Clock::time_point next_send = start;
    while (Clock::now() < deadline) {
      if (Clock::now() >= next_send) {
        if (!SendOne(options, connection_index, &client, &rng, &mutations,
                     &next_request_id, next_send, &outstanding, report,
                     &result->error)) {
          return;
        }
        next_send += interval;
        continue;
      }
      pollfd pfd{client.fd(), POLLIN, 0};
      const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
          next_send - Clock::now());
      poll(&pfd, 1, static_cast<int>(std::max<int64_t>(0, wait.count())));
      if ((pfd.revents & POLLIN) != 0) {
        if (!ReceiveOne(options, &client, &outstanding, report,
                        &result->error)) {
          return;
        }
      }
    }
  } else {
    // Closed loop: top the window up, then block for one retirement —
    // in-flight depth can never exceed max_in_flight.
    const size_t window = std::max<size_t>(1, options.max_in_flight);
    while (Clock::now() < deadline) {
      while (outstanding.size() < window) {
        if (!SendOne(options, connection_index, &client, &rng, &mutations,
                     &next_request_id, Clock::now(), &outstanding, report,
                     &result->error)) {
          return;
        }
      }
      if (!ReceiveOne(options, &client, &outstanding, report,
                      &result->error)) {
        return;
      }
    }
  }

  // Drain: every request gets its response (the server answers all sends).
  while (!outstanding.empty()) {
    if (!ReceiveOne(options, &client, &outstanding, report, &result->error)) {
      return;
    }
  }
  report->duration_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result->ok = true;
}

}  // namespace

bool RunLoadgen(const LoadgenOptions& options, LoadgenReport* report,
                std::string* error) {
  if (!(options.mutate_rate >= 0.0 && options.mutate_rate <= 1.0)) {
    *report = LoadgenReport();
    if (error != nullptr) {
      *error = "mutate_rate must be a fraction in [0, 1], got " +
               std::to_string(options.mutate_rate);
    }
    return false;
  }
  const size_t connections = std::max<size_t>(1, options.connections);
  std::vector<ConnectionResult> results(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back(
        [&options, c, &results] { RunConnection(options, c, &results[c]); });
  }
  for (std::thread& thread : threads) thread.join();

  *report = LoadgenReport();
  bool ok = true;
  for (size_t c = 0; c < connections; ++c) {
    const ConnectionResult& result = results[c];
    if (!result.ok) {
      if (ok && error != nullptr) {
        *error = "connection " + std::to_string(c) + ": " + result.error;
      }
      ok = false;
    }
    report->requests_sent += result.report.requests_sent;
    report->responses_received += result.report.responses_received;
    report->keys_queried += result.report.keys_queried;
    report->positives += result.report.positives;
    report->false_negatives += result.report.false_negatives;
    report->mutations_acked += result.report.mutations_acked;
    report->keys_mutated += result.report.keys_mutated;
    report->max_in_flight_observed = std::max(
        report->max_in_flight_observed, result.report.max_in_flight_observed);
    report->duration_seconds =
        std::max(report->duration_seconds, result.report.duration_seconds);
    report->latency_ns.Merge(result.report.latency_ns);
    report->mutation_latency_ns.Merge(result.report.mutation_latency_ns);
  }
  if (report->duration_seconds > 0.0) {
    report->achieved_rps = static_cast<double>(report->responses_received) /
                           report->duration_seconds;
  }
  if (ok && options.collect_server_stats) {
    // Best-effort: one extra connection after the run, so the counters
    // reflect every request above. A refusal (max_connections) or drain
    // just leaves the stats empty.
    BlockingClient stats_client;
    std::string stats_error;
    if (stats_client.Connect(options.host, options.port, &stats_error)) {
      stats_client.GetStats(&report->server_stats, &stats_error);
    }
  }
  return ok;
}

}  // namespace net
}  // namespace habf
