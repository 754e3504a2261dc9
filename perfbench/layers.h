// The layers the benchmark times from outside the library: traced
// ServerBackend subclasses for the wire run, per-thread CPU accounting from
// /proc, and replays of captured batches and frames through each layer's
// public functions.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/dynamic_filter.h"
#include "core/filter_store.h"
#include "core/habf.h"
#include "core/sharded_filter.h"
#include "net/server.h"
#include "trace.h"

namespace perfbench {

using StaticFilter = habf::ShardedFilter<habf::Habf>;
using StaticStore = habf::FilterStore<StaticFilter>;

// --- CPU accounting ----------------------------------------------------------

/// CPU time of one thread: exact on-CPU nanoseconds (schedstat) and the
/// user/system tick split (stat) used to apportion them.
struct ThreadCpu {
  int64_t on_cpu_ns = 0;
  int64_t user_ticks = 0;
  int64_t system_ticks = 0;
};

/// Every live thread of this process, keyed by tid.
std::map<int, ThreadCpu> ReadThreadCpu();

/// CPU time of the whole process, exited threads included.
int64_t ProcessCpuNs();

/// CPU time of the calling thread (user + system).
int64_t ThreadCpuNs();

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Sum of on-CPU time, and its system share, over `tids` between two reads.
struct CpuDelta {
  int64_t on_cpu_ns = 0;
  int64_t system_ns = 0;
};
CpuDelta DeltaOver(const std::map<int, ThreadCpu>& before,
                   const std::map<int, ThreadCpu>& after,
                   const std::vector<int>& tids);

// --- batch capture -----------------------------------------------------------

/// Copies of the first `limit` query batches a traced backend answers, for
/// the offline replays below.
class BatchCapture {
 public:
  explicit BatchCapture(size_t limit) : limit_(limit) {}
  void Offer(habf::KeySpan keys);
  /// Owned keys per batch; call once the server has stopped.
  const std::vector<std::vector<std::string>>& batches() const {
    return batches_;
  }

 private:
  size_t limit_;
  std::atomic<size_t> taken_{0};
  std::mutex mu_;
  std::vector<std::vector<std::string>> batches_;
};

// --- the query path, one layer at a time ------------------------------------

/// ShardedFilter<Habf>::ContainsBatch split into its layer calls: route and
/// group by ShardOf, then per shard round 1 (BloomFilter::TestBatchWith over
/// H0) and round 2 (HashExpressor::Query + BloomFilter::TestWith for the
/// round-1 misses), then scatter. Answers equal filter.ContainsBatch. Spans
/// and counts go to `trace` under `batch`.
size_t LayeredContainsBatch(const StaticFilter& filter, habf::KeySpan keys,
                            uint8_t* out, ThreadTrace& trace, uint64_t batch);

/// Traced stand-in for StoreBackend: one Acquire pin per batch, then the
/// layered query above.
class TracedStoreBackend : public habf::net::ServerBackend {
 public:
  TracedStoreBackend(const StaticStore* store, Tracer* tracer,
                     BatchCapture* capture)
      : store_(store), tracer_(tracer), capture_(capture) {}

  size_t QueryBatch(habf::KeySpan keys, uint8_t* out) const override;

 private:
  const StaticStore* store_;
  Tracer* tracer_;
  BatchCapture* capture_;
};

/// Traced wrapper delegating to DynamicBackend.
class TracedDynamicBackend : public habf::net::DynamicBackend {
 public:
  TracedDynamicBackend(habf::DynamicShardedHabf* filter, Tracer* tracer,
                       BatchCapture* capture)
      : habf::net::DynamicBackend(filter), tracer_(tracer), capture_(capture) {}

  size_t QueryBatch(habf::KeySpan keys, uint8_t* out) const override;
  bool Mutate(bool insert, habf::KeySpan keys, uint64_t* applied,
              std::string* error) override;

 private:
  Tracer* tracer_;
  BatchCapture* capture_;
};

// --- offline replays ---------------------------------------------------------

/// Per-key costs of the query layers, from replaying captured batches.
struct ReplayCosts {
  double acquire_ns = 0;           // per Acquire/AcquireBase call
  double group_ns_per_key = 0;     // ShardedFilter grouping self time
  double round1_ns_per_key = 0;
  double round2_ns_per_key = 0;    // per key probed in round 1
  double round2_ratio = 0;
  double overlay_ns_per_key = 0;   // dynamic only
  bool answers_match = true;       // layered path == ContainsBatch
};

/// Replays `batches` through `filter` layer by layer (median of passes), and
/// checks the layered answers against ContainsBatch.
ReplayCosts ReplayStatic(const StaticFilter& filter,
                         const std::vector<std::vector<std::string>>& batches);

/// As above for the dynamic tier: the overlay is ContainsBatch minus
/// AcquireBase() -> base ContainsBatch on the same keys.
ReplayCosts ReplayDynamic(const habf::DynamicShardedHabf& filter,
                          const std::vector<std::vector<std::string>>& batches);

/// GlobalHashProvider::Values of shard 0's H0 (same count and seed), per key.
double HashValuesNsPerKey(const StaticFilter& filter,
                          const std::vector<std::vector<std::string>>& batches);

/// Server-side protocol cost per request, on frames shaped like the
/// workload's: decode = FrameDecoder Feed/Next + ParseKeyBatchPayload, fed
/// `requests_per_read` frames at a time; encode = AppendQueryResponsePayload
/// + AppendFrame.
struct ProtocolCosts {
  double decode_ns_per_request = 0;
  double encode_ns_per_request = 0;
};
ProtocolCosts MeasureProtocol(
    const std::vector<std::vector<std::string>>& batches,
    size_t keys_per_request, size_t requests_per_read);

/// Median microseconds of one fsynced DeltaWalWriter::Append in `dir`.
double WalAppendFsyncUs(const std::string& dir, size_t appends);

}  // namespace perfbench
