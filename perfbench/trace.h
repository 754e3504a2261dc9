// In-memory span recorder for the traced benchmark run.
//
// Every span carries a name, start, end, its parent span and the batch id
// shared by all spans of one backend call. Self time (duration minus the
// part covered by child spans) is aggregated per name as spans close, so the
// per-layer table covers every batch; the raw span log is capped per thread
// and written out once the run ends.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Span names, one per layer call the traced backends wrap.
enum SpanName : uint32_t {
  kSpanBackendQuery = 0,     // ServerBackend::QueryBatch
  kSpanBackendMutate,        // ServerBackend::Mutate
  kSpanStoreAcquire,         // FilterStore::Acquire
  kSpanShardedContains,      // ShardedFilter::ContainsBatch (group + scatter)
  kSpanHabfRound1,           // BloomFilter::TestBatchWith over H0
  kSpanHabfRound2,           // HashExpressor::Query + BloomFilter::TestWith
  kSpanDynamicContains,      // DynamicShardedHabf::ContainsBatch
  kNumSpanNames,
};

/// Counts recorded at the same boundaries as the spans.
enum CounterName : uint32_t {
  kCountBackendKeys = 0,  // keys answered by QueryBatch
  kCountRound1Keys,       // keys probed in HABF round 1
  kCountRound2Keys,       // keys that missed round 1 and entered round 2
  kCountMutateFrames,     // Mutate calls
  kCountMutateCpuNs,      // thread CPU time spent inside Mutate
  kNumCounters,
};

const char* SpanNameString(uint32_t name);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  uint32_t name = 0;
  uint32_t parent = 0;  // index into the same thread's log; ~0u = root
  uint64_t batch = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-name totals: sum of durations, sum of self times, span count.
struct SpanTotals {
  int64_t duration_ns = 0;
  int64_t self_ns = 0;
  uint64_t count = 0;
};

/// One thread's spans. Only its owning thread writes it; the Tracer reads it
/// after the traced phase, once the server threads have been joined.
class ThreadTrace {
 public:
  static constexpr size_t kMaxDepth = 8;
  static constexpr size_t kMaxLoggedSpans = size_t{1} << 18;
  static constexpr uint32_t kNoParent = ~0u;

  explicit ThreadTrace(int tid) : tid_(tid) { log_.reserve(kMaxLoggedSpans); }

  void Open(uint32_t name, uint64_t batch) {
    Frame& frame = stack_[depth_++];
    frame.name = name;
    frame.batch = batch;
    frame.child_ns = 0;
    frame.start_ns = NowNs();
  }

  void Close() {
    const int64_t end = NowNs();
    Frame& frame = stack_[--depth_];
    const int64_t duration = end - frame.start_ns;
    SpanTotals& totals = totals_[frame.name];
    totals.duration_ns += duration;
    totals.self_ns += duration - frame.child_ns;
    totals.count += 1;
    if (depth_ > 0) stack_[depth_ - 1].child_ns += duration;
    // Children close before their parent, so the log is in close order and a
    // child's parent index is patched when the parent itself is logged.
    if (log_.size() < kMaxLoggedSpans) {
      const uint32_t index = static_cast<uint32_t>(log_.size());
      log_.push_back(
          SpanRecord{frame.name, kNoParent, frame.batch, frame.start_ns, end});
      for (uint32_t child : frame.children) log_[child].parent = index;
      frame.children.clear();
      if (depth_ > 0) stack_[depth_ - 1].children.push_back(index);
    } else {
      frame.children.clear();
    }
  }

  void Count(uint32_t counter, uint64_t n) { counters_[counter] += n; }

  int tid() const { return tid_; }
  const SpanTotals& totals(uint32_t name) const { return totals_[name]; }
  uint64_t counter(uint32_t counter) const { return counters_[counter]; }
  const std::vector<SpanRecord>& log() const { return log_; }

 private:
  struct Frame {
    uint32_t name = 0;
    uint64_t batch = 0;
    int64_t start_ns = 0;
    int64_t child_ns = 0;
    std::vector<uint32_t> children;  // logged child indices awaiting a parent
  };

  int tid_;
  Frame stack_[kMaxDepth];
  size_t depth_ = 0;
  SpanTotals totals_[kNumSpanNames];
  uint64_t counters_[kNumCounters] = {};
  std::vector<SpanRecord> log_;
};

/// Hands each recording thread its own ThreadTrace and merges them.
class Tracer {
 public:
  Tracer() : id_(NextId()) {}

  /// The calling thread's trace (created on first use).
  ThreadTrace& Local();

  /// Next batch id (shared by every span of one backend call).
  uint64_t NextBatch() {
    return next_batch_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Totals of `name` summed over every thread.
  SpanTotals Totals(uint32_t name) const;
  uint64_t Counter(uint32_t counter) const;

  /// Writes every logged span as JSON lines; false on I/O failure.
  bool WriteSpans(const std::string& path) const;

 private:
  static uint64_t NextId() {
    static std::atomic<uint64_t> next{0};
    return ++next;
  }

  const uint64_t id_;
  mutable std::mutex mu_;
  std::atomic<uint64_t> next_batch_{0};
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

/// RAII span on the calling thread's trace.
class ScopedSpan {
 public:
  ScopedSpan(ThreadTrace& trace, uint32_t name, uint64_t batch)
      : trace_(trace) {
    trace_.Open(name, batch);
  }
  ~ScopedSpan() { trace_.Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace& trace_;
};

}  // namespace perfbench
