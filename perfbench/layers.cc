#include "layers.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/delta_wal.h"
#include "hashing/hash_provider.h"
#include "net/protocol.h"
#include "util/timer.h"

namespace perfbench {

using habf::KeySpan;

// --- trace.h ----------------------------------------------------------------

const char* SpanNameString(uint32_t name) {
  static const char* const kNames[kNumSpanNames] = {
      "backend.query_batch",         "backend.mutate",
      "core.filter_store.acquire",   "core.sharded_filter.contains_batch",
      "core.habf.round1",            "core.habf.round2",
      "core.dynamic_filter.contains_batch",
  };
  return name < kNumSpanNames ? kNames[name] : "unknown";
}

ThreadTrace& Tracer::Local() {
  // Keyed by id, not address: a later Tracer may reuse a freed one's.
  struct Cached {
    uint64_t owner = 0;
    ThreadTrace* trace = nullptr;
  };
  static thread_local Cached cached;
  if (cached.owner != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(
        std::make_unique<ThreadTrace>(static_cast<int>(gettid())));
    cached.owner = id_;
    cached.trace = threads_.back().get();
  }
  return *cached.trace;
}

SpanTotals Tracer::Totals(uint32_t name) const {
  std::lock_guard<std::mutex> lock(mu_);
  SpanTotals sum;
  for (const auto& thread : threads_) {
    const SpanTotals& t = thread->totals(name);
    sum.duration_ns += t.duration_ns;
    sum.self_ns += t.self_ns;
    sum.count += t.count;
  }
  return sum;
}

uint64_t Tracer::Counter(uint32_t counter) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t sum = 0;
  for (const auto& thread : threads_) sum += thread->counter(counter);
  return sum;
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const auto& thread : threads_) {
    const std::vector<SpanRecord>& log = thread->log();
    for (size_t i = 0; i < log.size(); ++i) {
      const SpanRecord& s = log[i];
      std::fprintf(file,
                   "{\"tid\":%d,\"id\":%zu,\"parent\":%lld,\"batch\":%llu,"
                   "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   thread->tid(), i,
                   s.parent == ThreadTrace::kNoParent
                       ? -1LL
                       : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.batch),
                   SpanNameString(s.name), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(file) == 0;
}

// --- CPU accounting ----------------------------------------------------------

namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::map<int, ThreadCpu> ReadThreadCpu() {
  std::map<int, ThreadCpu> threads;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return threads;
  while (dirent* entry = readdir(dir)) {
    const int tid = std::atoi(entry->d_name);
    if (tid <= 0) continue;
    const std::string base = "/proc/self/task/" + std::to_string(tid) + "/";
    std::string schedstat;
    std::string stat;
    if (!ReadFile(base + "schedstat", &schedstat) ||
        !ReadFile(base + "stat", &stat)) {
      continue;  // the thread exited between readdir and open
    }
    ThreadCpu cpu;
    cpu.on_cpu_ns = std::strtoll(schedstat.c_str(), nullptr, 10);
    // Fields after the ")" that closes comm: state is field 3, utime 14 and
    // stime 15 (proc(5)), so utime is the 12th token after it.
    const size_t close = stat.rfind(')');
    if (close != std::string::npos) {
      std::istringstream fields(stat.substr(close + 1));
      std::string token;
      for (int field = 3; field <= 15 && (fields >> token); ++field) {
        if (field == 14) cpu.user_ticks = std::atoll(token.c_str());
        if (field == 15) cpu.system_ticks = std::atoll(token.c_str());
      }
    }
    threads[tid] = cpu;
  }
  closedir(dir);
  return threads;
}

int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

CpuDelta DeltaOver(const std::map<int, ThreadCpu>& before,
                   const std::map<int, ThreadCpu>& after,
                   const std::vector<int>& tids) {
  CpuDelta delta;
  for (const int tid : tids) {
    const auto a = after.find(tid);
    if (a == after.end()) continue;
    const auto b = before.find(tid);
    const ThreadCpu start = b == before.end() ? ThreadCpu{} : b->second;
    const int64_t on_cpu = a->second.on_cpu_ns - start.on_cpu_ns;
    const int64_t user = a->second.user_ticks - start.user_ticks;
    const int64_t system = a->second.system_ticks - start.system_ticks;
    delta.on_cpu_ns += on_cpu;
    if (user + system > 0) {
      delta.system_ns += static_cast<int64_t>(
          static_cast<double>(on_cpu) * static_cast<double>(system) /
          static_cast<double>(user + system));
    }
  }
  return delta;
}

// --- batch capture -----------------------------------------------------------

void BatchCapture::Offer(KeySpan keys) {
  if (taken_.load(std::memory_order_relaxed) >= limit_) return;
  if (taken_.fetch_add(1, std::memory_order_relaxed) >= limit_) return;
  std::vector<std::string> copy(keys.data(), keys.data() + keys.size());
  std::lock_guard<std::mutex> lock(mu_);
  batches_.push_back(std::move(copy));
}

// --- the layered query path --------------------------------------------------

size_t LayeredContainsBatch(const StaticFilter& filter, KeySpan keys,
                            uint8_t* out, ThreadTrace& trace, uint64_t batch) {
  const size_t n = keys.size();
  if (n == 0) return 0;
  struct Scratch {
    std::vector<uint32_t> shard_of;
    std::vector<uint32_t> origin;
    std::vector<size_t> offsets;
    std::vector<size_t> cursor;
    std::vector<std::string_view> grouped;
    std::vector<uint8_t> grouped_out;
  };
  static thread_local Scratch s;
  ScopedSpan sharded(trace, kSpanShardedContains, batch);
  const size_t shards = filter.num_shards();
  if (s.shard_of.size() < n) {
    s.shard_of.resize(n);
    s.origin.resize(n);
    s.grouped.resize(n);
    s.grouped_out.resize(n);
  }
  s.offsets.assign(shards + 1, 0);
  s.cursor.resize(shards);
  for (size_t i = 0; i < n; ++i) {
    const size_t shard = filter.ShardOf(keys[i]);
    s.shard_of[i] = static_cast<uint32_t>(shard);
    ++s.offsets[shard + 1];
  }
  for (size_t shard = 1; shard <= shards; ++shard) {
    s.offsets[shard] += s.offsets[shard - 1];
  }
  std::copy(s.offsets.begin(), s.offsets.end() - 1, s.cursor.begin());
  for (size_t i = 0; i < n; ++i) {
    const size_t slot = s.cursor[s.shard_of[i]]++;
    s.grouped[slot] = keys[i];
    s.origin[slot] = static_cast<uint32_t>(i);
  }

  size_t positives = 0;
  for (size_t shard = 0; shard < shards; ++shard) {
    const size_t begin = s.offsets[shard];
    const size_t count = s.offsets[shard + 1] - begin;
    if (count == 0) continue;
    const habf::Habf& habf = filter.shard(shard);
    const std::string_view* group = s.grouped.data() + begin;
    uint8_t* group_out = s.grouped_out.data() + begin;
    const size_t k = habf.h0().size();
    {
      ScopedSpan round1(trace, kSpanHabfRound1, batch);
      positives += habf.bloom().TestBatchWith(KeySpan(group, count),
                                              habf.h0().data(), k, group_out);
    }
    trace.Count(kCountRound1Keys, count);
    ScopedSpan round2(trace, kSpanHabfRound2, batch);
    uint8_t fns[16];
    uint64_t misses = 0;
    for (size_t i = 0; i < count; ++i) {
      if (group_out[i]) continue;
      ++misses;
      if (habf.expressor().Query(group[i], fns, k) &&
          habf.bloom().TestWith(group[i], fns, k)) {
        group_out[i] = 1;
        ++positives;
      }
    }
    trace.Count(kCountRound2Keys, misses);
  }
  for (size_t i = 0; i < n; ++i) out[s.origin[i]] = s.grouped_out[i];
  return positives;
}

size_t TracedStoreBackend::QueryBatch(KeySpan keys, uint8_t* out) const {
  capture_->Offer(keys);
  ThreadTrace& trace = tracer_->Local();
  const uint64_t batch = tracer_->NextBatch();
  ScopedSpan root(trace, kSpanBackendQuery, batch);
  trace.Count(kCountBackendKeys, keys.size());
  StaticStore::VersionedSnapshot snapshot;
  {
    ScopedSpan acquire(trace, kSpanStoreAcquire, batch);
    snapshot = store_->Acquire();
  }
  if (snapshot.filter == nullptr) {
    std::fill(out, out + keys.size(), 0);
    return 0;
  }
  return LayeredContainsBatch(*snapshot.filter, keys, out, trace, batch);
}

size_t TracedDynamicBackend::QueryBatch(KeySpan keys, uint8_t* out) const {
  capture_->Offer(keys);
  ThreadTrace& trace = tracer_->Local();
  const uint64_t batch = tracer_->NextBatch();
  ScopedSpan root(trace, kSpanBackendQuery, batch);
  trace.Count(kCountBackendKeys, keys.size());
  ScopedSpan contains(trace, kSpanDynamicContains, batch);
  return habf::net::DynamicBackend::QueryBatch(keys, out);
}

bool TracedDynamicBackend::Mutate(bool insert, KeySpan keys, uint64_t* applied,
                                  std::string* error) {
  ThreadTrace& trace = tracer_->Local();
  const uint64_t batch = tracer_->NextBatch();
  const int64_t cpu_start = ThreadCpuNs();
  bool ok = false;
  {
    ScopedSpan span(trace, kSpanBackendMutate, batch);
    ok = habf::net::DynamicBackend::Mutate(insert, keys, applied, error);
  }
  trace.Count(kCountMutateFrames, 1);
  trace.Count(kCountMutateCpuNs,
              static_cast<uint64_t>(ThreadCpuNs() - cpu_start));
  return ok;
}

// --- offline replays ---------------------------------------------------------

namespace {

constexpr int kReplayPasses = 5;

std::vector<std::vector<std::string_view>> Views(
    const std::vector<std::vector<std::string>>& batches) {
  std::vector<std::vector<std::string_view>> views;
  views.reserve(batches.size());
  for (const auto& batch : batches) {
    views.emplace_back(batch.begin(), batch.end());
  }
  return views;
}

size_t TotalKeys(const std::vector<std::vector<std::string>>& batches) {
  size_t total = 0;
  for (const auto& batch : batches) total += batch.size();
  return total;
}

/// Layered replay of every batch through one traced pass; fills the
/// per-key layer costs of *costs from the pass's self times.
void LayeredPass(const StaticFilter& filter,
                 const std::vector<std::vector<std::string_view>>& views,
                 std::vector<std::vector<uint8_t>>* answers,
                 ReplayCosts* costs) {
  ThreadTrace trace(static_cast<int>(gettid()));
  size_t keys = 0;
  answers->resize(views.size());
  for (size_t b = 0; b < views.size(); ++b) {
    (*answers)[b].assign(views[b].size(), 0);
    LayeredContainsBatch(filter, KeySpan(views[b].data(), views[b].size()),
                         (*answers)[b].data(), trace, b + 1);
    keys += views[b].size();
  }
  const double per_key = keys == 0 ? 0 : 1.0 / static_cast<double>(keys);
  const uint64_t round1_keys = trace.counter(kCountRound1Keys);
  const uint64_t round2_keys = trace.counter(kCountRound2Keys);
  costs->group_ns_per_key =
      static_cast<double>(trace.totals(kSpanShardedContains).self_ns) * per_key;
  costs->round1_ns_per_key =
      static_cast<double>(trace.totals(kSpanHabfRound1).self_ns) * per_key;
  costs->round2_ns_per_key =
      static_cast<double>(trace.totals(kSpanHabfRound2).self_ns) * per_key;
  costs->round2_ratio =
      round1_keys == 0 ? 0
                       : static_cast<double>(round2_keys) /
                             static_cast<double>(round1_keys);
}

/// Median over passes of each field LayeredPass fills.
ReplayCosts MedianLayered(const StaticFilter& filter,
                          const std::vector<std::vector<std::string_view>>& views,
                          std::vector<std::vector<uint8_t>>* answers) {
  std::vector<double> group, round1, round2;
  ReplayCosts costs;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    LayeredPass(filter, views, answers, &costs);
    group.push_back(costs.group_ns_per_key);
    round1.push_back(costs.round1_ns_per_key);
    round2.push_back(costs.round2_ns_per_key);
  }
  costs.group_ns_per_key = Median(group);
  costs.round1_ns_per_key = Median(round1);
  costs.round2_ns_per_key = Median(round2);
  return costs;
}

template <typename QueryFn>
double TimeBatchesNs(const std::vector<std::vector<std::string_view>>& views,
                     QueryFn&& query) {
  std::vector<uint8_t> out;
  const int64_t start = NowNs();
  for (const auto& view : views) {
    out.resize(view.size());
    query(KeySpan(view.data(), view.size()), out.data());
  }
  return static_cast<double>(NowNs() - start);
}

}  // namespace

ReplayCosts ReplayStatic(const StaticFilter& filter,
                         const std::vector<std::vector<std::string>>& batches) {
  const auto views = Views(batches);
  std::vector<std::vector<uint8_t>> layered;
  ReplayCosts costs = MedianLayered(filter, views, &layered);
  std::vector<uint8_t> real;
  for (size_t b = 0; b < views.size(); ++b) {
    real.assign(views[b].size(), 0);
    filter.ContainsBatch(KeySpan(views[b].data(), views[b].size()),
                         real.data());
    if (real != layered[b]) costs.answers_match = false;
  }
  return costs;
}

ReplayCosts ReplayDynamic(const habf::DynamicShardedHabf& filter,
                          const std::vector<std::vector<std::string>>& batches) {
  const auto views = Views(batches);
  const double keys = static_cast<double>(std::max<size_t>(1, TotalKeys(batches)));
  const auto base = filter.AcquireBase();
  std::vector<std::vector<uint8_t>> layered;
  ReplayCosts costs = MedianLayered(*base.filter, views, &layered);
  std::vector<uint8_t> real;
  for (size_t b = 0; b < views.size(); ++b) {
    real.assign(views[b].size(), 0);
    base.filter->ContainsBatch(KeySpan(views[b].data(), views[b].size()),
                               real.data());
    if (real != layered[b]) costs.answers_match = false;
  }

  std::vector<double> overlay;
  std::vector<double> acquire;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    const double dynamic_ns =
        TimeBatchesNs(views, [&](KeySpan span, uint8_t* out) {
          filter.ContainsBatch(span, out);
        });
    int64_t acquire_ns = 0;
    const double base_ns =
        TimeBatchesNs(views, [&](KeySpan span, uint8_t* out) {
          const int64_t start = NowNs();
          const auto pinned = filter.AcquireBase();
          acquire_ns += NowNs() - start;
          pinned.filter->ContainsBatch(span, out);
        });
    overlay.push_back((dynamic_ns - base_ns) / keys);
    acquire.push_back(static_cast<double>(acquire_ns) /
                      static_cast<double>(std::max<size_t>(1, views.size())));
  }
  costs.overlay_ns_per_key = Median(overlay);
  costs.acquire_ns = Median(acquire);
  return costs;
}

double HashValuesNsPerKey(const StaticFilter& filter,
                          const std::vector<std::vector<std::string>>& batches) {
  const habf::Habf& shard = filter.shard(0);
  const habf::GlobalHashProvider provider(shard.usable_functions(),
                                          shard.options().seed);
  const std::vector<uint8_t>& h0 = shard.h0();
  const double keys = static_cast<double>(std::max<size_t>(1, TotalKeys(batches)));
  std::vector<double> passes;
  uint64_t values[16];
  uint64_t sink = 0;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    const int64_t start = NowNs();
    for (const auto& batch : batches) {
      for (const std::string& key : batch) {
        provider.Values(key, h0.data(), h0.size(), values);
        sink += values[0];
      }
    }
    passes.push_back(static_cast<double>(NowNs() - start) / keys);
  }
  habf::DoNotOptimizeAway(sink);
  return Median(passes);
}

ProtocolCosts MeasureProtocol(
    const std::vector<std::vector<std::string>>& batches,
    size_t keys_per_request, size_t requests_per_read) {
  // Re-cut the captured keys into request frames of the workload's size.
  std::vector<std::string> flat;
  for (const auto& batch : batches) flat.insert(flat.end(), batch.begin(), batch.end());
  keys_per_request = std::max<size_t>(1, keys_per_request);
  requests_per_read = std::max<size_t>(1, requests_per_read);
  const size_t requests = flat.size() / keys_per_request;
  std::vector<std::string> reads;
  std::string read;
  std::string payload;
  for (size_t r = 0; r < requests; ++r) {
    std::vector<std::string_view> keys(
        flat.begin() + static_cast<std::ptrdiff_t>(r * keys_per_request),
        flat.begin() + static_cast<std::ptrdiff_t>((r + 1) * keys_per_request));
    payload.clear();
    habf::net::AppendKeyBatchPayload(&payload, KeySpan(keys.data(), keys.size()));
    habf::net::AppendFrame(&read, r + 1, habf::net::kOpQuery, payload);
    if ((r + 1) % requests_per_read == 0 || r + 1 == requests) {
      reads.push_back(std::move(read));
      read.clear();
    }
  }
  ProtocolCosts costs;
  if (requests == 0) return costs;

  std::vector<double> decode;
  std::vector<double> encode;
  std::vector<uint8_t> answers(keys_per_request, 1);
  std::vector<std::string_view> parsed;
  std::string error;
  std::string out;
  bool ok = true;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    habf::net::FrameDecoder decoder;
    habf::net::Frame frame;
    size_t decoded = 0;
    const int64_t start = NowNs();
    for (const std::string& bytes : reads) {
      decoder.Feed(bytes);
      while (decoder.Next(&frame, &error) ==
             habf::net::FrameDecoder::Status::kFrame) {
        parsed.clear();
        ok &= habf::net::ParseKeyBatchPayload(frame.payload, &parsed, &error);
        ++decoded;
      }
    }
    decode.push_back(static_cast<double>(NowNs() - start) /
                     static_cast<double>(std::max<size_t>(1, decoded)));
    ok &= decoded == requests;

    const int64_t encode_start = NowNs();
    for (size_t r = 0; r < requests; ++r) {
      if (out.size() > (size_t{1} << 20)) out.clear();
      payload.clear();
      habf::net::AppendQueryResponsePayload(&payload, answers.data(),
                                            answers.size());
      habf::net::AppendFrame(&out, r + 1, habf::net::kOpQueryResponse, payload);
    }
    encode.push_back(static_cast<double>(NowNs() - encode_start) /
                     static_cast<double>(requests));
  }
  if (!ok) return ProtocolCosts{};
  costs.decode_ns_per_request = Median(decode);
  costs.encode_ns_per_request = Median(encode);
  return costs;
}

double WalAppendFsyncUs(const std::string& dir, size_t appends) {
  std::vector<double> samples;
  std::error_code ignored;
  std::filesystem::create_directories(dir, ignored);
  {
    std::unique_ptr<habf::DeltaWalWriter> wal =
        habf::DeltaWalWriter::Open(dir, 1, 1);
    if (wal == nullptr) return 0;
    for (size_t i = 0; i < appends; ++i) {
      const std::string key = "perfbench-wal-" + std::to_string(i);
      const int64_t start = NowNs();
      if (wal->Append(key, true) == 0) return 0;
      samples.push_back(static_cast<double>(NowNs() - start) * 1e-3);
    }
  }
  habf::RemoveWalFilesBelow(dir, ~uint64_t{0});
  return Median(samples);
}

}  // namespace perfbench
