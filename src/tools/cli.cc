#include "tools/cli.h"

#include <signal.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "core/delta_wal.h"
#include "core/dynamic_filter.h"
#include "core/filter_interface.h"
#include "core/filter_store.h"
#include "core/habf.h"
#include "core/sharded_filter.h"
#include "eval/metrics.h"
#include "net/client.h"
#include "net/server.h"
#include "util/serde.h"
#include "util/thread_pool.h"
#include "workload/dataset.h"

namespace habf {
namespace cli {
namespace {

constexpr char kUsage[] =
    "usage: habf_tool <command> [options]\n"
    "  build    --positives FILE (--out FILTER | --wal-dir DIR)\n"
    "           [--negatives FILE]\n"
    "           [--bits-per-key N] [--delta D] [--k K] [--cell-bits C]\n"
    "           [--fast] [--shards N] [--threads T]\n"
    "           [--routing uniform|two-choice] [--routing-buckets B]\n"
    "           (--wal-dir writes a durable dynamic filter for serve)\n"
    "  query    --filter FILTER (--key KEY ... | --keys FILE)\n"
    "           [--parallel-batch] [--threads T]\n"
    "  stats    (--filter FILTER | --port P [--host H])\n"
    "           (--port queries a running habf_server's counters over the\n"
    "            wire via the HNP1 Stats op; default host 127.0.0.1)\n"
    "  eval     --filter FILTER --negatives FILE\n"
    "  inspect  <snapshot>   (HBF1 section table, or legacy format by magic)\n"
    "  generate --dataset shalla|ycsb --positives FILE --negatives FILE\n"
    "           [--count N] [--zipf THETA] [--seed S]\n"
    "  serve    (--snapshot FILTER | --wal-dir DIR) [--port P]\n"
    "           [--port-file FILE] [--workers N] [--duration-ms MS]\n"
    "           (--port 0 picks a free port; --duration-ms 0 serves until\n"
    "            SIGTERM/SIGINT, then drains gracefully)\n";

/// How often `serve --wal-dir` runs a background compaction pass when no
/// shard crosses the dirty threshold first (a crossing kicks a pass at once).
constexpr std::chrono::milliseconds kServeCompactionInterval{1000};

/// Parsed flags: --name value pairs, repeated flags collected, bare --fast
/// style booleans mapped to "1".
struct Flags {
  std::map<std::string, std::vector<std::string>> values;

  const std::string* GetOne(const std::string& name) const {
    const auto it = values.find(name);
    if (it == values.end() || it->second.empty()) return nullptr;
    return &it->second.front();
  }
  bool Has(const std::string& name) const { return values.count(name) > 0; }
};

std::optional<Flags> ParseFlags(const std::vector<std::string>& args,
                                size_t start, std::string* err) {
  Flags flags;
  for (size_t i = start; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      *err += "unexpected argument: " + arg + "\n";
      return std::nullopt;
    }
    const std::string name = arg.substr(2);
    if (name == "fast" || name == "parallel-batch") {
      flags.values[name].push_back("1");
      continue;
    }
    if (i + 1 >= args.size()) {
      *err += "missing value for --" + name + "\n";
      return std::nullopt;
    }
    flags.values[name].push_back(args[++i]);
  }
  return flags;
}

/// Strict double parse: the whole string must be consumed and the value
/// finite — strtod happily accepts "nan"/"inf", which would flow into
/// total_bits as undefined float-to-integer casts.
bool ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0' && end != text.c_str() &&
         std::isfinite(*out);
}

bool ParseSize(const std::string& text, size_t* out) {
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return result.ec == std::errc() && result.ptr == text.data() + text.size();
}

/// "bad --flag value 'text' (expectation)" — every numeric-flag rejection
/// names the offending value so the error is actionable.
std::string BadFlag(const char* flag, const std::string& text,
                    const char* expectation) {
  return std::string("bad --") + flag + " value '" + text + "' (" +
         expectation + ")\n";
}

/// Reads one key per line. Returns false on I/O failure.
bool ReadKeyLines(const std::string& path, std::vector<std::string>* keys,
                  std::string* err) {
  std::string bytes;
  if (!ReadFileBytes(path, &bytes)) {
    *err += "cannot read " + path + "\n";
    return false;
  }
  std::istringstream stream(bytes);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) keys->push_back(line);
  }
  return true;
}

/// Reads "key" or "key\tcost" lines.
bool ReadWeightedLines(const std::string& path,
                       std::vector<WeightedKey>* keys, std::string* err) {
  std::string bytes;
  if (!ReadFileBytes(path, &bytes)) {
    *err += "cannot read " + path + "\n";
    return false;
  }
  std::istringstream stream(bytes);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      keys->push_back({line, 1.0});
    } else {
      double cost = 1.0;
      const std::string cost_text = line.substr(tab + 1);
      // Same hardening as the numeric flags: nan/inf are rejected by
      // ParseDouble, and a negative cost would silently subtract from the
      // weighted-FPR denominator (and every routing weight), so name the
      // offending value instead of ingesting it.
      if (!ParseDouble(cost_text, &cost) || cost < 0.0) {
        *err += "bad cost '" + cost_text + "' in line: " + line +
                " (expected a finite number >= 0)\n";
        return false;
      }
      keys->push_back({line.substr(0, tab), cost});
    }
  }
  return true;
}

/// Parses the filter-construction flags of `build` (--bits-per-key/--delta/
/// --k/--cell-bits/--fast plus --shards/--threads/--routing) into
/// `*options` and `*sharding`. Returns 0 or the exit code to propagate.
int ParseBuildFlags(const Flags& flags, size_t num_positives,
                    HabfOptions* options, ShardedBuildOptions* sharding,
                    std::string* err) {
  double bits_per_key = 10.0;
  if (const std::string* v = flags.GetOne("bits-per-key")) {
    if (!ParseDouble(*v, &bits_per_key) || bits_per_key <= 0) {
      *err += BadFlag("bits-per-key", *v, "expected a finite number > 0");
      return 1;
    }
  }
  const double total_bits_d =
      bits_per_key * static_cast<double>(num_positives);
  // Guard the float-to-integer cast: a finite but huge product (e.g.
  // --bits-per-key 1e19) would make the conversion itself undefined.
  if (total_bits_d >= 9.0e18) {
    *err += "bit budget too large: --bits-per-key " +
            std::to_string(bits_per_key) + " over " +
            std::to_string(num_positives) + " positives overflows\n";
    return 1;
  }
  options->total_bits = static_cast<size_t>(total_bits_d);
  if (options->total_bits < 64) {
    // Below the sizing floor the filter cannot be laid out (and the debug
    // build would trip ComputeSizing's assert) — reject, don't crash.
    *err += "bit budget too small: --bits-per-key " +
            std::to_string(bits_per_key) + " over " +
            std::to_string(num_positives) +
            " positives yields fewer than 64 total bits\n";
    return 1;
  }
  if (const std::string* v = flags.GetOne("delta")) {
    if (!ParseDouble(*v, &options->delta) || options->delta < 0) {
      *err += BadFlag("delta", *v, "expected a finite number >= 0");
      return 1;
    }
  }
  if (const std::string* v = flags.GetOne("k")) {
    if (!ParseSize(*v, &options->k) || options->k == 0 || options->k > 16) {
      *err += BadFlag("k", *v, "expected an integer in [1, 16]");
      return 1;
    }
  }
  if (const std::string* v = flags.GetOne("cell-bits")) {
    size_t cell = 0;
    if (!ParseSize(*v, &cell) || cell < 2 || cell > 8) {
      *err += BadFlag("cell-bits", *v, "expected an integer in [2, 8]");
      return 1;
    }
    options->cell_bits = static_cast<unsigned>(cell);
  }
  options->fast = flags.Has("fast");

  if (const std::string* v = flags.GetOne("shards")) {
    if (!ParseSize(*v, &sharding->num_shards) || sharding->num_shards == 0 ||
        sharding->num_shards > kMaxSnapshotShards) {
      *err += BadFlag("shards", *v, "expected an integer in [1, 4096]");
      return 1;
    }
  }
  if (const std::string* v = flags.GetOne("threads")) {
    if (!ParseSize(*v, &sharding->num_threads)) {
      *err += BadFlag("threads", *v,
                      "expected a non-negative integer (0 = hardware)");
      return 1;
    }
  }
  if (const std::string* v = flags.GetOne("routing")) {
    if (*v == "uniform") {
      sharding->routing = RoutingMode::kUniform;
    } else if (*v == "two-choice") {
      sharding->routing = RoutingMode::kTwoChoice;
    } else {
      *err += BadFlag("routing", *v, "expected 'uniform' or 'two-choice'");
      return 1;
    }
  }
  if (const std::string* v = flags.GetOne("routing-buckets")) {
    if (!ParseSize(*v, &sharding->num_routing_buckets) ||
        sharding->num_routing_buckets == 0 ||
        sharding->num_routing_buckets > kMaxRoutingBuckets) {
      *err += BadFlag("routing-buckets", *v,
                      "expected an integer in [1, 1048576]");
      return 1;
    }
  }
  return 0;
}

int CmdBuild(const Flags& flags, std::string* out, std::string* err) {
  const std::string* positives_path = flags.GetOne("positives");
  const std::string* out_path = flags.GetOne("out");
  const std::string* wal_dir = flags.GetOne("wal-dir");
  if (positives_path == nullptr ||
      (out_path == nullptr) == (wal_dir == nullptr)) {
    *err += "build requires --positives and exactly one of --out (snapshot) "
            "or --wal-dir (durable dynamic filter)\n";
    return 1;
  }
  std::vector<std::string> positives;
  if (!ReadKeyLines(*positives_path, &positives, err)) return 2;
  if (positives.empty()) {
    *err += "no positive keys in " + *positives_path + "\n";
    return 2;
  }
  std::vector<WeightedKey> negatives;
  if (const std::string* path = flags.GetOne("negatives")) {
    if (!ReadWeightedLines(*path, &negatives, err)) return 2;
  }

  HabfOptions options;
  ShardedBuildOptions sharding;
  if (const int code =
          ParseBuildFlags(flags, positives.size(), &options, &sharding, err)) {
    return code;
  }

  if (wal_dir != nullptr) {
    // The directory `serve --wal-dir` opens: an initial checkpoint, then the
    // WAL that every later mutation is acknowledged through.
    const size_t num_positives = positives.size();
    const size_t num_negatives = negatives.size();
    DynamicShardedHabf filter(std::move(positives), std::move(negatives),
                              options, sharding);
    std::string durability_error;
    if (!filter.EnableDurability(*wal_dir, &durability_error)) {
      *err += "cannot enable durability in " + *wal_dir + ": " +
              durability_error + "\n";
      return 2;
    }
    char line[320];
    std::snprintf(line, sizeof(line),
                  "built durable dynamic filter in %s: %zu positives, %zu "
                  "negatives, %zu shards, %zu bytes\n",
                  wal_dir->c_str(), num_positives, num_negatives,
                  filter.num_shards(), filter.MemoryUsageBytes());
    *out += line;
    return 0;
  }

  if (sharding.num_shards > 1) {
    const ShardedFilter<Habf> filter =
        BuildShardedHabf(positives, negatives, options, sharding);
    if (!filter.SaveToFile(*out_path)) {
      *err += "cannot write " + *out_path + "\n";
      return 2;
    }
    size_t optimized = 0;
    size_t collisions = 0;
    for (size_t s = 0; s < filter.num_shards(); ++s) {
      optimized += filter.shard(s).stats().optimized;
      collisions += filter.shard(s).stats().initial_collisions;
    }
    char line[320];
    std::snprintf(line, sizeof(line),
                  "built %s: %zu positives, %zu negatives, %zu shards "
                  "(%s routing), %zu/%zu collision keys optimized, "
                  "%zu bytes\n",
                  out_path->c_str(), positives.size(), negatives.size(),
                  filter.num_shards(),
                  filter.routing() == RoutingMode::kTwoChoice ? "two-choice"
                                                              : "uniform",
                  optimized, collisions, filter.MemoryUsageBytes());
    *out += line;
    return 0;
  }

  const Habf filter = Habf::Build(positives, negatives, options);
  if (!filter.SaveToFile(*out_path)) {
    *err += "cannot write " + *out_path + "\n";
    return 2;
  }
  char line[256];
  std::snprintf(line, sizeof(line),
                "built %s: %zu positives, %zu negatives, %zu/%zu collision "
                "keys optimized, %zu bytes\n",
                out_path->c_str(), positives.size(), negatives.size(),
                filter.stats().optimized, filter.stats().initial_collisions,
                filter.MemoryUsageBytes());
  *out += line;
  return 0;
}

/// A filter restored from either snapshot format (unsharded HABF or the
/// sharded wrapper). Models enough of the Filter concept for the query,
/// stats, and eval commands.
struct LoadedFilter {
  std::optional<Habf> single;
  std::optional<ShardedFilter<Habf>> sharded;

  bool MightContain(std::string_view key) const {
    return single.has_value() ? single->Contains(key)
                              : sharded->MightContain(key);
  }
  /// Batched answers with ContainsBatch semantics, so a LoadedFilter can
  /// sit behind net::StoreBackend (the `serve` command's static mode).
  size_t ContainsBatch(KeySpan keys, uint8_t* out) const {
    return single.has_value() ? GenericContainsBatch(*this, keys, out)
                              : sharded->ContainsBatch(keys, out);
  }
  size_t MemoryUsageBytes() const {
    return single.has_value() ? single->MemoryUsageBytes()
                              : sharded->MemoryUsageBytes();
  }
  size_t num_shards() const {
    return single.has_value() ? 1 : sharded->num_shards();
  }
  /// Options of the filter (shard 0's for a sharded snapshot — every shard
  /// shares k/cell_bits/delta/fast; total_bits and seed are per shard).
  const HabfOptions& options() const {
    return single.has_value() ? single->options() : sharded->shard(0).options();
  }
};

std::optional<LoadedFilter> LoadFilterFromPath(const std::string& path,
                                               std::string* err) {
  std::string bytes;
  if (!ReadFileBytes(path, &bytes)) {
    *err += "cannot load filter from " + path + "\n";
    return std::nullopt;
  }
  LoadedFilter loaded;
  loaded.sharded = ShardedFilter<Habf>::Deserialize(bytes);
  if (!loaded.sharded.has_value()) loaded.single = Habf::Deserialize(bytes);
  if (!loaded.sharded.has_value() && !loaded.single.has_value()) {
    *err += "cannot load filter from " + path + "\n";
    return std::nullopt;
  }
  return loaded;
}

std::optional<LoadedFilter> LoadFilter(const Flags& flags, std::string* err) {
  const std::string* path = flags.GetOne("filter");
  if (path == nullptr) {
    *err += "missing --filter\n";
    return std::nullopt;
  }
  return LoadFilterFromPath(*path, err);
}

int CmdQuery(const Flags& flags, std::string* out, std::string* err) {
  auto filter = LoadFilter(flags, err);
  if (!filter.has_value()) return 2;
  std::vector<std::string> keys;
  if (flags.Has("key")) {
    keys = flags.values.at("key");
  }
  if (const std::string* path = flags.GetOne("keys")) {
    if (!ReadKeyLines(*path, &keys, err)) return 2;
  }
  if (keys.empty()) {
    *err += "query requires --key or --keys\n";
    return 1;
  }

  std::vector<uint8_t> answers(keys.size());
  if (flags.Has("parallel-batch")) {
    // Batched query; a sharded filter additionally fans its per-shard
    // groups out to a worker pool. Answers are bit-for-bit identical to
    // the per-key path (tests assert this), just faster on large inputs.
    size_t threads = 0;
    if (const std::string* v = flags.GetOne("threads")) {
      if (!ParseSize(*v, &threads)) {
        *err += BadFlag("threads", *v,
                        "expected a non-negative integer (0 = hardware)");
        return 1;
      }
    }
    if (threads == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      threads = hw == 0 ? 1 : hw;
    }
    const std::vector<std::string_view> views = MakeKeyViews(keys);
    if (filter->sharded.has_value()) {
      ThreadPool pool(threads <= 1 ? 0 : threads);
      filter->sharded->SetQueryPool(&pool, /*min_parallel_keys=*/1);
      filter->sharded->ContainsBatch(KeySpan(views.data(), views.size()),
                                     answers.data());
      filter->sharded->SetQueryPool(nullptr);
    } else {
      // An unsharded filter has no per-shard groups to fan out — batch it
      // without spinning up workers that would never run a task.
      filter->single->ContainsBatch(KeySpan(views.data(), views.size()),
                                    answers.data());
    }
  } else {
    for (size_t i = 0; i < keys.size(); ++i) {
      answers[i] = filter->MightContain(keys[i]) ? 1 : 0;
    }
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    *out += keys[i];
    *out += answers[i] ? "\tmaybe-in-set\n" : "\tnot-in-set\n";
  }
  return 0;
}

/// stats --port: one Stats round-trip against a live server, printed as
/// greppable name=value lines in the server's (stable) wire order.
int CmdStatsOverWire(const Flags& flags, std::string* out, std::string* err) {
  size_t port = 0;
  if (!ParseSize(*flags.GetOne("port"), &port) || port == 0 || port > 65535) {
    *err += "stats: --port must be a port number (1-65535)\n";
    return 1;
  }
  const std::string* host = flags.GetOne("host");
  net::BlockingClient client;
  std::string error;
  if (!client.Connect(host != nullptr ? *host : "127.0.0.1",
                      static_cast<uint16_t>(port), &error)) {
    *err += "stats: " + error + "\n";
    return 2;
  }
  std::vector<std::pair<std::string, uint64_t>> entries;
  if (!client.GetStats(&entries, &error)) {
    *err += "stats: " + error + "\n";
    return 2;
  }
  for (const auto& entry : entries) {
    *out += entry.first + "=" + std::to_string(entry.second) + "\n";
  }
  return 0;
}

int CmdStats(const Flags& flags, std::string* out, std::string* err) {
  if (flags.Has("port")) {
    if (flags.Has("filter")) {
      *err += "stats: --filter and --port are mutually exclusive (a snapshot"
              " file or a live server, not both)\n";
      return 1;
    }
    return CmdStatsOverWire(flags, out, err);
  }
  auto filter = LoadFilter(flags, err);
  if (!filter.has_value()) return 2;
  const HabfOptions& options = filter->options();
  // Aggregate the per-shard tallies (an unsharded filter is one "shard").
  size_t total_bits = 0;
  size_t bloom_bits = 0;
  size_t expressor_cells = 0;
  size_t expressor_inserted = 0;
  size_t dynamic_insertions = 0;
  auto tally = [&](const Habf& habf) {
    total_bits += habf.options().total_bits;
    bloom_bits += habf.bloom().num_bits();
    expressor_cells += habf.expressor().num_cells();
    expressor_inserted += habf.expressor().num_inserted();
    dynamic_insertions += habf.dynamic_insertions();
  };
  if (filter->single.has_value()) {
    tally(*filter->single);
  } else {
    for (size_t s = 0; s < filter->sharded->num_shards(); ++s) {
      tally(filter->sharded->shard(s));
    }
  }
  // A sharded snapshot stores the routing salt but not the global build
  // seed (each shard carries its own derived seed), so printing shard 0's
  // seed would show a value no build flag can reproduce — report the salt
  // instead.
  char origin[64];
  if (filter->single.has_value()) {
    std::snprintf(origin, sizeof(origin), "seed=%llu",
                  static_cast<unsigned long long>(options.seed));
  } else {
    std::snprintf(origin, sizeof(origin), "salt=%llu",
                  static_cast<unsigned long long>(filter->sharded->salt()));
  }
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "total_bits=%zu delta=%.3f k=%zu cell_bits=%u fast=%d family=%s %s "
      "shards=%zu\n"
      "bloom_bits=%zu expressor_cells=%zu expressor_inserted=%zu\n"
      "memory_bytes=%zu dynamic_insertions=%zu\n",
      total_bits, options.delta, options.k, options.cell_bits,
      options.fast ? 1 : 0, HabfFamilyName(options.family), origin, filter->num_shards(), bloom_bits,
      expressor_cells, expressor_inserted, filter->MemoryUsageBytes(),
      dynamic_insertions);
  *out += line;
  // Routing-balance report (sharded snapshots only): which routing policy
  // the snapshot was built with, and — for a two-choice directory — how
  // evenly the build-time key weight landed across shards. max/mean 1.0 is
  // perfect balance; uniform routing has no persisted weights to report.
  if (filter->sharded.has_value()) {
    const RoutingDirectory& directory = filter->sharded->directory();
    if (directory.empty()) {
      *out += "routing=uniform\n";
    } else {
      double min_weight = directory.shard_weights.front();
      double max_weight = 0.0;
      double total_weight = 0.0;
      for (const double w : directory.shard_weights) {
        min_weight = std::min(min_weight, w);
        max_weight = std::max(max_weight, w);
        total_weight += w;
      }
      char routing_line[256];
      std::snprintf(routing_line, sizeof(routing_line),
                    "routing=two-choice buckets=%zu routed_weight=%.1f "
                    "shard_weight_min=%.1f shard_weight_max=%.1f "
                    "max_mean_ratio=%.4f\n",
                    directory.num_buckets(), total_weight, min_weight,
                    max_weight, directory.MaxMeanWeightRatio());
      *out += routing_line;
    }
  }
  return 0;
}

/// Renders a four-character tag for the inspect table; non-printable bytes
/// fall back to the hex value so a hostile tag cannot garble the terminal.
std::string RenderTag(uint32_t tag) {
  char text[5] = {static_cast<char>(tag & 0xFF),
                  static_cast<char>((tag >> 8) & 0xFF),
                  static_cast<char>((tag >> 16) & 0xFF),
                  static_cast<char>((tag >> 24) & 0xFF), '\0'};
  for (char c : std::string_view(text, 4)) {
    if (c < 0x20 || c > 0x7E) {
      char hex[16];
      std::snprintf(hex, sizeof(hex), "0x%08X", tag);
      return hex;
    }
  }
  return text;
}

/// `habf_tool inspect <snapshot>`: dumps the HBF1 section table (tag,
/// offset, length, CRC, verified/corrupt) or identifies a legacy snapshot
/// by its magic. Exit 0 = intact HBF1 or a recognized legacy format; exit 2
/// = unreadable, unparseable, or at least one corrupt section (the table is
/// still printed so the bad section is visible).
int CmdInspect(const std::string& path, std::string* out, std::string* err) {
  std::string bytes;
  if (!ReadFileBytes(path, &bytes)) {
    *err += "cannot read " + path + "\n";
    return 2;
  }
  char line[256];
  std::snprintf(line, sizeof(line), "file: %s (%zu bytes)\n", path.c_str(),
                bytes.size());
  *out += line;

  if (!SectionReader::LooksLikeContainer(bytes)) {
    // Legacy (or foreign) file: identify by magic only — the point of the
    // compat matrix is that these bytes never change, so there is no
    // section table to show.
    const uint32_t magic = BinaryReader(bytes).ReadU32();
    const char* what = nullptr;
    switch (magic) {
      case 0x46424148: what = "legacy HABF filter snapshot"; break;
      case kShardedSnapshotMagic: what = "legacy SHRD uniform sharded snapshot"; break;
      case kShardedSnapshotMagicV2: what = "legacy SHR2 two-choice sharded snapshot"; break;
      case 0x46524F58: what = "legacy XORF xor-filter snapshot"; break;
      case kWalMagic: what = "HWAL delta WAL segment"; break;
      default: break;
    }
    if (what == nullptr) {
      std::snprintf(line, sizeof(line), "format: unknown (magic=0x%08X)\n",
                    magic);
      *out += line;
      *err += "unrecognized snapshot format\n";
      return 2;
    }
    std::snprintf(line, sizeof(line), "format: %s (magic=%s)\n", what,
                  RenderTag(magic).c_str());
    *out += line;
    return 0;
  }

  const std::optional<SectionReader> container = SectionReader::Parse(bytes);
  if (!container.has_value()) {
    *out += "format: HBF1 container (framing invalid)\n";
    *err += "HBF1 framing error: bad version, section count, length, or "
            "trailing bytes\n";
    return 2;
  }
  std::snprintf(line, sizeof(line),
                "format: HBF1 container content=%s sections=%zu\n",
                RenderTag(container->content_tag()).c_str(),
                container->sections().size());
  *out += line;
  size_t corrupt = 0;
  for (size_t i = 0; i < container->sections().size(); ++i) {
    const SectionReader::Section& section = container->sections()[i];
    if (section.crc_ok) {
      std::snprintf(line, sizeof(line),
                    "  [%zu] tag=%-10s offset=%-8zu length=%-10llu "
                    "crc=0x%08X verified\n",
                    i, RenderTag(section.tag).c_str(), section.payload_offset,
                    static_cast<unsigned long long>(section.length),
                    section.stored_crc);
    } else {
      std::snprintf(line, sizeof(line),
                    "  [%zu] tag=%-10s offset=%-8zu length=%-10llu "
                    "crc=0x%08X CORRUPT (computed 0x%08X)\n",
                    i, RenderTag(section.tag).c_str(), section.payload_offset,
                    static_cast<unsigned long long>(section.length),
                    section.stored_crc, section.computed_crc);
      ++corrupt;
    }
    *out += line;
  }
  if (corrupt > 0) {
    std::snprintf(line, sizeof(line), "%zu corrupt section(s)\n", corrupt);
    *err += line;
    return 2;
  }
  *out += "all sections verified\n";
  return 0;
}

int CmdEval(const Flags& flags, std::string* out, std::string* err) {
  auto filter = LoadFilter(flags, err);
  if (!filter.has_value()) return 2;
  const std::string* path = flags.GetOne("negatives");
  if (path == nullptr) {
    *err += "eval requires --negatives\n";
    return 1;
  }
  std::vector<WeightedKey> negatives;
  if (!ReadWeightedLines(*path, &negatives, err)) return 2;
  if (negatives.empty()) {
    *err += "no negative keys in " + *path + "\n";
    return 2;
  }
  const double fpr = MeasureWeightedFpr(*filter, negatives);
  char line[128];
  std::snprintf(line, sizeof(line), "weighted_fpr=%.8f over %zu keys\n", fpr,
                negatives.size());
  *out += line;
  return 0;
}

int CmdGenerate(const Flags& flags, std::string* out, std::string* err) {
  const std::string* dataset = flags.GetOne("dataset");
  const std::string* positives_path = flags.GetOne("positives");
  const std::string* negatives_path = flags.GetOne("negatives");
  if (dataset == nullptr || positives_path == nullptr ||
      negatives_path == nullptr) {
    *err += "generate requires --dataset, --positives and --negatives\n";
    return 1;
  }
  if (*dataset != "shalla" && *dataset != "ycsb") {
    *err += "unknown dataset: " + *dataset + " (shalla or ycsb)\n";
    return 1;
  }
  DatasetOptions options;
  if (const std::string* v = flags.GetOne("count")) {
    size_t count = 0;
    if (!ParseSize(*v, &count) || count == 0) {
      *err += BadFlag("count", *v, "expected an integer > 0");
      return 1;
    }
    options.num_positives = count;
    options.num_negatives = count;
  }
  if (const std::string* v = flags.GetOne("seed")) {
    size_t seed = 0;
    if (!ParseSize(*v, &seed)) {
      *err += BadFlag("seed", *v, "expected a non-negative integer");
      return 1;
    }
    options.seed = seed;
  }
  double theta = 0.0;
  if (const std::string* v = flags.GetOne("zipf")) {
    if (!ParseDouble(*v, &theta) || theta < 0) {
      *err += BadFlag("zipf", *v, "expected a finite number >= 0");
      return 1;
    }
  }

  Dataset data = *dataset == "shalla" ? GenerateShallaLike(options)
                                      : GenerateYcsbLike(options);
  if (theta > 0) AssignZipfCosts(&data, theta, options.seed + 1);

  std::string pos_bytes;
  for (const auto& key : data.positives) {
    pos_bytes += key;
    pos_bytes += '\n';
  }
  std::string neg_bytes;
  char cost[64];
  for (const auto& wk : data.negatives) {
    neg_bytes += wk.key;
    std::snprintf(cost, sizeof(cost), "\t%.6f\n", wk.cost);
    neg_bytes += cost;
  }
  if (!WriteFileBytes(*positives_path, pos_bytes) ||
      !WriteFileBytes(*negatives_path, neg_bytes)) {
    *err += "cannot write output files\n";
    return 2;
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "generated %s dataset: %zu positives -> %s, %zu negatives "
                "(zipf %.2f) -> %s\n",
                dataset->c_str(), data.positives.size(),
                positives_path->c_str(), data.negatives.size(), theta,
                negatives_path->c_str());
  *out += line;
  return 0;
}

/// Serves a filter over the HNP1 protocol (DESIGN.md §11): --snapshot loads
/// an immutable snapshot behind a FilterStore pin (queries only), --wal-dir
/// opens the durable dynamic filter (queries + wire mutations). --port 0
/// lets the kernel pick (written to --port-file so scripts and the
/// in-process tests can find it); --duration-ms 0 serves until
/// SIGTERM/SIGINT and then drains gracefully.
int CmdServe(const Flags& flags, std::string* out, std::string* err) {
  const std::string* snapshot_path = flags.GetOne("snapshot");
  const std::string* wal_dir = flags.GetOne("wal-dir");
  if ((snapshot_path == nullptr) == (wal_dir == nullptr)) {
    *err += "serve requires exactly one of --snapshot (static) or "
            "--wal-dir (dynamic)\n";
    return 1;
  }
  size_t port = 0;
  if (const std::string* v = flags.GetOne("port")) {
    if (!ParseSize(*v, &port) || port > 65535) {
      *err += BadFlag("port", *v, "expected an integer in [0, 65535]");
      return 1;
    }
  }
  size_t workers = 2;
  if (const std::string* v = flags.GetOne("workers")) {
    if (!ParseSize(*v, &workers) || workers == 0) {
      *err += BadFlag("workers", *v, "expected an integer > 0");
      return 1;
    }
  }
  size_t duration_ms = 0;
  if (const std::string* v = flags.GetOne("duration-ms")) {
    if (!ParseSize(*v, &duration_ms)) {
      *err += BadFlag("duration-ms", *v,
                      "expected a non-negative integer (0 = until signal)");
      return 1;
    }
  }
  const std::string* port_file = flags.GetOne("port-file");

  // Block SIGTERM/SIGINT before any server thread spawns so every thread
  // inherits the mask and the signal lands only in the sigwait below —
  // delivery to a worker thread would take the default (kill) action
  // instead of the graceful drain.
  sigset_t drain_signals;
  sigemptyset(&drain_signals);
  sigaddset(&drain_signals, SIGTERM);
  sigaddset(&drain_signals, SIGINT);
  if (duration_ms == 0) {
    pthread_sigmask(SIG_BLOCK, &drain_signals, nullptr);
  }

  FilterStore<LoadedFilter> store;
  std::unique_ptr<DynamicShardedHabf> dynamic_filter;
  std::unique_ptr<net::ServerBackend> backend;
  const char* mode;
  if (snapshot_path != nullptr) {
    auto loaded = LoadFilterFromPath(*snapshot_path, err);
    if (!loaded.has_value()) return 2;
    store.Publish(std::move(*loaded));
    backend = std::make_unique<net::StoreBackend<LoadedFilter>>(&store);
    mode = "static";
  } else {
    DynamicOptions dynamic_options;
    std::string open_error;
    dynamic_filter =
        DynamicShardedHabf::Open(*wal_dir, dynamic_options, &open_error);
    if (dynamic_filter == nullptr) {
      *err += "serve: cannot open dynamic filter in " + *wal_dir + ": " +
              open_error + "\n";
      return 2;
    }
    // Compaction keeps the delta and the WAL bounded; its first pass also
    // writes the checkpoint Open defers.
    dynamic_filter->StartBackgroundCompaction(kServeCompactionInterval);
    backend = std::make_unique<net::DynamicBackend>(dynamic_filter.get());
    mode = "dynamic";
  }

  net::ServerOptions server_options;
  server_options.port = static_cast<uint16_t>(port);
  server_options.num_workers = workers;
  net::Server server(backend.get(), server_options);
  std::string start_error;
  if (!server.Start(&start_error)) {
    *err += "serve: " + start_error + "\n";
    return 2;
  }
  char line[320];
  std::snprintf(line, sizeof(line),
                "serving %s filter on 127.0.0.1:%u (workers=%zu)\n", mode,
                server.port(), workers);
  *out += line;
  if (port_file != nullptr) {
    // Atomic so a reader polling for the file never sees a partial write.
    if (!WriteFileBytesAtomic(*port_file, std::to_string(server.port()))) {
      *err += "serve: cannot write port file " + *port_file + "\n";
      server.Shutdown();
      return 2;
    }
  }

  if (duration_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  } else {
    int signal_number = 0;
    sigwait(&drain_signals, &signal_number);
    *out += std::string("serve: received ") +
            (signal_number == SIGTERM ? "SIGTERM" : "SIGINT") +
            ", draining\n";
  }
  server.Shutdown();
  DynamicStats dynamic_stats;
  if (dynamic_filter != nullptr) {
    dynamic_filter->StopBackgroundCompaction();
    dynamic_stats = dynamic_filter->stats();
  }
  const net::ServerStats stats = server.stats();
  std::snprintf(line, sizeof(line),
                "serve: drained connections=%llu frames=%llu "
                "requests=%llu keys_queried=%llu keys_mutated=%llu "
                "protocol_errors=%llu compactions=%llu checkpoints=%llu\n",
                static_cast<unsigned long long>(stats.connections_accepted),
                static_cast<unsigned long long>(stats.frames_decoded),
                static_cast<unsigned long long>(stats.requests_answered),
                static_cast<unsigned long long>(stats.keys_queried),
                static_cast<unsigned long long>(stats.keys_mutated),
                static_cast<unsigned long long>(stats.protocol_errors),
                static_cast<unsigned long long>(dynamic_stats.compactions),
                static_cast<unsigned long long>(dynamic_stats.checkpoints));
  *out += line;
  std::snprintf(
      line, sizeof(line),
      "serve: governance refused=%llu pauses=%llu resumes=%llu "
      "evicted_overflow=%llu evicted_idle=%llu out_peak_bytes=%llu\n",
      static_cast<unsigned long long>(stats.connections_refused),
      static_cast<unsigned long long>(stats.backpressure_pauses),
      static_cast<unsigned long long>(stats.backpressure_resumes),
      static_cast<unsigned long long>(stats.evictions_output_overflow),
      static_cast<unsigned long long>(stats.evictions_idle),
      static_cast<unsigned long long>(stats.out_buffer_peak_bytes));
  *out += line;
  return 0;
}

/// `inspect --snapshot PATH`, the flag form of `inspect PATH`.
int CmdInspectFlags(const Flags& flags, std::string* out, std::string* err) {
  const std::string* path = flags.GetOne("snapshot");
  if (path == nullptr) {
    *err += "inspect requires a snapshot path\n";
    *err += kUsage;
    return 1;
  }
  return CmdInspect(*path, out, err);
}

/// A command and the only flags it accepts: any other flag is rejected by
/// name, so a stale or misspelled flag fails instead of being ignored.
struct Command {
  const char* name;
  int (*run)(const Flags&, std::string*, std::string*);
  std::set<std::string> flags;
};

const Command* FindCommand(const std::string& name) {
  static const Command kCommands[] = {
      {"build",
       CmdBuild,
       {"positives", "out", "wal-dir", "negatives", "bits-per-key", "delta",
        "k", "cell-bits", "fast", "shards", "threads", "routing",
        "routing-buckets"}},
      {"query",
       CmdQuery,
       {"filter", "key", "keys", "parallel-batch", "threads"}},
      {"stats", CmdStats, {"filter", "port", "host"}},
      {"eval", CmdEval, {"filter", "negatives"}},
      {"inspect", CmdInspectFlags, {"snapshot"}},
      {"generate",
       CmdGenerate,
       {"dataset", "positives", "negatives", "count", "seed", "zipf"}},
      {"serve",
       CmdServe,
       {"snapshot", "wal-dir", "port", "port-file", "workers", "duration-ms"}},
  };
  for (const Command& command : kCommands) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::string* out,
           std::string* err) {
  if (args.empty()) {
    *err += kUsage;
    return 1;
  }
  const std::string& name = args[0];
  // inspect also takes its snapshot as one positional path.
  if (name == "inspect" && args.size() == 2 && args[1].rfind("--", 0) != 0) {
    return CmdInspect(args[1], out, err);
  }
  const Command* command = FindCommand(name);
  if (command == nullptr) {
    *err += "unknown command: " + name + "\n";
    *err += kUsage;
    return 1;
  }
  auto flags = ParseFlags(args, 1, err);
  if (!flags.has_value()) {
    *err += kUsage;
    return 1;
  }
  for (const auto& flag : flags->values) {
    if (command->flags.count(flag.first) == 0) {
      *err += "unknown flag --" + flag.first + " for " + name + "\n";
      *err += kUsage;
      return 1;
    }
  }
  return command->run(*flags, out, err);
}

}  // namespace cli
}  // namespace habf
