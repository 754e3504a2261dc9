// habf_loadgen: closed- and open-loop load generator for habf_server
// (DESIGN.md §11). Drives net::RunLoadgen against a running `habf_tool
// serve` (or any HNP1 endpoint) and reports throughput, HDR-style latency
// percentiles, and — when --expect-members is set — over-the-wire false
// negatives.
//
//   habf_loadgen --port P [--host H] [--connections N]
//                [--keys-per-request K] [--window W] [--open-rate R]
//                [--duration-ms MS] [--key-seed S] [--key-space N]
//                [--expect-members N] [--mutate-rate F] [--json]
//
// --window W caps the closed-loop pipeline depth per connection (default);
// --open-rate R > 0 switches to open-loop pacing at R requests/second per
// connection. --mutate-rate F sends that fraction of requests as durable
// insert/remove frames, for a server running `habf_tool serve --wal-dir`.
// Keys come from the deterministic WorkloadStreamKey stream
// (src/workload/dataset.h) shared with the serving tests, so preloading the
// first N stream keys server-side and passing --expect-members N turns the
// run into a wire-level one-sidedness check.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/loadgen.h"

namespace {

constexpr char kUsage[] =
    "usage: habf_loadgen --port P [--host H] [--connections N]\n"
    "       [--keys-per-request K] [--window W] [--open-rate R]\n"
    "       [--duration-ms MS] [--key-seed S] [--key-space N]\n"
    "       [--expect-members N] [--mutate-rate F] [--json]\n";

bool ParseU64(const char* text, uint64_t* out) {
  const char* end = text + std::strlen(text);
  const auto result = std::from_chars(text, end, *out);
  return result.ec == std::errc() && result.ptr == end;
}

bool ParseDoubleArg(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != nullptr && *end == '\0' && end != text;
}

}  // namespace

int main(int argc, char** argv) {
  habf::net::LoadgenOptions options;
  bool json = false;
  bool have_port = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n%s", arg.c_str(), kUsage);
      return 1;
    }
    const char* value = argv[++i];
    uint64_t u64 = 0;
    double d = 0.0;
    if (arg == "--host") {
      options.host = value;
    } else if (arg == "--port" && ParseU64(value, &u64) && u64 <= 65535) {
      options.port = static_cast<uint16_t>(u64);
      have_port = true;
    } else if (arg == "--connections" && ParseU64(value, &u64) && u64 > 0) {
      options.connections = static_cast<size_t>(u64);
    } else if (arg == "--keys-per-request" && ParseU64(value, &u64) &&
               u64 > 0) {
      options.keys_per_request = static_cast<size_t>(u64);
    } else if (arg == "--window" && ParseU64(value, &u64) && u64 > 0) {
      options.max_in_flight = static_cast<size_t>(u64);
    } else if (arg == "--open-rate" && ParseDoubleArg(value, &d) && d >= 0) {
      options.open_rate_per_connection = d;
    } else if (arg == "--duration-ms" && ParseU64(value, &u64) && u64 > 0) {
      options.duration = std::chrono::milliseconds(u64);
    } else if (arg == "--key-seed" && ParseU64(value, &u64)) {
      options.key_seed = u64;
    } else if (arg == "--key-space" && ParseU64(value, &u64) && u64 > 0) {
      options.key_space = u64;
    } else if (arg == "--expect-members" && ParseU64(value, &u64)) {
      options.expect_members = u64;
    } else if (arg == "--mutate-rate" && ParseDoubleArg(value, &d) &&
               d >= 0 && d <= 1) {
      options.mutate_rate = d;
    } else {
      std::fprintf(stderr, "bad flag/value: %s %s\n%s", arg.c_str(), value,
                   kUsage);
      return 1;
    }
  }
  if (!have_port) {
    std::fprintf(stderr, "--port is required\n%s", kUsage);
    return 1;
  }

  habf::net::LoadgenReport report;
  std::string error;
  const bool ok = habf::net::RunLoadgen(options, &report, &error);
  if (!ok) {
    std::fprintf(stderr, "loadgen: %s\n", error.c_str());
    // Partial counters below may still be useful for diagnosis.
  }

  const habf::net::LatencyHistogram& h = report.latency_ns;
  const habf::net::LatencyHistogram& m = report.mutation_latency_ns;
  if (json) {
    std::printf(
        "{\"requests\": %llu, \"responses\": %llu, \"keys\": %llu, "
        "\"positives\": %llu, \"false_negatives\": %llu, "
        "\"max_in_flight\": %zu, \"duration_s\": %.3f, "
        "\"rps\": %.1f, \"latency_ns\": {\"mean\": %.0f, \"p50\": %llu, "
        "\"p90\": %llu, \"p99\": %llu, \"p999\": %llu, \"max\": %llu}",
        static_cast<unsigned long long>(report.requests_sent),
        static_cast<unsigned long long>(report.responses_received),
        static_cast<unsigned long long>(report.keys_queried),
        static_cast<unsigned long long>(report.positives),
        static_cast<unsigned long long>(report.false_negatives),
        report.max_in_flight_observed, report.duration_seconds,
        report.achieved_rps, h.Mean(),
        static_cast<unsigned long long>(h.ValueAtPercentile(50)),
        static_cast<unsigned long long>(h.ValueAtPercentile(90)),
        static_cast<unsigned long long>(h.ValueAtPercentile(99)),
        static_cast<unsigned long long>(h.ValueAtPercentile(99.9)),
        static_cast<unsigned long long>(h.max()));
    if (options.mutate_rate > 0) {
      std::printf(
          ", \"mutations_acked\": %llu, \"keys_mutated\": %llu, "
          "\"mutation_latency_ns\": {\"p50\": %llu, \"p99\": %llu, "
          "\"max\": %llu}",
          static_cast<unsigned long long>(report.mutations_acked),
          static_cast<unsigned long long>(report.keys_mutated),
          static_cast<unsigned long long>(m.ValueAtPercentile(50)),
          static_cast<unsigned long long>(m.ValueAtPercentile(99)),
          static_cast<unsigned long long>(m.max()));
    }
    if (!report.server_stats.empty()) {
      std::printf(", \"server_stats\": {");
      for (size_t i = 0; i < report.server_stats.size(); ++i) {
        std::printf("%s\"%s\": %llu", i == 0 ? "" : ", ",
                    report.server_stats[i].first.c_str(),
                    static_cast<unsigned long long>(
                        report.server_stats[i].second));
      }
      std::printf("}");
    }
    std::printf("}\n");
  } else {
    std::printf(
        "loadgen: requests=%llu responses=%llu keys=%llu positives=%llu "
        "false_negatives=%llu max_in_flight=%zu rps=%.1f\n",
        static_cast<unsigned long long>(report.requests_sent),
        static_cast<unsigned long long>(report.responses_received),
        static_cast<unsigned long long>(report.keys_queried),
        static_cast<unsigned long long>(report.positives),
        static_cast<unsigned long long>(report.false_negatives),
        report.max_in_flight_observed, report.achieved_rps);
    std::printf(
        "latency_us: mean=%.1f p50=%.1f p90=%.1f p99=%.1f p999=%.1f "
        "max=%.1f\n",
        h.Mean() / 1e3, h.ValueAtPercentile(50) / 1e3,
        h.ValueAtPercentile(90) / 1e3, h.ValueAtPercentile(99) / 1e3,
        h.ValueAtPercentile(99.9) / 1e3, h.max() / 1e3);
    if (options.mutate_rate > 0) {
      std::printf(
          "mutations: acked=%llu keys=%llu ack_us: p50=%.1f p99=%.1f "
          "max=%.1f\n",
          static_cast<unsigned long long>(report.mutations_acked),
          static_cast<unsigned long long>(report.keys_mutated),
          m.ValueAtPercentile(50) / 1e3, m.ValueAtPercentile(99) / 1e3,
          m.max() / 1e3);
    }
    if (!report.server_stats.empty()) {
      std::printf("server_stats:");
      for (const auto& entry : report.server_stats) {
        std::printf(" %s=%llu", entry.first.c_str(),
                    static_cast<unsigned long long>(entry.second));
      }
      std::printf("\n");
    }
  }
  if (!ok) return 2;
  return report.false_negatives == 0 ? 0 : 3;
}
