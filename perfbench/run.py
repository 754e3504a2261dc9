#!/usr/bin/env python3
"""End-to-end benchmark of habf_server, run from the root of a checkout.

    python3 perfbench/run.py --workload wire_static_large --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (the library straight from src/, Release only) into
$CARGO_TARGET_DIR or .bench_build, runs one workload in habf_perfbench, checks
its answers and prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (a separate, traced run). Lines before the last carry the
provenance and, in a traced run, the layer table. `failed / attempted` is the
error ratio: requests (queries and mutations) unanswered, refused or answered
wrongly, plus every acked mutation that recovery lost.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("wire_static_large", "wire_dynamic_durable")

# name: (unit, better)
END_TO_END = {
    "wire_keys_per_s": ("1/s", "higher"),
    "wire_p50_us": ("us", "lower"),
    "wire_p99_us": ("us", "lower"),
    "setup_s": ("s", "lower"),
    "build_s": ("s", "lower"),
    "weighted_fpr": ("ratio", "lower"),
    "filter_bits_per_key": ("bits/key", "lower"),
    "rss_mb": ("MB", "lower"),
    "recovery_s": ("s", "lower"),
}

# name: (unit, better, the end-to-end metric and workload it should move).
# Metrics of a layer a workload does not use read 0 on that workload.
PER_LAYER = {
    "hashing.values_ns_per_key": ("ns", "lower", "wire_keys_per_s on large"),
    "core.habf.round1_ns_per_key": ("ns", "lower", "wire_keys_per_s on large"),
    "core.habf.round2_ns_per_key": (
        "ns", "lower", "wire_keys_per_s, wire_p50_us on large"),
    "core.habf.round2_ratio": ("ratio", "lower", "wire_keys_per_s on large"),
    "core.habf.bloom_bytes": ("bytes", "lower", "filter_bits_per_key on all"),
    "core.hash_expressor.bytes": ("bytes", "lower", "filter_bits_per_key on all"),
    "core.habf.shard_build_s_max": ("s", "lower", "build_s, setup_s on large"),
    "core.habf.shard_build_s_sum": ("s", "lower", "build_s, setup_s on large"),
    "core.habf.initial_collisions": ("count", "lower", "build_s on large"),
    "core.habf.optimized": ("count", "higher", "weighted_fpr on large"),
    "core.habf.failed": ("count", "lower", "weighted_fpr on large"),
    "core.sharded_filter.group_ns_per_key": (
        "ns", "lower", "wire_keys_per_s on large"),
    "build.parallel_speedup": ("x", "higher", "build_s on large"),
    "build.parallel_efficiency": ("ratio", "higher", "build_s on large"),
    "core.filter_store.acquire_ns": ("ns", "lower", "wire_p50_us on all"),
    "backend.query_batch_ns_per_key": ("ns", "lower", "wire_keys_per_s on all"),
    "backend.keys_per_call": ("count", "higher", "wire_keys_per_s on all"),
    "backend.mutate_us_per_frame": (
        "us", "lower", "mutation_ack_p50_us on dynamic"),
    "net.protocol.decode_ns_per_request": (
        "ns", "lower", "wire_keys_per_s, wire_p50_us on all"),
    "net.protocol.encode_ns_per_request": (
        "ns", "lower", "wire_keys_per_s, wire_p50_us on all"),
    "net.server.keys_per_batch": ("count", "higher", "wire_keys_per_s on all"),
    "net.server.requests_per_batch": (
        "count", "higher", "wire_keys_per_s on all"),
    "net.server.worker_cpu_ns_per_key": (
        "ns", "lower", "wire_keys_per_s on all"),
    "net.server.worker_util": ("ratio", "lower", "wire_keys_per_s on all"),
    "net.server.kernel_ns_per_key": ("ns", "lower", "wire_keys_per_s on all"),
    "net.server.remainder_ns_per_key": (
        "ns", "lower", "wire_keys_per_s on all"),
    "net.server.unexplained_share": ("ratio", "lower", "(layer-sum check)"),
    "client.cpu_ns_per_key": ("ns", "lower", "(generator headroom)"),
    "core.dynamic_filter.overlay_ns_per_key": (
        "ns", "lower", "wire_keys_per_s on dynamic"),
    "core.dynamic_filter.delta_size": (
        "count", "lower", "wire_p99_us, mutation_ack_p99_us on dynamic"),
    "core.dynamic_filter.compactions": (
        "count", "lower", "wire_p99_us on dynamic"),
    "core.dynamic_filter.keys_drained": (
        "count", "higher", "wire_p99_us on dynamic"),
    "core.dynamic_filter.checkpoints": (
        "count", "lower", "mutation_ack_p99_us on dynamic"),
    "core.dynamic_filter.front_rotations": (
        "count", "lower", "wire_p99_us on dynamic"),
    "core.delta_wal.append_fsync_us": (
        "us", "lower", "mutation_ack_p50_us on dynamic"),
    "mutation_keys_per_s": ("1/s", "higher", "(dynamic writer, open loop)"),
    "mutation_ack_p50_us": ("us", "lower", "(dynamic writer, open loop)"),
    "mutation_ack_p99_us": ("us", "lower", "(dynamic writer, open loop)"),
    "trace.overhead_share": ("ratio", "lower", "(traced vs untraced)"),
}

PERCENTILE_LADDER = (50, 90, 99, 99.9, 99.99, 99.999)
SAMPLES_BEYOND = 10
LAYER_SUM_TOLERANCE = 0.15
RUN_TIMEOUT_S = 170


def supports(count, pct):
    """True when at least SAMPLES_BEYOND of `count` samples lie beyond pct."""
    # Rounded so that 10000 samples do support p99.9 despite binary floats.
    return round(count * (100 - pct) / 100, 6) >= SAMPLES_BEYOND


def highest_supported_percentile(count, ladder=PERCENTILE_LADDER):
    """The highest ladder percentile with >= SAMPLES_BEYOND samples beyond
    it, or None when even the lowest has too few."""
    best = None
    for pct in ladder:
        if supports(count, pct):
            best = pct
    return best


def tally(counts):
    """(attempted, failed) over every query request and mutation frame.

    A request that was refused or never answered is a failure, like a wrong
    answer; so is each acked mutation that recovery lost, each member the
    filter misses in-process, and each failed consistency check.
    """
    attempted = int(counts["query_requests_sent"] +
                    counts["mutation_frames_sent"])
    failed = (
        (counts["query_requests_sent"] - counts["query_responses"]) +
        min(counts["false_negatives"], counts["query_responses"]) +
        counts["protocol_errors"] +
        (counts["mutation_frames_sent"] - counts["mutation_frames_acked"]) +
        counts["recovery_violations"] + counts["missed_members"] +
        (0 if counts["transport_ok"] else 1))
    return max(attempted, 1), int(min(failed, max(attempted, 1)))


def load_benchmark_json(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def check_names(spec, metrics, trace):
    """Names emitted must be exactly those BENCHMARK.json declares."""
    key = "per_layer" if trace else "end_to_end"
    declared = [m["name"] for m in spec[key]]
    return sorted(declared) == sorted(metrics)


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        for cmd in (
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "-j", str(max(1, os.cpu_count() or 1))],
        ):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                return None
    return os.path.join(build_dir, "habf_perfbench")


def source_digest(root):
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def filesystem_of(path):
    """(mount point, device, fs type) of the mount holding `path`."""
    path = os.path.realpath(path)
    best = ("?", "?", "?")
    try:
        with open("/proc/mounts") as f:
            for line in f:
                device, mount, fstype = line.split()[:3]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and (best[0] == "?" or len(mount) >= len(best[0])):
                    best = (mount, device, fstype)
    except OSError:
        pass
    return best


def layer_metrics(raw):
    layers = dict(raw.get("layers", {}))
    layers.update(raw.get("mutation", {}))
    return {name: layers.get(name) for name in PER_LAYER}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "net", "server.h")):
        print("perfbench: no HABF sources under ./src; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    spec = load_benchmark_json(root)
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(root, build_dir)
    if binary is None:
        print("perfbench: build failed, see " +
              os.path.join(build_dir, "build.log"), file=sys.stderr)
        return 3

    work_dir = os.path.join(build_dir, "work")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        run = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print("perfbench: habf_perfbench exited %d" % run.returncode,
              file=sys.stderr)
        return 4
    raw = json.loads(lines[-1])

    wal_fs = filesystem_of(work_dir)
    provenance = dict(raw["provenance"])
    provenance.update({
        "cpu_model": cpu_model(),
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
        "wal_dir_fs": "%s on %s (%s)" % wal_fs,
        "trace": args.trace,
        "seconds": args.seconds,
    })
    print("provenance: " + json.dumps(provenance, sort_keys=True))

    counts = raw["counts"]
    attempted, failed = tally(counts)
    latency = raw["latency"]
    top = highest_supported_percentile(latency["count"])
    print("wire latency: %d samples, highest supported percentile p%s = %s us" %
          (latency["count"], top,
           latency.get("p%g_us" % top) if top is not None else "n/a"))
    # wire_p99_us is the median of per-window p99s: every window must hold
    # enough samples for its p99.
    correct = failed == 0 and supports(latency["min_window_count"], 99)
    if args.workload == "wire_dynamic_durable":
        correct = correct and supports(counts["mutation_ack_count"], 99)

    if args.trace:
        metrics = layer_metrics(raw)
        units = {name: PER_LAYER[name][0] for name in PER_LAYER}
        print("layer table (%s):" % args.workload)
        for name, (unit, _, moves) in PER_LAYER.items():
            print("  %-40s %14.4f %-6s -> %s" %
                  (name, metrics[name] or 0.0, unit, moves))
        share = metrics["net.server.unexplained_share"] or 0.0
        print("layer-sum check: parts explain %.1f%% of "
              "net.server.worker_cpu_ns_per_key; remainder %.2f ns/key (%s)" %
              (100 * (1 - share), metrics["net.server.remainder_ns_per_key"],
               "ok" if abs(share) <= LAYER_SUM_TOLERANCE else "OUT OF BOUND"))
        print("tracing overhead: %.1f%% of wire_keys_per_s" %
              (100 * metrics["trace.overhead_share"]))
    else:
        metrics = dict(raw["metrics"])
        units = {name: END_TO_END[name][0] for name in END_TO_END}
        for name, value in metrics.items():
            if value is None or not math.isfinite(value) or value <= 0:
                print("perfbench: %s = %r is not a positive number" %
                      (name, value), file=sys.stderr)
                correct = False
    if not check_names(spec, metrics, args.trace):
        print("perfbench: emitted metric names differ from BENCHMARK.json",
              file=sys.stderr)
        return 5
    if any(v is None for v in metrics.values()):
        print("perfbench: a metric is missing from the run", file=sys.stderr)
        return 5

    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
