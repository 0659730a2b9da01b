#!/usr/bin/env python3
"""Host-time benchmark of the CHERIvoke simulator.

Builds perfbench/ (the simulator library from src/ plus the program),
runs one workload, checks every modelled statistic against the
recorded reference, and prints each metric by name with its unit. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload spec_sweep --seed 3 \
        --seconds 40 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record      # rewrite reference.json

See perfbench/README.md for the workloads, the metrics and what they
mean.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
REFERENCE = BENCH_DIR / "reference.json"

WORKLOADS = ("spec_sweep", "tenant_mutator", "threaded_revoke")
# Inputs are synthesised from seed mod REFERENCE_SEEDS, so every seed
# maps onto an input whose modelled statistics are recorded.
REFERENCE_SEEDS = 32
# Percentiles the pause tail may be reported at, lowest first.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

END_TO_END = {
    "sim_ops_per_s": "ops/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "workload.synth_s": "s",
    "workload.replay_s": "s",
    "workload.replay_ns_per_op": "ns",
    "workload.ops": "count",
    "tenant.codec_s": "s",
    "tenant.codec_mib": "MiB",
    "tenant.build_s": "s",
    "tenant.race_s": "s",
    "tenant.remote_frees": "count",
    "tenant.batches": "count",
    "alloc.mallocs": "count",
    "alloc.frees": "count",
    "alloc.peak_live_mib": "MiB",
    "alloc.peak_quarantine_mib": "MiB",
    "alloc.peak_footprint_mib": "MiB",
    "mem.resident_pages": "count",
    "revoke.busy_s": "s",
    "revoke.share": "ratio",
    "revoke.paint_s": "s",
    "revoke.sweep_s": "s",
    "revoke.release_s": "s",
    "revoke.sweep_ns_per_page": "ns",
    "revoke.epochs": "count",
    "revoke.slices": "count",
    "revoke.pages_swept": "count",
    "revoke.caps_revoked": "count",
    "revoke.pauses": "count",
    "revoke.pause_p50_ms": "ms",
    "revoke.pause_tail_ms": "ms",
    "revoke.pause_tail_pct": "%",
    "revoke.pause_max_ms": "ms",
    "revoke.bg_dispatches": "count",
    "revoke.bg_completions": "count",
    "revoke.bg_stalls": "count",
    "revoke.bg_reassigns": "count",
    "revoke.backend.id_checks": "count",
    "revoke.backend.id_compactions": "count",
    "revoke.backend.color_recycle_scans": "count",
    "revoke.backend.metadata_mib": "MiB",
    "cache.offcore_lines": "count",
    "cache.dram_mib": "MiB",
    "trace.timed_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Per-layer metrics read straight from the result structs: exact
# counts, plus the mutator-race wall time the program reports.
COUNTERS = (
    "tenant.codec_mib", "tenant.race_s", "tenant.remote_frees",
    "tenant.batches", "alloc.mallocs", "alloc.frees",
    "alloc.peak_live_mib", "alloc.peak_quarantine_mib",
    "alloc.peak_footprint_mib", "mem.resident_pages", "revoke.epochs",
    "revoke.slices", "revoke.pages_swept", "revoke.caps_revoked",
    "revoke.bg_dispatches", "revoke.bg_completions", "revoke.bg_stalls",
    "revoke.bg_reassigns", "revoke.backend.id_checks",
    "revoke.backend.id_compactions", "revoke.backend.color_recycle_scans",
    "revoke.backend.metadata_mib", "cache.offcore_lines", "cache.dram_mib",
)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------
# Build and run
# ---------------------------------------------------------------

def build():
    """Configure and build perfbench/ in the checkout's .bench_build."""
    if not (ROOT / "src").is_dir():
        raise BenchError(f"simulator sources not found: {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(BUILD_DIR / "build.log", "a") as out:
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
            if proc.returncode != 0:
                raise BenchError(f"build failed ({' '.join(cmd)}); "
                                 f"see {BUILD_DIR / 'build.log'}")


def run_binary(args, timeout=RUN_TIMEOUT_S):
    proc = subprocess.run([str(BUILD_DIR / "perfbench")] + args,
                          stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise BenchError(f"perfbench {' '.join(args)} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout)


def input_seed(seed):
    return seed % REFERENCE_SEEDS


# ---------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------

def tail_percentile(samples):
    """The highest TAIL_LADDER percentile with at least ten samples
    ranked beyond it (nearest-rank), as (percentile, value).
    (0, 0.0) when no ladder percentile has ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    best = (0, 0.0)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100 * n))
        if n - rank >= 10:
            best = (pct, xs[rank - 1])
    return best


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_fingerprint(reference, workload, seed, model_fp, host_fp):
    """Errors (empty when the fingerprint equals the reference)."""
    want = reference.get(workload, {}).get(str(seed))
    if want is None:
        return [f"no reference for {workload} seed {seed}"]
    errors = []
    if digest(model_fp) != want["model"]:
        errors.append("modelled statistics differ from the reference")
    if digest(host_fp) != want["host"]:
        errors.append("threading counters differ from the reference")
    return errors


def check_run(raw, reference, seed):
    """(correct, attempted, failed, errors) for one perfbench run."""
    reps = raw["reps"]
    errors = []
    first = reps[0]
    for i, rep in enumerate(reps[1:], 1):
        if (rep["model_fp"], rep["host_fp"]) != (first["model_fp"],
                                                first["host_fp"]):
            kind = "traced" if rep["traced"] else "untraced"
            errors.append(f"repetition {i} ({kind}) fingerprint differs "
                          "from repetition 0")
    errors += check_fingerprint(reference, raw["workload"], seed,
                                first["model_fp"], first["host_fp"])
    attempted = sum(r["ops_attempted"] for r in reps)
    applied = sum(r["ops_applied"] for r in reps)
    if applied != attempted:
        errors.append(f"{attempted - applied} trace ops not applied")
    # A run whose modelled fingerprint is wrong counts every op failed.
    failed = attempted if errors else attempted - applied
    return not errors, attempted, failed, errors


def measured(raw, traced):
    """The repetitions after the warm-up (repetition 0)."""
    reps = [r for r in raw["reps"][1:] if r["traced"] == traced]
    if not reps:
        kind = "traced" if traced else "untraced"
        raise BenchError(f"no measured {kind} repetitions")
    return reps


def end_to_end(raw):
    untraced = measured(raw, traced=False)
    return {
        "sim_ops_per_s": statistics.median(
            r["ops_applied"] / r["timed_s"] for r in untraced),
        "setup_s": statistics.median(
            r["setup_s"] for r in untraced if r["full_setup"]),
        "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
        "peak_rss_mib": raw["peak_rss_kib"] / 1024,
    }


def per_layer(raw):
    traced = measured(raw, traced=True)
    untraced = measured(raw, traced=False)

    def med(fn):
        return statistics.median(fn(r) for r in traced)

    def span(r, name, field="total_s"):
        return r["spans"][name][field]

    def replay_s(r):
        # TenantManager::run replays inside the program, so its self
        # time (minus the mutator race it reports) is the replay.
        return (span(r, "replay", "self_s") + span(r, "finish", "self_s")
                + span(r, "run", "self_s") - r["counters"].get(
                    "tenant.race_s", 0.0))

    def unattributed(r):
        return r["timed_s"] - (span(r, "replay") + span(r, "finish")
                               + span(r, "run"))

    def per_page(r):
        pages = r["stw_pages_swept"]
        return 1e9 * span(r, "sweep") / pages if pages else 0.0

    last = traced[-1]
    ops = last["ops_applied"]
    pauses = [p for r in traced for p in r["pauses_ms"]]
    tail_pct, tail_ms = tail_percentile(pauses)
    untraced_rate = statistics.median(
        r["ops_applied"] / r["timed_s"] for r in untraced)
    traced_rate = med(lambda r: r["ops_applied"] / r["timed_s"])
    m = {
        "workload.synth_s": med(lambda r: span(r, "synth")),
        "workload.replay_s": med(replay_s),
        "workload.replay_ns_per_op": 1e9 * med(replay_s) / ops,
        "workload.ops": ops,
        "tenant.codec_s": med(lambda r: span(r, "codec")),
        "tenant.build_s": med(lambda r: span(r, "build")),
        "revoke.busy_s": med(lambda r: span(r, "revoke")),
        "revoke.share": med(lambda r: span(r, "revoke") / r["timed_s"]),
        "revoke.paint_s": med(lambda r: span(r, "paint")),
        "revoke.sweep_s": med(lambda r: span(r, "sweep")),
        "revoke.release_s": med(lambda r: span(r, "release")),
        "revoke.sweep_ns_per_page": med(per_page),
        "revoke.pauses": len(last["pauses_ms"]),
        "revoke.pause_p50_ms": statistics.median(pauses) if pauses else 0.0,
        "revoke.pause_tail_ms": tail_ms,
        "revoke.pause_tail_pct": tail_pct,
        "revoke.pause_max_ms": max(pauses, default=0.0),
        "trace.timed_s": med(lambda r: r["timed_s"]),
        "trace.unattributed_s": med(unattributed),
        "trace.overhead_ratio": untraced_rate / traced_rate,
    }
    for name in COUNTERS:
        m[name] = last["counters"].get(name, 0)
    m["tenant.race_s"] = med(lambda r: r["counters"].get("tenant.race_s", 0))
    return m


def metric_names_match(metrics, benchmark, trace):
    """Errors when the printed names differ from BENCHMARK.json's."""
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"] for m in benchmark[key]}
    printed = set(metrics)
    errors = []
    if printed - declared:
        errors.append(f"printed but not in BENCHMARK.json {key}: "
                      f"{sorted(printed - declared)}")
    if declared - printed:
        errors.append(f"in BENCHMARK.json {key} but not printed: "
                      f"{sorted(declared - printed)}")
    return errors


# ---------------------------------------------------------------
# Host fingerprint
# ---------------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def host_lines(raw):
    lines = [
        f"host: nproc={len(os.sched_getaffinity(0))} "
        f"cpu_count={os.cpu_count()} cpu=\"{cpu_model()}\"",
        f"host: compiler=\"{raw['compiler']}\" flags=\"{raw['cxx_flags']}\" "
        f"build_type={raw['build_type']} commit={commit()}",
    ]
    if not raw["ndebug"]:
        lines.append("WARNING: benchmark built without NDEBUG; "
                     "timings are not comparable with a release build")
    return lines


# ---------------------------------------------------------------
# Modes
# ---------------------------------------------------------------

def bench(args):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads(REFERENCE.read_text())
    seed = input_seed(args.seed)
    build()
    raw = run_binary(["--workload", args.workload, "--seed", str(seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace)],
                     timeout=max(RUN_TIMEOUT_S, args.seconds + 130))
    correct, attempted, failed, errors = check_run(raw, reference, seed)
    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    units = PER_LAYER if args.trace else END_TO_END
    name_errors = metric_names_match(metrics, benchmark, args.trace)
    if name_errors:
        raise BenchError("; ".join(name_errors))

    reps = raw["reps"]
    for line in host_lines(raw):
        print(line)
    print(f"workload={args.workload} seed={args.seed} input_seed={seed} "
          f"repetitions={len(reps)} "
          f"(traced {sum(r['traced'] for r in reps)})")
    print(f"fingerprint: {'matches reference' if correct else 'MISMATCH'}"
          + "".join(f"\n  {e}" for e in errors))
    print(f"op_failure_rate = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} trace ops)")
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if args.trace:
        print(f"tracing overhead: untraced/traced sim_ops_per_s = "
              f"{metrics['trace.overhead_ratio']:.4f}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def record():
    """Record the reference fingerprints of every workload and seed."""
    build()
    reference = {}
    for workload in WORKLOADS:
        reference[workload] = {}
        for seed in range(REFERENCE_SEEDS):
            raw = run_binary(["--workload", workload, "--seed", str(seed),
                              "--seconds", "0", "--trace", "0",
                              "--reps", "1"])
            rep = raw["reps"][0]
            if rep["ops_applied"] != rep["ops_attempted"]:
                raise BenchError(f"{workload} seed {seed}: ops failed")
            reference[workload][str(seed)] = {
                "model": digest(rep["model_fp"]),
                "host": digest(rep["host_fp"])}
            log(f"recorded {workload} seed {seed}")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n")
    return 0


def self_test():
    build()
    log("C++ self-test: timing-policy transparency")
    proc = subprocess.run([str(BUILD_DIR / "perfbench_selftest")],
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        return proc.returncode
    import unittest
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH_DIR))
    suite = unittest.defaultTestLoader.loadTestsFromName("selftest")
    ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.record:
            return record()
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("--workload, --seed and --seconds are required")
        if args.seed < 0:
            parser.error("--seed must be non-negative")
        return bench(args)
    except (BenchError, OSError, subprocess.TimeoutExpired,
            json.JSONDecodeError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
