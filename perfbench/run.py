#!/usr/bin/env python3
"""Simulator benchmark (see README.md next to this file).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and the library it compiles from src/) into
.bench_build/perfbench. A run is a fixed number of passes, each in a fresh
process, sized so the passes together take about --seconds. Pass i runs every
cell of the workload with its own seed derived from --seed, so a run averages
over several inputs as well as over host noise; the same --seed and
--seconds always give the same passes. Inputs for every pass are written
before timing starts.

Host speed on a shared machine drifts by tens of percent within a minute.
A calibration kernel that uses nothing from the library runs before the
first pass and after every pass (the fastest of three runs counts); each
pass's host times are rescaled by
CALIB_REF_S over the mean of the two calibrations around it, so host times
read as seconds on a host where the kernel takes CALIB_REF_S.

The last line of stdout is one JSON object. With --trace 0 its metrics are
the end-to-end ones: the mean over the passes for SLO attainment and cost,
the median for the rest. With --trace 1 every
pass seed runs twice, untraced and traced, the two must agree on every
simulated outcome, and the metrics are the per-layer numbers (medians over
the traced passes) plus the tracing overhead.
"""
import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "run"
BINARY = BUILD / "perfbench"
# Seconds per pass on a 4-vCPU x86 host in a quiet minute; --seconds over
# this, rounded, is the pass count.
PASS_SECONDS = {
    "paper-esg": 4.0,
    "paper-baselines": 4.4,
    "day-replay": 1.3,
    "observed-churn": 2.2,
}
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
# The calibration's time (fastest of three kernel runs) on the host the
# benchmark was built on, in a quiet minute; host times are reported at this
# speed.
CALIB_REF_S = 0.075
HOST_TIME_UNITS = {"s", "us", "ns"}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources under {ROOT / 'src'}")
    for cmd in (
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", "4"],
    ):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")


def perfbench(*args):
    done = subprocess.run([str(BINARY), *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"perfbench {' '.join(args)} exited "
                           f"{done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout else None


def failed_cells(p):
    """Cells of one pass with a failed check (messages start with the label)."""
    return len({f.split(":", 1)[0] for f in p["failures"]})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASS_SECONDS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    kinds = [False, True] if args.trace else [False]
    count = max(MIN_PASSES,
                round(args.seconds / (len(kinds) * PASS_SECONDS[args.workload])))
    seeds = [(args.seed * 1000 + i) % 2**64 for i in range(count)]

    shutil.rmtree(WORK, ignore_errors=True)
    dirs = []
    for seed in seeds:
        dirs.append(WORK / str(seed))
        perfbench("gen", "--workload", args.workload, "--seed", str(seed),
                  "--dir", str(dirs[-1]))

    passes = {False: [], True: []}
    calib = perfbench("calib")["calib_s"]
    for seed, work in zip(seeds, dirs):
        for traced in kinds:
            p = perfbench("pass", "--workload", args.workload, "--seed", str(seed),
                          "--dir", str(work), *(["--traced"] if traced else []))
            after = perfbench("calib")["calib_s"]
            p["scale"] = CALIB_REF_S / ((calib + after) / 2)
            calib = after
            passes[traced].append(p)
        shutil.rmtree(work, ignore_errors=True)
    shutil.rmtree(WORK, ignore_errors=True)

    untraced, traced = passes[False], passes[True]
    attempted = sum(p["cells"] for p in untraced + traced)
    failed = sum(failed_cells(p) for p in untraced + traced)
    for p in untraced + traced:
        for message in p["failures"]:
            log(f"check failed: {message}")
    for u, t in zip(untraced, traced):
        if u["fingerprint"] != t["fingerprint"]:
            failed += t["cells"] - failed_cells(t)
            log("check failed: traced and untraced outcomes differ")

    median = statistics.median
    log(f"{args.workload} seed {args.seed}: {len(untraced)} passes; "
        f"p99_latency_ms over {min(p['latency_samples'] for p in untraced)} "
        f"or more samples per pass; pass wall_s " +
        " ".join(f"{p['wall_s']:.3f}" for p in untraced) + "; host scale " +
        " ".join(f"{p['scale']:.3f}" for p in untraced))
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {name: median([p["layers"][name] *
                                (p["scale"] if units.get(name) in HOST_TIME_UNITS else 1.0)
                                for p in traced])
                  for name in traced[0]["layers"]}
        values["tracing_overhead"] = median(
            [(t["wall_s"] * t["scale"]) / (u["wall_s"] * u["scale"])
             for u, t in zip(untraced, traced)])
        values["ns_per_event"] = median([1e9 * p["loop_s"] * p["scale"] / p["events"]
                                         for p in untraced])
        report_split(args.workload, values)
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": median([p["wall_s"] * p["scale"] for p in untraced]),
            "setup_s": median([p["setup_s"] * p["scale"] for p in untraced]),
            "requests_per_s": median([p["arrivals"] / (p["loop_s"] * p["scale"])
                                      for p in untraced]),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in untraced]),
            # Bounded simulated outcomes with no host noise: the mean uses
            # every pass. p99 keeps the median (its per-pass values have a
            # heavy upper tail).
            "slo_hit_rate": statistics.mean([p["slo_hit_rate"] for p in untraced]),
            "cost_usd": statistics.mean([p["cost_usd"] for p in untraced]),
            "p99_latency_ms": median([p["p99_latency_ms"] for p in untraced]),
        }
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"metric set mismatch: missing "
                           f"{sorted(set(names) - set(values))}, extra "
                           f"{sorted(set(values) - set(names))}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def report_split(workload, layers):
    """Names the layers with the most host time in the traced passes."""
    schedulers = ("esg", "orion", "aquatope", "infless", "fastgshare")
    candidates = {f"{s}.{field}": layers[f"{s}.{field}"]
                  for s in schedulers
                  for field in ("plan_s", "place_s", "on_request_s", "construct_s")}
    for name in ("loop_self_s", "export_s", "parse_s", "arrivals_s",
                 "profile_build_s", "sink_s.chrome", "sink_s.stats",
                 "sink_s.analysis", "read_s", "build_s"):
        candidates[name] = layers[name]
    ranked = sorted(candidates.items(), key=lambda kv: -kv[1])[:4]
    log(f"{workload} top layers (median seconds per traced pass): " +
        ", ".join(f"{name} {value:.3f}" for name, value in ranked))


if __name__ == "__main__":
    try:
        main()
    except Exception as error:  # noqa: BLE001 - any failure means no result
        log(f"perfbench: {error}")
        sys.exit(1)
