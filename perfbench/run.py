#!/usr/bin/env python3
"""End-to-end benchmark of the hcm user paths.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary (and the hcm libraries it links) from the
source tree on first use, runs one workload, and prints two lines: the
full report (every metric with its sample count and workload alias,
the generated inputs' properties, every correctness gate), then, last,
the result object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 its per-layer ones; a layer the workload does not exercise
reports 0 (see perfbench/metrics.json for which workload owns which).

Exit status: 0 when every correctness gate passed, 1 when one failed
(the result line says "correct": false), 2 when the build or the run
failed (no result line).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(map(str, cmd)) + "\n")
        out.flush()
        done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        tail = Path(log).read_text().splitlines()[-25:]
        raise BenchError("command failed: %s\n%s" % (" ".join(map(str, cmd)), "\n".join(tail)))


def build():
    """Configure once, then bring the binary up to date; returns its path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    if not (out / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", str(HERE), "-B", str(out)], log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs], log)
    return out / "perfbench"


def load_catalogue():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    with open(HERE / "metrics.json") as f:
        owners = json.load(f)
    return bench, owners


def result_metrics(report, workload, trace, bench, owners):
    """The result line's metrics object, checked against the catalogue."""
    measured = report["metrics"]
    metrics = {}
    if not trace:
        for m in bench["end_to_end"]:
            got = measured.get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                raise BenchError("end-to-end metric %s missing or in the wrong unit" % m["name"])
            if not (math.isfinite(got["value"]) and got["value"] > 0):
                raise BenchError("end-to-end metric %s is %r" % (m["name"], got["value"]))
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        return metrics
    for m in bench["per_layer"]:
        name = m["name"]
        owned = workload in owners["per_layer"][name]["workloads"]
        got = measured.get(name)
        if owned:
            if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                raise BenchError("layer metric %s missing or in the wrong unit" % name)
            metrics[name] = {"value": got["value"], "unit": m["unit"]}
        elif got is not None:
            raise BenchError("layer metric %s measured on a workload that does not own it" % name)
        else:
            metrics[name] = {"value": 0, "unit": m["unit"]}
    return metrics


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="test-sized inputs")
    parser.add_argument("--corrupt", default="", help="corrupt this gate's expected output (tests)")
    args = parser.parse_args(argv)

    try:
        bench, owners = load_catalogue()
        if args.workload not in {w["name"] for w in bench["workloads"]}:
            raise BenchError("unknown workload %r" % args.workload)
        binary = build()
        out_dir = build_dir() / ("run-%d" % os.getpid())
        out_dir.mkdir(parents=True, exist_ok=True)
        cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(out_dir)]
        if args.tiny:
            cmd.append("--tiny")
        if args.corrupt:
            cmd += ["--corrupt", args.corrupt]
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError("run exceeded %d s" % RUN_TIMEOUT_S)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            raise BenchError("benchmark binary exited with %d" % done.returncode)
        report = json.loads(lines[-1])
        metrics = result_metrics(report, args.workload, bool(args.trace), bench, owners)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    print(json.dumps(report))
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
