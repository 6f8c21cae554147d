#!/usr/bin/env python3
"""Self-tests for the benchmark (tiny sizes, about a minute after the build).

    python3 perfbench/selftest.py

1. A tiny run of every workload, untraced and traced, prints exactly the
   metrics BENCHMARK.json names, each with its unit, with no failed
   operation and correct outputs; the traced run writes its self-trace.
2. A held-out seed runs clean on every workload.
3. A deliberately truncated live stream is counted as a failed operation:
   the run still finishes and reports, instead of crashing or dropping it.
Exits 0 when every check holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 987654321

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    cmd += list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if result is None:
        sys.stderr.write(proc.stderr[-2000:])
    provenance = {}
    for line in lines:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
    return result, provenance


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    tables = {0: spec["end_to_end"], 1: spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            res, prov = run(workload, 1, trace)
            check(res is not None, f"{label}: prints a JSON result line")
            if res is None:
                continue
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  f"{label}: result has exactly correct/attempted/failed/metrics")
            want = {m["name"]: m["unit"] for m in tables[trace]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            check(got == want, f"{label}: every named metric, each with its unit")
            check(all(isinstance(v.get("value"), (int, float))
                      for v in res["metrics"].values()), f"{label}: values are numbers")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{label}: correct, {res['attempted']} attempted, 0 failed")
            for key in ("nproc", "threads_resolved", "seed", "input_ranks",
                        "frame_encoding", "frame_cache_capacity_bytes"):
                check(key in prov, f"{label}: provenance records {key}")
            if trace:
                path = os.path.join(ROOT, prov.get("self_trace", "-"))
                check(os.path.getsize(path) > 0 if os.path.exists(path) else False,
                      f"{label}: self-trace written to {prov.get('self_trace')}")

    for workload in workloads:
        res, _ = run(workload, HELD_OUT_SEED, 0)
        check(res is not None and res["correct"] and res["failed"] == 0,
              f"{workload}: held-out seed {HELD_OUT_SEED} runs clean")

    res, _ = run("live", 1, 0, "--truncate-live")
    check(res is not None, "truncated live stream: the run still reports")
    if res is not None:
        check(res["failed"] >= 1 and res["attempted"] > res["failed"],
              f"truncated live stream: counted as failed ({res['failed']} of "
              f"{res['attempted']})")
        check(res["correct"], "truncated live stream: other sessions still verify")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
