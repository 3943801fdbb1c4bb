#!/usr/bin/env python3
"""The repository benchmark.

Builds the measuring program (``perfbench/harness``, a cargo package of
its own) from the checkout's sources and runs one workload in its own
process:

    python3 perfbench/run.py --workload scale-1k --seed 7 --seconds 30 --trace 0

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. Without ``--workload`` every workload runs, traced and
untraced, and every metric is printed as a table (``--seed`` defaults
to 42, ``--seconds`` to the manifest's ``run_seconds``).

Must be run from the root of a checkout. The build goes to
``$CARGO_TARGET_DIR`` (default ``.bench_build``).
"""

import argparse
import json
import os
import subprocess
import sys

MANIFEST = "BENCHMARK.json"
HARNESS = os.path.join("perfbench", "harness")


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the harness; returns the binary path. Cargo's output goes
    to stderr so stdout carries only the result line."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HARNESS, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        die("build failed")
    return os.path.join(target, "release", "hc-perfbench")


def run_workload(binary, manifest, workload, seed, seconds, trace):
    """Runs one workload process and returns its checked result."""
    cmd = [binary, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--root", "."]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"{workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    want = manifest["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in want}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != units:
        die(f"{workload}: metrics differ from {MANIFEST}: "
            f"missing {sorted(set(units) - set(got))}, "
            f"extra {sorted(set(got) - set(units))}, "
            f"units {sorted(k for k in units if k in got and got[k] != units[k])}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die(f"{workload}: malformed result keys {sorted(result)}")
    return result


def run_all(binary, manifest, seed, seconds):
    """Every workload, untraced then traced, printed as one table."""
    ok = True
    for w in manifest["workloads"]:
        for trace in (0, 1):
            r = run_workload(binary, manifest, w["name"], seed, seconds, trace)
            ok = ok and r["correct"]
            print(f"## {w['name']} trace={trace}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}")
            for name, m in r["metrics"].items():
                print(f"{w['name']:12s} {name:34s} {m['value']:>16.6g} {m['unit']}")
            sys.stdout.flush()
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        with open(MANIFEST) as f:
            manifest = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {MANIFEST}: {e}")
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload is not None and args.workload not in names:
        die(f"unknown workload {args.workload!r}; one of {names}")
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    binary = build()
    if args.workload is None:
        sys.exit(0 if run_all(binary, manifest, args.seed, seconds) else 1)
    result = run_workload(binary, manifest, args.workload, args.seed, seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
