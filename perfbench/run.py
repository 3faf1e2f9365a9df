#!/usr/bin/env python3
"""Build perfbench from this checkout and run one workload.

    python3 perfbench/run.py --workload pipeline|train --seed N \
        --seconds S --trace 0|1 [--out RECORD.json]

Run from the root of a checkout. The first run configures and builds
the benchmark (Release) into .bench_build/; later runs only re-check
the build.

An untraced run is PARTS benchmark processes in a row, each measuring
S / PARTS seconds. Each metric is the median over the processes: the
speed of one process depends on its memory layout and thread placement,
so several short processes are steadier than one long one. The
processes' own reports go to stderr. stdout gets the combined metrics,
one `record:` line and, last, the result JSON. A traced run is one
process, printed as is. --out also saves the full record (fingerprint,
digests, tallies, metrics) for compare.py.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
WORKLOADS = ("pipeline", "train")
PARTS = 5
# A run ends within this many seconds, or within 2 * --seconds + 90 when
# that is longer.
TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def code_sha():
    """The checkout's git sha, read at every run (the build's own sha is
    fixed when it is configured), or a digest of its sources when the
    checkout has no git metadata."""
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    return source_digest()


def source_digest():
    """sha256 over the sources the benchmark builds."""
    digest = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "specs", HERE.name):
        paths += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step), 3)


def run_part(command, env, timeout):
    """One benchmark process: (exit code, record, result, stdout)."""
    done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, timeout=timeout)
    lines = done.stdout.splitlines()
    record = next((json.loads(line[len("record: "):]) for line in lines
                   if line.startswith("record: ")), None)
    if record is None:
        fail(f"a benchmark process printed no record (exit "
             f"{done.returncode})", 4)
    return done.returncode, record, json.loads(lines[-1]), done.stdout


def combine(records):
    """One record out of the processes' records: medians of the
    metrics, sums of the tallies, and a gate that every digest agrees."""
    info = dict(records[0]["info"], parts=str(len(records)))
    failures = [f for record in records for f in record["failures"]]
    for key in info:
        values = {record["info"].get(key) for record in records}
        if key.endswith("_digest") and len(values) > 1:
            failures.append(f"{key} differs between processes: "
                            f"{sorted(values)}")
    tallies = {}
    for record in records:
        for phase, tally in record["tallies"].items():
            total = tallies.setdefault(phase, dict(tally, attempted=0,
                                                   succeeded=0, failed=0,
                                                   refused=0,
                                                   deadline_expired=0))
            for key, value in tally.items():
                if key != "unit":
                    total[key] += value
    attempted = sum(t["attempted"] for t in tallies.values())
    failed = sum(t["failed"] + t["refused"] for t in tallies.values())
    metrics = {}
    for name, first in records[0]["metrics"].items():
        values = [record["metrics"][name]["value"] for record in records
                  if name in record["metrics"]]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    if "success_share" in metrics:
        metrics["success_share"]["value"] = 1.0 - failed / max(1, attempted)
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"info": info, "tallies": tallies, "failures": failures,
              "metrics": metrics,
              "parts": [record["metrics"] for record in records]}
    return record, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="also save the full record here")
    parser.add_argument("--inject", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no mtperf sources (CMakeLists.txt, src/)")
    build()

    # Relative to the run's working directory (the checkout root), so
    # the serve socket path stays short wherever the checkout lives.
    workdir = BUILD.relative_to(ROOT) / "work" / str(os.getpid())
    env = dict(os.environ, PERFBENCH_SOURCE_SHA=code_sha())
    if any((ROOT / "specs").glob("*.json")):
        # What `mtperf` reads when built from this tree.
        env["MTPERF_SPEC_DIR"] = str(ROOT / "specs")
    parts = 1 if args.trace else PARTS
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds / parts),
               "--trace", str(args.trace), "--workdir", str(workdir)]
    if args.inject:
        command += ["--inject", args.inject]
    deadline = time.monotonic() + max(TIMEOUT_S, 2 * args.seconds + 90)
    results = []
    try:
        for _ in range(parts):
            results.append(run_part(command, env,
                                    deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("a benchmark process ran out of time", 4)
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)

    if parts == 1:
        code, record, result, stdout = results[0]
        sys.stdout.write(stdout)
    else:
        for _, _, _, stdout in results:
            sys.stderr.write(stdout)
        record, result = combine([r[1] for r in results])
        ok = result["correct"] and all(r[0] == 0 for r in results)
        code = 0 if ok else 1
        for failure in record["failures"]:
            print(f"FAILED {failure}")
        for name, metric in sorted(result["metrics"].items()):
            print(f"metric {name} = {metric['value']!r} {metric['unit']}")
        print("record: " + json.dumps(record))
        print(json.dumps(result))
    sys.stdout.flush()
    if args.out:
        record["result"] = result
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
