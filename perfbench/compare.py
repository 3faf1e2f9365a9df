#!/usr/bin/env python3
"""Compare two sets of perfbench records against BENCHMARK.json.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds the records `run.py --out` writes, any number of
seeds per workload. For every workload and end-to-end metric this
prints both medians, the change in the worse direction, each side's
spread (interquartile range over median) and a verdict:

  ok          within the metric's bound
  REGRESSED   head worse than base by more than the bound
  unresolved  a side's spread exceeds the bound, so no verdict
  info        wall-clock metric across different host fingerprints

When both sides of a workload share at least two seeds, runs are
paired by seed and the median per-seed change is judged, so that a
host whose speed drifts between interleaved (A/B) runs cancels out;
otherwise the two medians are compared. It also fails on an incorrect record and on a digest (simulated CSV,
model) that differs between runs of one side. Digests that differ
between base and head are listed: a speed-only change keeps them.
Exit status: 0 pass, 1 regression or failure, 2 usage.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_KEYS = ("host.cpu", "host.nproc", "host.threads", "host.compiler",
             "host.build_type")
WALL_CLOCK_UNITS = {"s", "ms", "us", "inst/s", "rows/s"}


def load_records(directory):
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record["info"].get("run.trace") == "0":
            records.append(record)
    return records


def spread(values):
    """Interquartile range over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def host(record):
    return tuple(record["info"].get(key) for key in HOST_KEYS)


def digests(records):
    """digest key -> set of values seen in @p records."""
    seen = {}
    for record in records:
        for key, value in record["info"].items():
            if key.endswith("_digest"):
                seen.setdefault(key, set()).add(value)
    return seen


def paired_changes(b, h, name, better):
    """Per-seed changes in the worse direction, for seeds on both sides."""
    head_by_seed = {r["info"]["run.seed"]: r for r in h}
    changes = []
    for record in b:
        other = head_by_seed.get(record["info"]["run.seed"])
        if other is None:
            continue
        bv = record["result"]["metrics"][name]["value"]
        hv = other["result"]["metrics"][name]["value"]
        changes.append((hv - bv) / bv * (-1 if better == "higher" else 1))
    return changes


def compare(base, head, benchmark):
    """Rows of the comparison and the list of failures. Where a workload
    has at least two seeds on both sides, runs are matched by seed: the
    change is the median of the per-seed changes and the spread is their
    interquartile range. Otherwise medians and their spreads are
    compared."""
    rows, failures = [], []
    for side, records in (("base", base), ("head", head)):
        for record in records:
            if not record["result"]["correct"]:
                failures.append(f"{side}: incorrect run "
                                f"{record['info'].get('run.workload')} seed "
                                f"{record['info'].get('run.seed')}: "
                                f"{record['failures']}")
        for key, values in digests(records).items():
            if len(values) > 1:
                failures.append(f"{side}: {key} differs between runs: "
                                f"{sorted(values)}")
    same_host = len({host(r) for r in base + head}) <= 1
    changed = sorted(key for key, values in digests(head).items()
                     if values != digests(base).get(key))

    for workload in [w["name"] for w in benchmark["workloads"]]:
        b = [r for r in base if r["info"]["run.workload"] == workload]
        h = [r for r in head if r["info"]["run.workload"] == workload]
        if not b or not h:
            failures.append(f"{workload}: no records on "
                            f"{'base' if not b else 'head'}")
            continue
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            bv = [r["result"]["metrics"][name]["value"] for r in b]
            hv = [r["result"]["metrics"][name]["value"] for r in h]
            bm, hm = statistics.median(bv), statistics.median(hv)
            worse = (hm - bm) / bm
            if metric["better"] == "higher":
                worse = -worse
            spreads = (spread(bv), spread(hv))
            changes = paired_changes(b, h, name, metric["better"])
            paired = len(changes) >= 2
            if paired:
                worse = statistics.median(changes)
                q1, _, q3 = statistics.quantiles(changes, n=4)
                spreads = (q3 - q1, q3 - q1)
            if not same_host and metric["unit"] in WALL_CLOCK_UNITS:
                verdict = "info"
            elif worse > bound:
                verdict = "REGRESSED"
            elif max(spreads) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(dict(workload=workload, metric=name, base=bm,
                             head=hm, worse=worse, base_spread=spreads[0],
                             head_spread=spreads[1], bound=bound,
                             verdict=verdict, paired=paired,
                             runs=(len(bv), len(hv))))
    return rows, failures, changed


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, head = load_records(argv[1]), load_records(argv[2])
    rows, failures, changed = compare(base, head, benchmark)
    print(f"{'workload':9} {'metric':23} {'base':>12} {'head':>12} "
          f"{'worse':>8} {'spread b/h':>13} {'bound':>6}  verdict")
    for r in rows:
        print(f"{r['workload']:9} {r['metric']:23} {r['base']:12.6g} "
              f"{r['head']:12.6g} {r['worse']:+8.2%} "
              f"{r['base_spread']:6.1%}/{r['head_spread']:<6.1%} "
              f"{r['bound']:6.0%}  {r['verdict']} (n={r['runs'][0]}/"
              f"{r['runs'][1]}{', paired' if r['paired'] else ''})")
    for key in changed:
        print(f"changed between base and head: {key}")
    for failure in failures:
        print(f"FAILED {failure}")
    regressed = [r for r in rows if r["verdict"] == "REGRESSED"]
    return 1 if regressed or failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
