"""Compare two result sets of the benchmark (a parent and a change).

    python3 perfbench/compare.py bench-results/parent.jsonl bench-results/change.jsonl

Each file holds records appended by ``run.py --out``; make a set with
ten or more seeds per workload, for example::

    for s in $(seq 1 10); do
        python3 perfbench/run.py --workload all --seed $s --out bench-results/parent.jsonl
    done

For every workload and end-to-end metric it prints each side's median
and quartiles and one verdict, using the bound ``BENCHMARK.json`` fixes
for the metric:

better
    the change wins at least 9 of 10 pairs (runs with the same seed, or
    in file order when the seeds differ; ties count for neither side) and
    the medians differ by more than the parent's interquartile range;
worse
    the change's median is worse than the parent's by more than the bound;
unresolved
    a side's spread (interquartile range over median) exceeds the bound,
    and the runs of the two sides overlap;
unchanged
    otherwise.

From the traced records (``--trace 1``) of both sets it then names the
layers whose self time per operation moved most.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

from checkout import ROOT
from stats import quartiles

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Per-layer metrics in seconds that are not one layer's self time.
NOT_SELF_TIMES = {"trace.e2e_s", "baseline.numpy_qr_s", "serve.cpu_per_job_s"}
WIN_SHARE = 0.9


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    """Records grouped by (workload, trace)."""
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                groups[(rec["workload"], rec["trace"])].append(rec)
    return groups


def _pairs(a: list[dict], b: list[dict], name: str) -> list[tuple[float, float]]:
    by_seed = {r["seed"]: r for r in b}
    if all(r["seed"] in by_seed for r in a):
        return [(r["metrics"][name]["value"], by_seed[r["seed"]]["metrics"][name]["value"])
                for r in a]
    return [(x["metrics"][name]["value"], y["metrics"][name]["value"]) for x, y in zip(a, b)]


def verdict(metric: dict, a: list[float], b: list[float], pairs) -> str:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    gap = sign * (qa[1] - qb[1])  # > 0: the change is better
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    if spread > metric["bound"]:
        if all(sign * (x - y) > 0 for x in a for y in b):
            return "better (every run)"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "worse (every run)"
        return f"unresolved (spread {spread:.3f} > bound {metric['bound']})"
    if pairs and wins >= WIN_SHARE * len(pairs) and gap > qa[2] - qa[0]:
        return f"better (won {wins}/{len(pairs)} pairs)"
    if -gap > metric["bound"] * qa[1]:
        return f"worse (by {-gap / qa[1]:.1%} > bound {metric['bound']:.0%})"
    return f"unchanged within {metric['bound']:.0%} (won {wins}/{len(pairs)} pairs)"


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def compare_end_to_end(pa, pb) -> None:
    for workload in [w["name"] for w in SPEC["workloads"]]:
        a, b = pa.get((workload, 0), []), pb.get((workload, 0), [])
        if not a or not b:
            print(f"== {workload}: no untraced runs on {'both sides' if not a and not b else 'one side'}")
            continue
        print(f"== {workload}: {len(a)} parent runs, {len(b)} change runs "
              f"(median [q1, q3])")
        failed = [sum(r["failed"] for r in side) for side in (a, b)]
        print(f"   failed operations: parent {failed[0]}, change {failed[1]}")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            print(f"   {name:<14} parent {_fmt(quartiles(va))}  change {_fmt(quartiles(vb))}"
                  f"  {metric['unit']}  -> {verdict(metric, va, vb, _pairs(a, b, name))}")


def compare_layers(pa, pb, top: int = 3) -> None:
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    layers = [n for n, u in units.items() if u == "s" and n not in NOT_SELF_TIMES]
    for workload in [w["name"] for w in SPEC["workloads"]]:
        a, b = pa.get((workload, 1), []), pb.get((workload, 1), [])
        if not a or not b:
            continue

        def med(side, name):
            return quartiles([r["metrics"][name]["value"] for r in side])[1]

        total = med(b, "trace.e2e_s") - med(a, "trace.e2e_s")
        moved = sorted(
            ((med(b, n) - med(a, n), n) for n in layers), key=lambda t: -abs(t[0])
        )
        print(f"== {workload}: traced time per operation moved {total:+.4g} s "
              f"({len(a)} vs {len(b)} traced runs)")
        for delta, name in moved[:top]:
            share = f" ({delta / total:.0%} of the move)" if total else ""
            print(f"   {name:<26} {med(a, name):.5g} -> {med(b, name):.5g} s  "
                  f"{delta:+.4g} s{share}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="JSON-lines result set of the parent")
    parser.add_argument("change", help="JSON-lines result set of the change")
    args = parser.parse_args(argv)
    pa, pb = load(args.parent), load(args.change)
    compare_end_to_end(pa, pb)
    compare_layers(pa, pb)
    return 0


if __name__ == "__main__":
    sys.exit(main())
