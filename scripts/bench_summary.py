"""Summarise perfbench run records of a parent and a change as a BENCH_<n>.json file.

    python3 scripts/bench_summary.py PARENT_RUNS CHANGE_RUNS \
        [--claim sweep_solve:op_p50_ref] --out BENCH_8.json

The arguments are the ``.perfbench-runs/`` directories of two checkouts; a pair
is one workload at one seed, run with ``--trace 0`` in both.  Each workload lists
the relative change of every end-to-end median, and ``over_bound`` names the
metrics whose change median is worse than the parent's by more than the metric's
``bound`` in BENCHMARK.json.  Without ``--claim`` the document's claim is null and
no workload counts wins.  Standard library only.
"""

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory):
    """{(workload, seed): record} of the timed runs in a run-record directory."""
    records = (json.loads(p.read_text()) for p in sorted(Path(directory).glob("*-trace0.json")))
    return {(r["workload"], r["seed"]): r for r in records}


def side(records, metrics):
    """Median and quartiles (inclusive method) of each metric, and op failures."""
    summary = {}
    for name in metrics:
        values = [r["metrics"][name]["value"] for r in records]
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        summary[name] = {"median": median, "q1": q1, "q3": q3}
    summary["failed_ops"] = sum(r["failed"] for r in records)
    summary["incorrect_ops"] = sum(r["incorrect"] for r in records)
    return summary


def relative_change(parent, change):
    """(change - parent) / parent, or None where the parent median is 0."""
    return (change - parent) / parent if parent else None


def summarise(parent_runs, change_runs, claim, benchmark):
    """The document; per workload, the pairs in which the change is better on
    ``claim`` ("workload:metric"), unless it is None."""
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    claimed, metric = claim.split(":") if claim else (None, None)
    won = claim and f"{metric}_change_{better[metric]}_in"
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    workloads, over_bound = {}, []
    for workload in (w["name"] for w in benchmark["workloads"]):
        pairs = [(parent_runs[key], change_runs[key])
                 for key in sorted(parent_runs.keys() & change_runs.keys()) if key[0] == workload]
        if pairs:
            entry = workloads[workload] = {
                "seeds": [p["seed"] for p, _ in pairs], "seconds": pairs[0][0]["seconds"],
                "pairs": len(pairs), "parent": side([p for p, _ in pairs], better),
                "change": side([c for _, c in pairs], better)}
            if claim:
                sign = 1.0 if better[metric] == "lower" else -1.0
                wins = sum(sign * (p["metrics"][metric]["value"]
                                   - c["metrics"][metric]["value"]) > 0 for p, c in pairs)
                entry[won] = f"{wins} of {len(pairs)} pairs"
            entry["relative_change"] = {
                name: relative_change(entry["parent"][name]["median"],
                                      entry["change"][name]["median"]) for name in better}
            over_bound += [f"{workload}:{name}" for name, change in entry["relative_change"].items()
                           if change is not None
                           and change * (1.0 if better[name] == "lower" else -1.0) > bounds[name]]
    claim_text = None
    if claim:
        if claimed not in workloads:
            raise SystemExit(f"no pairs of the claimed workload {claimed!r}")
        entry = workloads[claimed]
        medians = [entry[s][metric]["median"] for s in ("parent", "change")]
        claim_text = (f"{claimed} {metric}: {better[metric]} in {entry[won]}, median "
                      f"{medians[0]:.4g} -> {medians[1]:.4g}; no other workload or metric "
                      "is claimed")
    return {
        "description": "perfbench end-to-end metrics (--trace 0) of parent/change pairs on "
                       "one host: medians and quartiles (inclusive) over the listed seeds; "
                       "relative_change is (change - parent) / parent of the medians, and "
                       "over_bound lists the workload:metric medians worse than the parent's "
                       "by more than the metric's bound",
        "parent_commit": next(iter(parent_runs.values()))["git_commit"],
        "machine": {k: next(iter(change_runs.values()))[k]
                    for k in ("nproc", "cpu_model", "python", "numpy")},
        "claim": claim_text,
        "over_bound": over_bound,
        "workloads": workloads}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent_runs")
    parser.add_argument("change_runs")
    parser.add_argument("--claim", help="workload:metric; without it the claim is null")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    document = summarise(load_runs(args.parent_runs), load_runs(args.change_runs), args.claim,
                         json.loads((ROOT / "BENCHMARK.json").read_text()))
    Path(args.out).write_text(json.dumps(document, indent=2) + "\n")


if __name__ == "__main__":
    main()
