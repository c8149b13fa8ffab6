"""Summarise perfbench run records of a parent and a change as a BENCH_<n>.json file.

    python3 scripts/bench_summary.py PARENT_RUNS CHANGE_RUNS \
        [--claim sweep_solve:op_p50_ref] --out BENCH_8.json

The arguments are the ``.perfbench-runs/`` directories of two checkouts; a pair
is one workload at one seed, run with ``--trace 0`` in both.  Each workload lists
the relative change of every end-to-end median, and ``over_bound`` names the
metrics whose change median is worse than the parent's by more than the metric's
``bound`` in BENCHMARK.json.  ``unresolved`` names the metrics whose parent
quartile spread, relative to its median, is wider than that bound, unless every
change run beats every parent run: their medians can move by the bound through
host noise alone.  ``claim_met`` applies the claim rule to the claimed metric:
the change wins at least 9 in 10 pairs, ties counting for neither side, and its
median is better than the parent's by more than the parent's q3 - q1.  Without
``--claim`` the claim and ``claim_met`` are null and no workload counts wins.
Standard library only.
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


def claim_met(wins, pairs, parent, change, sign):
    """The claim rule: at least 9 of 10 pairs won and a median gap, in the
    better direction (sign 1 where lower is better), wider than the parent's
    quartile spread."""
    return (10 * wins >= 9 * pairs
            and sign * (parent["median"] - change["median"]) > parent["q3"] - parent["q1"])


def unresolved(parent, parent_values, change_values, sign, bound):
    """Whether the parent's quartile spread is wider than ``bound`` of its
    median while some change run does not beat every parent run."""
    separated = all(sign * (p - c) > 0 for p in parent_values for c in change_values)
    return parent["q3"] - parent["q1"] > bound * abs(parent["median"]) and not separated


def summarise(parent_runs, change_runs, claim, benchmark):
    """The document; per workload, the pairs in which the change is better on
    ``claim`` ("workload:metric"), unless it is None."""
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    sign = {name: 1.0 if way == "lower" else -1.0 for name, way in better.items()}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    claimed, metric = claim.split(":") if claim else (None, None)
    won = claim and f"{metric}_change_{better[metric]}_in"
    workloads, over_bound, unresolved_metrics, met = {}, [], [], None
    for workload in (w["name"] for w in benchmark["workloads"]):
        pairs = [(parent_runs[key], change_runs[key])
                 for key in sorted(parent_runs.keys() & change_runs.keys()) if key[0] == workload]
        if not pairs:
            continue
        values = {name: ([p["metrics"][name]["value"] for p, _ in pairs],
                         [c["metrics"][name]["value"] for _, c in pairs]) for name in sign}
        entry = workloads[workload] = {
            "seeds": [p["seed"] for p, _ in pairs], "seconds": pairs[0][0]["seconds"],
            "pairs": len(pairs), "parent": side([p for p, _ in pairs], better),
            "change": side([c for _, c in pairs], better)}
        if workload == claimed:
            wins = sum(sign[metric] * (p - c) > 0 for p, c in zip(*values[metric]))
            entry[won] = f"{wins} of {len(pairs)} pairs"
            met = claim_met(wins, len(pairs), entry["parent"][metric],
                            entry["change"][metric], sign[metric])
        entry["relative_change"] = {
            name: relative_change(entry["parent"][name]["median"],
                                  entry["change"][name]["median"]) for name in sign}
        over_bound += [f"{workload}:{name}" for name, change in entry["relative_change"].items()
                       if change is not None and change * sign[name] > bounds[name]]
        unresolved_metrics += [f"{workload}:{name}" for name in sign
                               if unresolved(entry["parent"][name], *values[name], sign[name],
                                             bounds[name])]
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
                       "relative_change is (change - parent) / parent of the medians; "
                       "over_bound lists the workload:metric medians worse than the parent's "
                       "by more than the metric's bound; unresolved lists those whose parent "
                       "q3 - q1 exceeds the bound times the parent median, unless every change "
                       "run beats every parent run; claim_met holds when the change wins at "
                       "least 9 in 10 pairs (ties count for neither) and its median is better "
                       "by more than the parent's q3 - q1",
        "parent_commit": next(iter(parent_runs.values()))["git_commit"],
        "machine": {k: next(iter(change_runs.values()))[k]
                    for k in ("nproc", "cpu_model", "python", "numpy")},
        "claim": claim_text,
        "claim_met": met,
        "over_bound": over_bound,
        "unresolved": unresolved_metrics,
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
