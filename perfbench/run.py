"""Run one benchmark workload against the package in ``src/`` and print metrics.

    python3 perfbench/run.py --workload verify_ref --seed 1 --seconds 30 --trace 0

One caller in one process runs the workload's ops as a closed loop: each op
starts when the previous one and its output check have finished.  Every op
is checked by the oracles in ``oracles.py`` and none stops the run.  An op
*fails* if it raised, ran over its wall-clock cap, ended with an outcome
other than the one fixed for it (an exit code, a verification verdict) or
wrote wrong output.  Wrong output (an oracle mismatch, bytes that differ
when op 0 is repeated) also makes the run incorrect.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` measures the program as shipped and reports the end-to-end
metrics.  Op times are given in units of a fixed reference work measured
just before and after each op (``reference_sample``), which cancels the
drift of the host's speed; the run record keeps them in seconds too.  ``--trace 1`` runs a fixed set of ops twice each, plain and with
the wrappers of ``tracing.py`` installed, and reports the per-layer metrics
and the tracing overhead.  Run records and span files go to
``.perfbench-runs/`` at the root of the checkout.
"""

import argparse
import gzip
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECORD_DIR = ROOT / ".perfbench-runs"

OP_CAP_S = 10.0         # an op running longer is stopped and counted failed
SETUP_LAUNCHES = 9      # fresh interpreters per run; setup_s is their median
LAUNCH_CAP_S = 30.0
TAIL_BEYOND = 10        # op_tail_ref: highest percentile with this many beyond
TRACE_BUDGET_S = 45.0   # the traced run issues no new op after this long
REF_ITERATIONS = 2000   # one reference sample: about 6 ms on a 2-core Xeon VM
REF_SHARE = 0.1         # reference work after each op, as a share of its time

# A fresh interpreter: import numpy, import the package, first solve.
SETUP_CHILD = """
import json, sys
from time import perf_counter
start = perf_counter()
import numpy
numpy_done = perf_counter()
import pollardwaves
from pollardwaves import cli
import_done = perf_counter()
cli.solve_configured(cli.RunConfig(**json.loads(sys.argv[1])).validate())
print(json.dumps({"numpy_import_s": numpy_done - start,
                  "import_s": import_done - start,
                  "solve_s": perf_counter() - import_done}))
"""


class OpTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise OpTimeout(f"op exceeded its {OP_CAP_S} s cap")


class Tally:
    """Op outcomes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.examples = []

    def add(self, op_label, outcome, content):
        """Record one op; returns True when it succeeded."""
        self.attempted += 1
        self.incorrect += bool(content)
        if not (outcome or content):
            return True
        self.failed += 1
        if len(self.examples) < 10:
            kind = "wrong output" if content else "failed"
            self.examples.append(f"{op_label} {kind}: {'; '.join((content + outcome)[:3])}")
        return False


def run_op(workload, cli, op, workdir, tracer=None):
    """One op under the wall-clock cap.

    Returns (latency_s, outcome problems, content problems, output bytes).
    """
    prepared = workload.prepare(cli, op, workdir)
    start = end = perf_counter()
    if tracer is not None:
        tracer.op = op.index
        tracer.install()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        try:
            start = perf_counter()
            raw = workload.execute(cli, prepared)
            end = perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Exception as exc:  # the op failed; the run goes on
        return perf_counter() - start, [f"raised {type(exc).__name__}: {exc}"], [], None
    finally:
        if tracer is not None:
            tracer.restore()
    try:
        outcome, content, fingerprint = workload.check(cli, op, raw, workdir)
    except Exception as exc:  # malformed output
        outcome, content, fingerprint = [], [f"output check raised {exc!r}"], None
    return end - start, outcome, content, fingerprint


def launch_setup(scenario):
    """One fresh interpreter: its wall time and its own timings."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, json.dumps(scenario)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=LAUNCH_CAP_S)
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up launch failed:\n{proc.stderr}")
    return wall, json.loads(proc.stdout.splitlines()[-1])


def reference_sample():
    """Wall time of a fixed piece of work that never calls the program.

    Python float arithmetic, 3x3 numpy products and float formatting: the
    mix the program's ops spend their time in.  The shared host's speed
    changes within a run, at times by a factor of two, and this work slows
    with it, so op times are reported in units of it.
    """
    start = perf_counter()
    acc = 0.0
    vec, mat = np.ones(3), np.eye(3) * 0.5
    parts = []
    for i in range(REF_ITERATIONS):
        x = i * 1e-3
        acc += math.sin(x) * math.exp(-x) + math.sqrt(x + 1.0)
        vec = mat @ vec + 1.0
        parts.append(f"{acc:.17g}")
    "".join(parts)
    return perf_counter() - start


def reference_after(latency):
    """Reference samples after an op: REF_SHARE of its time, at least one."""
    samples = [reference_sample()]
    while sum(samples) < REF_SHARE * latency:
        samples.append(reference_sample())
    return samples


def in_reference_units(latencies, refs):
    """Each op's time over the median of the reference samples taken just
    before and just after it; ``refs[i]`` precedes op i and follows op i-1."""
    return [latency / statistics.median(refs[i] + refs[i + 1])
            for i, latency in enumerate(latencies)]


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; with fewer samples, the slowest op and percentile 100."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _warm_up(workload, cli, seed, workdir, tally):
    """Op 0, untimed: lets lazy set-up finish; its bytes anchor the repeat."""
    first = workload.make_op(seed, 0)
    _, outcome, content, fingerprint0 = run_op(workload, cli, first, workdir)
    tally.add("op 0", outcome, content)
    return first, fingerprint0


def _repeat_first(workload, cli, first, fingerprint0, workdir, tally):
    """Determinism: op 0 again at the end must write identical bytes."""
    _, outcome, content, fingerprint = run_op(workload, cli, first, workdir)
    if fingerprint0 is not None and fingerprint != fingerprint0:
        content = content + ["repeat of op 0 gave different output bytes"]
    tally.add("op 0 repeated", outcome, content)


def timed_run(workload, cli, seed, seconds, workdir, setup):
    """The closed loop.  ``setup`` launches one fresh interpreter; the
    launches are spread evenly over the run, so that set-up time samples the
    host's speed over the whole run, as the ops do."""
    tally = Tally()
    first, fingerprint0 = _warm_up(workload, cli, seed, workdir, tally)
    latencies, refs, good = [], [reference_after(0.0)], 0
    index = 1
    loop_start = perf_counter()
    launched = 0
    while perf_counter() - loop_start < seconds:
        if (launched < SETUP_LAUNCHES
                and perf_counter() - loop_start >= launched * seconds / SETUP_LAUNCHES):
            setup()
            launched += 1
        op = workload.make_op(seed, index)
        latency, outcome, content, _ = run_op(workload, cli, op, workdir)
        latencies.append(latency)
        refs.append(reference_after(latency))
        good += tally.add(f"op {index}", outcome, content)
        index += 1
    _repeat_first(workload, cli, first, fingerprint0, workdir, tally)
    ratios = in_reference_units(latencies, refs)
    tail_ref, tail_pct = tail(ratios)
    all_refs = [t for r in refs for t in r]
    metrics = {
        "op_p50_ref": (statistics.median(ratios), "ref"),
        "op_tail_ref": (tail_ref, "ref"),
        "ops_per_ref": (good / sum(ratios), "1/ref"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {"timed_ops": len(latencies), "op_tail_percentile": tail_pct,
            "op_tail_beyond": min(TAIL_BEYOND, len(latencies) - 1),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail(latencies)[0],
            "ops_per_s": good / sum(latencies),
            "reference_sample_s": statistics.median(all_refs),
            "timed_op_seconds": sum(latencies), "latencies_s": latencies,
            "reference_samples_s": refs}
    return tally, metrics, info, None


def traced_run(workload, cli, seed, workdir):
    tally = Tally()
    tracer = tracing.Tracer()
    first, fingerprint0 = _warm_up(workload, cli, seed, workdir, tally)
    plain, traced = [], []
    loop_start = perf_counter()
    for index in range(workload.trace_ops):
        if perf_counter() - loop_start > TRACE_BUDGET_S:
            break
        op = workload.make_op(seed, index)
        latency, outcome, content, _ = run_op(workload, cli, op, workdir)
        plain.append(latency)
        tally.add(f"op {index}", outcome, content)
        latency, outcome, content, _ = run_op(workload, cli, op, workdir, tracer)
        traced.append(latency)
        tally.add(f"op {index} traced", outcome, content)
    probe_failed = {}
    for op in getattr(workload, "probe_ops", lambda _seed: [])(seed):
        _, outcome, content, _ = run_op(workload, cli, op, workdir)
        if content:
            tally.add(f"probe op {op.inputs[0]}", outcome, content)
        elif outcome:
            probe_failed[" ".join(op.inputs[0])] = outcome
    _repeat_first(workload, cli, first, fingerprint0, workdir, tally)
    metrics = tracing.layer_metrics(tracer, len(traced))
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    metrics["verify.probe_failed"] = (len(probe_failed), "count")
    info = {"traced_ops": len(traced), "absent_targets": tracer.absent,
            "plain_op_p50_s": statistics.median(plain),
            "traced_op_p50_s": statistics.median(traced),
            "probe_failed": probe_failed}
    return tally, metrics, info, tracer


def machine_record(seed):
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": commit,
            "seed": seed}


def load_program():
    """Import ``pollardwaves`` from ``src/`` of this checkout, or exit non-zero."""
    if not (SRC / "pollardwaves" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'pollardwaves'}")
    sys.path.insert(0, str(SRC))
    import pollardwaves
    from pollardwaves import cli
    if Path(pollardwaves.__file__).resolve().parent != (SRC / "pollardwaves").resolve():
        sys.exit(f"perfbench: imported pollardwaves from {pollardwaves.__file__}")
    return cli


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    workload = WORKLOADS[args.workload]()
    signal.signal(signal.SIGALRM, _on_alarm)
    scenario = workload.setup_scenario(args.seed)
    launches = []

    def setup():
        launches.append(launch_setup(scenario))

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            for _ in range(SETUP_LAUNCHES):
                setup()
            inner = [timings for _, timings in launches]
            tally, metrics, info, tracer = traced_run(workload, cli, args.seed, workdir)
            metrics["startup.import_s"] = (statistics.median(i["import_s"] for i in inner), "s")
            metrics["startup.numpy_import_s"] = (
                statistics.median(i["numpy_import_s"] for i in inner), "s")
        else:
            tally, metrics, info, tracer = timed_run(workload, cli, args.seed,
                                                     args.seconds, workdir, setup)
            metrics["setup_s"] = (statistics.median(wall for wall, _ in launches), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, **machine_record(args.seed), **info,
              "setup_launch_s": [wall for wall, _ in launches], "attempted": tally.attempted,
              "failed": tally.failed, "incorrect": tally.incorrect,
              "failures": tally.examples,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    RECORD_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RECORD_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        with gzip.open(RECORD_DIR / f"{stem}-spans.json.gz", "wt", encoding="utf-8") as out:
            json.dump(tracing.span_records(tracer), out)
    for line in tally.examples:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          + ", ".join(f"{k}={v}" for k, v in info.items() if k not in ("latencies_s", "reference_samples_s")))
    print(json.dumps({
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
