"""Layered benchmark for the `burkholder` CLI.

    python3 perfbench/run.py --workload matrix_run --seed 0 --seconds 25 --trace 0

Workloads (see workloads.py and NOTES.md): matrix_run, vaw_compare,
verify_all; `--workload all` runs each in turn. Each is a real CLI invocation in a fresh child process. The load
is a closed loop with one client: each invocation starts after the previous
one has exited.

--trace 0 measures the end-to-end metrics: wall_s (spawn to exit of one
invocation), setup_s (spawn to exit of a process that imports burkholder.cli
and builds the workload's inputs), peak_rss_mb (the invocation's peak
resident memory, from os.wait4) and fail_frac (failed over attempted
invocations). Timings are medians over the run.

--trace 1 alternates untraced invocations with traced ones (child.py trace)
and reports the per-layer metrics: call counts, self times, round
latencies, stored statistic bytes, and the tracing overhead. Traced output
must equal untraced output, and call counts must repeat exactly.

Every invocation's output is checked (checks.py). The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

from checks import check_output
from workloads import BENCH_DIR, OUT, ROOT, SRC, WORKLOADS

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MIN_INVOCATIONS = 3
MIN_SETUPS = 7
MIN_TRACED = 2


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, tag):
    """Run argv to completion with output captured in files under OUT.

    Returns (exit code, wall seconds, rusage, stdout, stderr). The wall time
    runs from just before the spawn to the return of wait4.
    """
    out_path, err_path = OUT / f"{tag}.out", OUT / f"{tag}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, out_path.read_text(), err_path.read_text()


def cli_argv(workload, seed):
    return [sys.executable, "-m", "burkholder.cli"] + workload.cli_args(seed)


def child_argv(*args):
    return [sys.executable, str(BENCH_DIR / "child.py")] + [str(a) for a in args]


def run_setup(name, seed):
    code, wall, _, _, err = spawn(child_argv("setup", name, seed), "setup")
    if code != 0:
        raise BenchError(f"set-up process exited {code}: {err.strip()[-500:]}")
    return wall


def invoke(name, seed):
    """One untraced CLI invocation: (wall, peak rss MB, cpu s, problems, out, err)."""
    code, wall, usage, out, err = spawn(cli_argv(WORKLOADS[name], seed), name)
    problems = check_output(name, seed, code, out, err)
    return wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, problems, out, err


def median(values):
    return float(statistics.median(values))


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def end_to_end(name, seed, seconds):
    """Samples of each end-to-end metric, and the number of failed invocations."""
    run_setup(name, seed)  # warm-up: bytecode caches are not a per-run cost
    samples = {k: [] for k in E2E_UNITS}
    failed = 0
    deadline = time.perf_counter() + seconds
    while len(samples["wall_s"]) < MIN_INVOCATIONS or time.perf_counter() < deadline:
        samples["setup_s"].append(run_setup(name, seed))
        wall, peak, _, problems, _, _ = invoke(name, seed)
        samples["wall_s"].append(wall)
        samples["peak_rss_mb"].append(peak)
        if problems:
            failed += 1
            print(f"FAILED invocation {len(samples['wall_s'])}: {'; '.join(problems)}")
    while len(samples["setup_s"]) < MIN_SETUPS:
        samples["setup_s"].append(run_setup(name, seed))
    return samples, failed


# --- traced run ----------------------------------------------------------------

def load_spans(prefix):
    with np.load(prefix + ".npz") as z:
        spans = {k: z[k] for k in ("name", "parent", "start", "end")}
    with open(prefix + ".json") as fh:
        meta = json.load(fh)
    return spans, meta


def span_summary(spans, names):
    """Per span name: call count and self time (duration minus the part
    covered by direct children). Names never called read as 0."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child_time = np.zeros(dur.size)
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    k = len(names)
    calls = np.bincount(spans["name"], minlength=k)
    selfs = np.bincount(spans["name"], weights=dur - child_time, minlength=k)
    return (defaultdict(int, {n: int(calls[i]) for i, n in enumerate(names)}),
            defaultdict(float, {n: float(selfs[i]) for i, n in enumerate(names)}))


def round_latencies_ms(spans, names):
    """One sample per round: from a round's predict call to the next one (the
    last round ends with its run span)."""
    predict = [i for i, n in enumerate(names) if n.startswith("strategies.predict_")]
    out = []
    if "strategies.run" in names:
        for r in np.flatnonzero(spans["name"] == names.index("strategies.run")):
            starts = np.sort(spans["start"][(spans["parent"] == r)
                                            & np.isin(spans["name"], predict)])
            out.extend(np.diff(np.append(starts, spans["end"][r])) * 1e3)
    return out


def table_calls(spans, names):
    """round_values calls made directly by a strategy's prediction."""
    if "potentials.round_values" not in names:
        return 0
    predict = [i for i, n in enumerate(names) if n.startswith("strategies.predict_")]
    predict_spans = np.flatnonzero(np.isin(spans["name"], predict))
    return int(np.sum((spans["name"] == names.index("potentials.round_values"))
                      & np.isin(spans["parent"], predict_spans)))


def layer_metrics(spans, meta):
    """The per-layer metrics of one traced run, plus self time by span name."""
    names = meta["names"]
    calls, selfs = span_summary(spans, names)
    counters = defaultdict(int, meta["counters"])
    rounds = round_latencies_ms(spans, names)
    m = {}
    for key in ("eval", "residual", "round_values", "stat_map"):
        m[f"potentials.{key}_calls"] = calls[f"potentials.{key}"]
        m[f"potentials.{key}_s"] = selfs[f"potentials.{key}"]
    m["potentials.bound_s"] = selfs["potentials.bound"]
    for key in ("eigvals", "nuclear_projection"):
        m[f"symlin.{key}_calls"] = calls[f"symlin.{key}"]
        m[f"symlin.{key}_s"] = selfs[f"symlin.{key}"]
    for key in ("eigvalsh", "svd", "solve", "slogdet"):
        m[f"linalg.{key}_calls"] = calls[f"linalg.{key}"]
        m[f"linalg.{key}_s"] = selfs[f"linalg.{key}"]
    m["strategies.rounds"] = counters["strategies.rounds"]
    m["strategies.table_calls"] = table_calls(spans, names)
    m["strategies.predict_self_s"] = (selfs["strategies.predict_linearized"]
                                      + selfs["strategies.predict_convex"])
    m["strategies.mw_self_s"] = selfs["strategies.predict_randomized"]
    m["strategies.round_p50_ms"] = float(np.percentile(rounds, 50)) if rounds else 0.0
    m["strategies.round_p90_ms"] = float(np.percentile(rounds, 90)) if rounds else 0.0
    m["statistics.add_calls"] = calls["statistics.add"]
    m["statistics.add_s"] = selfs["statistics.add"]
    m["statistics.stored_bytes"] = counters["statistics.stored_bytes"]
    for key in ("sequence", "comparator", "report"):
        m[f"harness.{key}_s"] = selfs[f"harness.{key}"]
    for key in ("p2", "p3", "tree"):
        m[f"verify.{key}_s"] = selfs[f"verify.{key}"]
    m["verify.checks"] = counters["verify.checks"]
    m["verify.sample_statistic_calls"] = calls["verify.sample_statistic"]
    m["verify.sample_statistic_s"] = selfs["verify.sample_statistic"]
    m["losses.calls"] = calls["losses"]
    m["losses.s"] = selfs["losses"]
    m["cli.import_s"] = meta["import_s"]
    m["cli.build_s"] = meta["build_s"]
    return m, dict(selfs)


COUNT_METRICS = ("strategies.rounds", "strategies.table_calls", "verify.checks",
                 "statistics.stored_bytes")


def is_count(key):
    """Counts repeat exactly from run to run; times do not."""
    return key.endswith("calls") or key in COUNT_METRICS


def unit_of(key):
    if key.endswith("_bytes"):
        return "bytes"
    if is_count(key):
        return "count"
    if key.endswith("_ms"):
        return "ms"
    if key.endswith("_frac"):
        return "ratio"
    return "s"


def traced_once(name, seed, index):
    prefix = str(OUT / f"trace_{name}_{index}")
    code, wall, _, _, err = spawn(child_argv("trace", name, seed, prefix), f"trace_{name}")
    if code != 0:
        raise BenchError(f"traced run exited {code}: {err.strip()[-500:]}")
    spans, meta = load_spans(prefix)
    metrics, selfs = layer_metrics(spans, meta)
    return wall, metrics, selfs, meta


def traced(name, seed, seconds):
    plain, traced_walls, runs, cpu = [], [], [], []
    problems_seen, attempted, failed = [], 0, 0
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_TRACED or time.perf_counter() < deadline:
        wall, _, cpu_s, problems, out, err = invoke(name, seed)
        t_wall, metrics, selfs, meta = traced_once(name, seed, len(runs))
        attempted += 1
        problems += [f"traced: {p}" for p in check_output(
            name, seed, meta["code"], meta["stdout"], meta["stderr"])]
        if (meta["stdout"], meta["stderr"]) != (out, err):
            problems.append("traced output differs from untraced output")
        if not meta["restored"]:
            problems.append("a wrapper was left installed after the traced run")
        if runs and any(metrics[k] != runs[0][0][k] for k in metrics if is_count(k)):
            problems.append("traced counts differ between traced runs")
        if problems:
            failed += 1
            problems_seen.extend(problems)
        plain.append(wall)
        cpu.append(cpu_s)
        traced_walls.append(t_wall)
        runs.append((metrics, selfs))
    out = {}
    for key in runs[0][0]:
        vals = [r[0][key] for r in runs]
        out[key] = vals[0] if is_count(key) else median(vals)
    out["process.cpu_s"] = median(cpu)
    out["trace.overhead_frac"] = median(traced_walls) / median(plain) - 1.0
    selfs = {n: median([r[1].get(n, 0.0) for r in runs]) for n in runs[0][1]}
    for p in problems_seen:
        print(f"FAILED traced run: {p}")
    return out, selfs, attempted, failed


# --- reporting -----------------------------------------------------------------

def blas_build():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')} " + " ".join(
            blas.get("openblas configuration", "").split())
    except (KeyError, TypeError, ValueError):
        return "unknown"


def git_rev():
    """HEAD read from .git without running git; 'unknown' outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_build(), "git_rev": git_rev(),
            **THREAD_ENV}


def check_layout():
    """Fail before measuring when the program's source is not in the checkout."""
    cli = SRC / "burkholder" / "cli.py"
    if not cli.is_file():
        raise BenchError(f"not a burkholder checkout: missing {cli}")
    OUT.mkdir(parents=True, exist_ok=True)


def report_end_to_end(name, seed, seconds):
    samples, failed = end_to_end(name, seed, seconds)
    attempted = len(samples["wall_s"])
    print(f"{name} end to end, closed loop with one client:")
    for k, vals in samples.items():
        print(f"  {k:12s} {median(vals):12.6f} {E2E_UNITS[k]:5s} median of n={len(vals)}: "
              + " ".join(f"{v:.4g}" for v in vals))
    print(f"  {'fail_frac':12s} {failed / attempted:12.6f} ratio {failed} of n={attempted}")
    return ({k: (median(v), E2E_UNITS[k]) for k, v in samples.items()},
            attempted, failed)


def report_traced(name, seed, seconds):
    metrics, selfs, attempted, failed = traced(name, seed, seconds)
    total = sum(selfs.values())
    print(f"{name} traced: self-time shares of {total:.3f} s")
    for n, v in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"  {n:34s} {v:9.4f} s  {100 * v / total:5.1f}%")
    rows = {k: (v, unit_of(k)) for k, v in metrics.items()}
    for k, (v, u) in rows.items():
        print(f"  {k:34s} {v!r} {u}")
    return rows, attempted, failed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                   help="'all' runs every workload and prefixes metric names with it")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # SIGTERM becomes SystemExit, so spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    report = report_traced if args.trace else report_end_to_end
    rows, attempted, failed = {}, 0, 0
    try:
        check_layout()
        print("environment: " + json.dumps(environment()))
        for name in names:
            r, a, f = report(name, args.seed, args.seconds)
            prefix = f"{name}." if args.workload == "all" else ""
            rows.update({prefix + k: v for k, v in r.items()})
            attempted += a
            failed += f
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in rows.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
