"""Child processes started by run.py.

    python3 perfbench/child.py setup <workload> <seed>
        Import burkholder.cli, build the workload's inputs and exit. run.py
        times this process from spawn to exit (setup_s).

    python3 perfbench/child.py trace <workload> <seed> <out_prefix>
        Run the workload's CLI command in-process with every layer's public
        functions wrapped in spans, then remove the wrappers and write
        <out_prefix>.npz (the spans) and <out_prefix>.json (outputs,
        counters, set-up times).

A span records its name, start, end and parent span. Spans stay in memory
until the command has returned. The wrappers live only in this file; the
program is not changed.
"""

import contextlib
import functools
import io
import json
import sys
import time
from array import array

from workloads import SRC, WORKLOADS

sys.path.insert(0, str(SRC))


def setup(workload, seed):
    """(import_s, build_s) of burkholder.cli and the workload's inputs."""
    t0 = time.perf_counter()
    import burkholder.cli  # noqa: F401
    t1 = time.perf_counter()
    workload.build_inputs(seed)
    return t1 - t0, time.perf_counter() - t1


class Recorder:
    """Spans in flat arrays: span i has name id, parent index, start, end."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {}

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, span, fn, on_return=None):
        nid = self.name_id(span)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(out)
            return out

        return wrapper


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += [c for c in _subclasses(sub) if c not in out]
    return out


def stat_nbytes(stat):
    """Bytes of the arrays a statistic holds (product statistics recurse)."""
    parts = getattr(stat, "parts", None)
    if parts is not None:
        return sum(stat_nbytes(p) for p in parts)
    return sum(v.nbytes for v in vars(stat).values() if hasattr(v, "nbytes"))


def layer_targets(rec):
    """(owner, attribute, wrapper) for every patched public function.

    Family methods are patched on the class that defines them. cli binds
    run_online and run_randomized_expected by name at import, so those are
    patched in cli as well as in strategies. np.linalg functions are looked
    up at call time, so patching the numpy.linalg module is enough.
    """
    import numpy as np
    from burkholder import (cli, harness, losses, potential, statistics,
                            strategies, symlin, verify)

    def trajectory_done(out):
        traj = out[0] if isinstance(out, tuple) else out
        rec.count("strategies.rounds", traj.n)
        rec.count("statistics.stored_bytes", sum(stat_nbytes(z) for z in traj.zetas))

    def report_done(rep):
        rec.count("verify.checks", int(rep.checks))

    spans = [
        (harness, ("matrix_completion", "random_vectors", "adversarial_gradient",
                   "load_sequence"), "harness.sequence", None),
        (harness, ("best_linear_comparator", "least_squares_comparator",
                   "comparator_grid"), "harness.comparator", None),
        (harness, ("bound_series", "build_report"), "harness.report", None),
        (harness.RegretReport, ("to_csv",), "harness.report", None),
        (symlin, ("sym_eigvals", "sym_eig"), "symlin.eigvals", None),
        (symlin, ("nuclear_projection",), "symlin.nuclear_projection", None),
        (losses.Loss, ("value", "subgradient"), "losses", None),
        (verify, ("check_p1",), "verify.p1", report_done),
        (verify, ("check_p2",), "verify.p2", report_done),
        (verify, ("check_p3",), "verify.p3", report_done),
        (verify, ("check_supermartingale", "check_necessity",
                  "check_matrix_khintchine", "check_mgf_bound"), "verify.tree",
         report_done),
    ]
    for name in ("eigvalsh", "svd", "solve", "slogdet"):
        spans.append((np.linalg, (name,), f"linalg.{name}", None))
    for name in ("predict_linearized", "predict_convex", "predict_randomized"):
        spans.append((strategies, (name,), f"strategies.{name}", None))
    for cls in _subclasses(potential.Potential):
        for attr, span in (("eval", "potentials.eval"),
                           ("residual", "potentials.residual"),
                           ("round_values", "potentials.round_values"),
                           ("stat_map", "potentials.stat_map"),
                           ("bound", "potentials.bound"),
                           ("regret_bound", "potentials.bound"),
                           ("comparator_bound", "potentials.bound"),
                           ("sample_statistic", "verify.sample_statistic")):
            spans.append((cls, (attr,), span, None))
    for cls in vars(statistics).values():
        if isinstance(cls, type) and cls.__module__ == statistics.__name__:
            spans.append((cls, ("__add__",), "statistics.add", None))

    targets = []
    for owner, attrs, span, hook in spans:
        for attr in attrs:
            if attr in vars(owner):
                targets.append((owner, attr, rec.wrap(span, vars(owner)[attr], hook)))
    for name in ("run_online", "run_randomized_expected"):
        wrapper = rec.wrap("strategies.run", vars(strategies)[name], trajectory_done)
        targets += [(strategies, name, wrapper), (cli, name, wrapper)]
    return targets


@contextlib.contextmanager
def patched(targets):
    """Install wrappers; on exit restore the originals and record in the
    yielded dict whether every attribute holds its original object again."""
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
    state = {"patched": len(targets), "restored": False}
    try:
        for owner, attr, wrapper in targets:
            setattr(owner, attr, wrapper)
        yield state
    finally:
        for owner, attr, orig in reversed(originals):
            setattr(owner, attr, orig)
        state["restored"] = all(vars(owner)[attr] is orig
                                for owner, attr, orig in originals)


def trace(workload, seed, out_prefix):
    import numpy as np

    import_s, build_s = setup(workload, seed)
    from burkholder import cli

    rec = Recorder()
    stdout, stderr = io.StringIO(), io.StringIO()
    with patched(layer_targets(rec)) as state:
        main = rec.wrap("cli.main", cli.main)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(workload.cli_args(seed))
    np.savez(out_prefix + ".npz",
             name=np.frombuffer(rec.name, dtype=np.int32),
             parent=np.frombuffer(rec.parent, dtype=np.int32),
             start=np.frombuffer(rec.start, dtype=np.float64),
             end=np.frombuffer(rec.end, dtype=np.float64))
    with open(out_prefix + ".json", "w") as fh:
        json.dump({"names": rec.names, "counters": rec.counters,
                   "import_s": import_s, "build_s": build_s, "code": code,
                   "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                   **state}, fh)


def main(argv):
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        setup(WORKLOADS[name], seed)
    elif mode == "trace":
        trace(WORKLOADS[name], seed, argv[3])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
