"""Tests for the benchmark itself.

    python3 perfbench/selftest.py

Kept out of the repository's pytest suite on purpose: the traced-run tests
spawn the three workloads twice each (about a minute and a half).
"""

import contextlib
import io
import shutil
import subprocess
import sys
import unittest
import unittest.mock
from types import SimpleNamespace

import child
import run
from checks import REFERENCE_SEED, check_output, load_reference
from workloads import BENCH_DIR, OUT, ROOT, WORKLOADS

CERT_PASS = "certificate V=-23.8984 tol=1e-06 -> pass\n"
OTHER_SEED = REFERENCE_SEED + 7


def reference_outputs(name):
    """(stdout, stderr) of a correct invocation at REFERENCE_SEED."""
    return load_reference(name), CERT_PASS if name == "matrix_run" else ""


def replace_cell(csv_text, row, col, value):
    lines = csv_text.splitlines(keepends=True)
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[col] = repr(value)
    lines[row + 1] = ",".join(cells) + "\n"
    return "".join(lines)


def corruptions():
    """(label, workload, seed, code, stdout, stderr) of outputs that must fail."""
    csv, cert = reference_outputs("matrix_run")
    rows = [line.split(",") for line in csv.splitlines()[1:]]
    cmp_out, _ = reference_outputs("vaw_compare")
    ver_out, _ = reference_outputs("verify_all")
    pot_100 = float(rows[100][6])
    bound_50 = float(rows[50][5])
    yield "perturbed CSV cell", "matrix_run", REFERENCE_SEED, 0, \
        replace_cell(csv, 120, 3, float(rows[120][3]) + 1e-6), cert
    yield "rising potential", "matrix_run", OTHER_SEED, 0, \
        replace_cell(csv, 101, 6, pot_100 + 1e-6), cert
    yield "regret above bound", "matrix_run", OTHER_SEED, 0, \
        replace_cell(csv, 50, 4, bound_50 + 1e-3), cert
    yield "flipped certificate", "matrix_run", OTHER_SEED, 0, \
        csv, cert.replace("-> pass", "-> FAIL")
    yield "truncated CSV", "matrix_run", OTHER_SEED, 0, csv[: len(csv) // 2] + "1,2\n", cert
    yield "flipped gap verdict", "vaw_compare", OTHER_SEED, 0, \
        cmp_out.replace("-> pass", "-> FAIL"), ""
    yield "perturbed convex line", "vaw_compare", REFERENCE_SEED, 0, \
        cmp_out.replace("mean_loss=6.07137", "mean_loss=6.07138"), ""
    yield "missing randomized line", "vaw_compare", OTHER_SEED, 0, \
        "\n".join(line for line in cmp_out.splitlines()
                  if "randomized" not in line) + "\n", ""
    yield "flipped verify verdict", "verify_all", OTHER_SEED, 0, \
        ver_out.replace("pass vaw.p2", "FAIL vaw.p2"), ""
    yield "changed checks= count", "verify_all", REFERENCE_SEED, 0, \
        ver_out.replace("checks=255", "checks=254", 1), ""
    yield "missing verify line", "verify_all", OTHER_SEED, 0, \
        "".join(ver_out.splitlines(keepends=True)[1:]), ""
    yield "wrong exit code", "verify_all", OTHER_SEED, 1, ver_out, ""


class OutputChecks(unittest.TestCase):
    def test_reference_outputs_pass(self):
        for name in WORKLOADS:
            out, err = reference_outputs(name)
            for seed in (REFERENCE_SEED, OTHER_SEED):
                self.assertEqual(check_output(name, seed, 0, out, err), [], name)

    def test_corrupted_outputs_fail(self):
        for label, name, seed, code, out, err in corruptions():
            with self.subTest(label):
                self.assertNotEqual(check_output(name, seed, code, out, err), [])

    def test_corrupted_invocations_are_counted_as_failed(self):
        """run.py's own loop counts a corrupted invocation as failed."""
        usage = SimpleNamespace(ru_maxrss=1024, ru_utime=0.1, ru_stime=0.0)
        for label, name, seed, code, out, err in corruptions():
            def fake_spawn(argv, tag, result=(code, out, err)):
                if tag == "setup":
                    return 0, 0.01, usage, "", ""
                return result[0], 0.02, usage, result[1], result[2]
            with self.subTest(label), unittest.mock.patch.object(run, "spawn", fake_spawn), \
                    contextlib.redirect_stdout(io.StringIO()):
                samples, failed = run.end_to_end(name, seed, 0.0)
                self.assertEqual(failed, len(samples["wall_s"]))
        good_out, good_err = reference_outputs("verify_all")
        with unittest.mock.patch.object(
                run, "spawn", lambda argv, tag: (0, 0.02, usage, good_out, good_err)):
            self.assertEqual(run.end_to_end("verify_all", REFERENCE_SEED, 0.0)[1], 0)


class Tracing(unittest.TestCase):
    def test_wrappers_are_removed(self):
        import numpy as np
        from burkholder import cli, strategies
        before = (np.linalg.eigvalsh, cli.run_online, strategies.run_online)
        targets = child.layer_targets(child.Recorder())
        with child.patched(targets) as state:
            self.assertIsNot(np.linalg.eigvalsh, before[0])
            self.assertIs(cli.run_online, strategies.run_online)
        self.assertTrue(state["restored"])
        self.assertEqual((np.linalg.eigvalsh, cli.run_online, strategies.run_online),
                         before)

    def test_traced_counts_repeat_and_outputs_match(self):
        """Two traced runs per workload: counts equal, outputs equal to the
        untraced run, wrappers removed (all checked inside run.traced)."""
        run.check_layout()
        for name in WORKLOADS:
            with self.subTest(name):
                metrics, _, attempted, failed = run.traced(name, REFERENCE_SEED, 0.0)
                self.assertEqual((attempted, failed), (run.MIN_TRACED, 0))
                self.assertGreater(metrics["potentials.eval_calls"], 0)
        # the counts later claims rest on are nonzero where the workload uses them
        first = run.traced_once("vaw_compare", REFERENCE_SEED, 0)[1]
        second = run.traced_once("vaw_compare", REFERENCE_SEED, 1)[1]
        counts = [k for k in first if run.is_count(k)]
        self.assertEqual([first[k] for k in counts], [second[k] for k in counts])
        self.assertEqual(first["strategies.rounds"], 160)
        self.assertGreater(first["linalg.solve_calls"], 0)
        self.assertEqual(first["linalg.eigvalsh_calls"], 0)


class Layout(unittest.TestCase):
    def test_fails_without_the_program(self):
        """In a directory holding only BENCHMARK.json and the benchmark, the
        benchmark exits nonzero without printing a result."""
        bare = OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        if (ROOT / "BENCHMARK.json").exists():
            shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "matrix_run",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
