"""Output checks for one CLI invocation.

check_output returns a list of problems; an invocation with any problem (or
a nonzero exit code) counts as failed. Every seed is checked for the
program's own verdicts and for invariants recomputed from the output. On
REFERENCE_SEED the deterministic outputs are also compared with references
stored from the seed commit, to within 1e-9.
"""

import math
import re

from workloads import REFERENCE, REFERENCE_SEED

TOL = 1e-9
CSV_HEADER = "round,loss,cum_loss,comp_loss,regret,bound,potential"
CERT_RE = re.compile(r"^certificate V=\S+ tol=\S+( randomized_slack=\S+)? -> (pass|FAIL)$")
COMPARE_RE = re.compile(
    r"^strategy=(\w+) (mean_loss|mean_expected_loss)=(\S+) "
    r"mean_certificate=(\S+) reps=(\d+)$")
GAP_RE = re.compile(r"^gap=\S+ slack=\S+( \(lipschitz estimated\))? vs \w+ -> (pass|FAIL)$")
VERIFY_RE = re.compile(r"^(pass|FAIL) (\S+): checks=(\d+) max_violation=\S+ tol=\S+$")

REFERENCE_FILES = {
    "matrix_run": "matrix_run.csv",
    "vaw_compare": "vaw_compare.txt",
    "verify_all": "verify_all.txt",
}


def close(a, b):
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


def load_reference(workload):
    return (REFERENCE / REFERENCE_FILES[workload]).read_text()


def parse_csv(text):
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or wrong CSV header")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if not rows or any(len(r) != 7 for r in rows):
        raise ValueError("CSV rows must have 7 columns")
    return rows


def check_run(seed, stdout, stderr):
    try:
        rows = parse_csv(stdout)
    except ValueError as exc:
        return [f"run CSV: {exc}"]
    problems = []
    for prev, row in zip(rows, rows[1:]):
        if row[6] - prev[6] > TOL:
            problems.append(f"potential rises by {row[6] - prev[6]:.3e} at round {row[0]:g}")
            break
    for row in rows:
        if row[4] > row[5]:
            problems.append(f"regret {row[4]!r} > bound {row[5]!r} at round {row[0]:g}")
            break
    certs = [m for m in map(CERT_RE.match, stderr.splitlines()) if m]
    if len(certs) != 1 or certs[0].group(2) != "pass":
        problems.append("certificate verdict missing or not pass")
    if seed == REFERENCE_SEED:
        ref = parse_csv(load_reference("matrix_run"))
        if len(ref) != len(rows):
            problems.append(f"{len(rows)} CSV rows, reference has {len(ref)}")
        else:
            bad = [(r[0], j) for r, q in zip(rows, ref) for j in range(7)
                   if not close(r[j], q[j])]
            if bad:
                problems.append(f"{len(bad)} CSV cells differ from the reference, "
                                f"first at (round, column) {bad[0]}")
    return problems


def parse_compare(text):
    lines = text.splitlines()
    strat = {m.group(1): m for m in map(COMPARE_RE.match, lines) if m}
    gaps = [m for m in map(GAP_RE.match, lines) if m]
    return strat, gaps, len(lines)


def check_compare(seed, stdout, stderr):
    strat, gaps, n_lines = parse_compare(stdout)
    problems = []
    if set(strat) != {"convex", "randomized"} or len(gaps) != 1 or n_lines != 3:
        return ["compare output is not one convex, one randomized and one gap line"]
    # randomized draws may legitimately move: judged by the gap verdict only
    if gaps[0].group(2) != "pass":
        problems.append("gap verdict is not pass")
    if seed == REFERENCE_SEED:
        ref = parse_compare(load_reference("vaw_compare"))[0]["convex"]
        got = strat["convex"]
        if got.group(2) != ref.group(2) or got.group(5) != ref.group(5) or not (
                close(float(got.group(3)), float(ref.group(3)))
                and close(float(got.group(4)), float(ref.group(4)))):
            problems.append("convex line differs from the reference")
    return problems


def parse_verify(text):
    lines = [line for line in text.splitlines() if not line.startswith("  witness:")]
    matches = [VERIFY_RE.match(line) for line in lines]
    if not lines or not all(matches):
        raise ValueError("unrecognized verify report line")
    return [(m.group(2), m.group(1), int(m.group(3))) for m in matches]


def check_verify(seed, stdout, stderr):
    try:
        got = parse_verify(stdout)
    except ValueError as exc:
        return [f"verify: {exc}"]
    ref = parse_verify(load_reference("verify_all"))
    problems = [f"{name} -> {verdict}" for name, verdict, _ in got if verdict != "pass"]
    if [g[0] for g in got] != [r[0] for r in ref]:
        problems.append("verify report names differ from the reference")
    elif seed == REFERENCE_SEED and got != ref:
        problems.append("verify verdicts or checks= counts differ from the reference")
    return problems


CHECKS = {
    "matrix_run": check_run,
    "vaw_compare": check_compare,
    "verify_all": check_verify,
}


def check_output(workload, seed, code, stdout, stderr):
    """Problems with one invocation's result; empty when it is correct."""
    problems = [] if code == 0 else [f"exit code {code}"]
    return problems + CHECKS[workload](seed, stdout, stderr)
