"""Desk-scale acceptance gate.

Nine checks, one test each: regret certificates on seeded runs, per-round
descent, the property suites over the full family catalog, exhaustive
sign-path inequalities, comparator-grid regret, randomized-strategy slack,
linear-algebra identities, and supermartingale checks on full trees. Heavy
run batches are computed once and shared between the tests that read them.
"""

import math
import time

import numpy as np

from burkholder import cli, symlin
from burkholder.harness import comparator_grid, matrix_completion, random_vectors
from burkholder.losses import make_loss
from burkholder.potentials import (MatrixPotential, ParamFreePotential,
                                   VawPotential, combine_convex, combine_min,
                                   standard_families)
from burkholder.strategies import run_online
from burkholder.verify import (PredictableTree, check_matrix_khintchine,
                               check_mgf_bound, check_p1, check_p2, check_p3,
                               check_supermartingale)
from dilation_oracle import split
from game_oracle import comparator_losses, round_descent
from tree_oracle import constant_tree

_cache = {}


def _matrix_runs():
    """100 seeded matrix-completion runs with their certificates and the
    per-round descent sups. The run/bound phase is timed; the descent scan
    (a diagnostic sweep, not part of playing the game) is not."""
    if "matrix" in _cache:
        return _cache["matrix"]
    loss = make_loss("absolute", B=1.0)
    P = MatrixPotential(10, 10, eta=0.2, r=1.0, L=1.0, B=1.0)
    records, elapsed = [], 0.0
    for i in range(100):
        rng = np.random.default_rng([3, i])
        t0 = time.perf_counter()
        seq = matrix_completion(500, 10, 10, rank=2, nuclear_radius=1.0,
                                noise=0.0, B=1.0, rng=rng)
        worst, scan_s = -math.inf, 0.0

        def scan(t, zeta_prev, rnd, zeta):
            nonlocal worst, scan_s
            s0 = time.perf_counter()
            worst = max(worst, round_descent(P, zeta_prev, rnd.x, rnd.y_hat,
                                             loss))
            scan_s += time.perf_counter() - s0

        traj = run_online(P, "linearized", seq, loss, on_round=scan)
        comp = comparator_losses(seq.xs, seq.ys, loss,
                                 seq.meta["planted"].reshape(-1))
        m_norm = float(np.linalg.eigvalsh(split(traj.final_statistic, 10)[1])[-1])
        bound = 0.5 * 0.2 * 1.0 * 1.0 * m_norm + math.log(20.0) / 0.2
        elapsed += time.perf_counter() - t0 - scan_s
        records.append({"regret": traj.cumulative_loss - float(comp.sum()),
                        "comp_total": float(comp.sum()),
                        "bound": bound,
                        "v_final": P.bound(traj.final_statistic),
                        "max_u_step": float(np.max(np.diff(traj.potential_values))),
                        "max_descent": worst})
    _cache["matrix"] = {"records": records, "elapsed": elapsed}
    return _cache["matrix"]


def _param_free_runs():
    if "param_free" in _cache:
        return _cache["param_free"]
    loss = make_loss("absolute", B=1.0)
    P = ParamFreePotential(n=500, d=10, c=1.0, B=1.0)
    records = []
    for i in range(100):
        rng = np.random.default_rng([7, i])
        seq = random_vectors(500, 10, radius=1.0, noise=0.1, B=1.0, rng=rng)
        worst = -math.inf

        def scan(t, zeta_prev, rnd, zeta):
            nonlocal worst
            worst = max(worst, round_descent(P, zeta_prev, rnd.x, rnd.y_hat,
                                             loss, t=t))

        traj = run_online(P, "linearized", seq, loss, on_round=scan)
        records.append({"xs": seq.xs, "ys": seq.ys,
                        "cum": traj.cumulative_loss,
                        "max_u_step": float(np.max(np.diff(traj.potential_values))),
                        "max_descent": worst})
    _cache["param_free"] = {"records": records, "P": P}
    return _cache["param_free"]


def _vaw_runs():
    if "vaw" in _cache:
        return _cache["vaw"]
    loss = make_loss("squared", B=1.0)
    P = VawPotential(d=3, rho=2.0, lam=1.0, B=1.0)
    records = []
    for i in range(100):
        rng = np.random.default_rng([13, i])
        seq = random_vectors(50, 3, noise=0.1, B=1.0, rng=rng)
        traj = run_online(P, "convex", seq, loss)
        records.append({"xs": seq.xs, "ys": seq.ys,
                        "cum": traj.cumulative_loss,
                        "stat": traj.final_statistic})
    _cache["vaw"] = {"records": records, "P": P, "loss": loss}
    return _cache["vaw"]


def test_matrix_regret_certificate():
    """Regret against the planted comparator never exceeds the spectral
    variance bound, on any of 100 seeded 500-round completion runs."""
    data = _matrix_runs()
    assert data["elapsed"] <= 120.0
    for rec in data["records"]:
        assert rec["comp_total"] <= 1e-12  # noiseless oracle comparator
        assert rec["regret"] <= rec["bound"] + 1e-6
        assert rec["v_final"] <= 1e-9


def test_per_round_descent():
    """The potential never increases between rounds, and the played
    prediction keeps the exact sup over labels below the pre-round value,
    on every matrix and coin-betting run."""
    matrix = _matrix_runs()["records"]
    pf = _param_free_runs()["records"]
    assert len(matrix) == len(pf) == 100
    for rec in matrix + pf:
        assert rec["max_u_step"] <= 1e-8
        assert rec["max_descent"] <= 1e-8


def test_property_suites_across_the_catalog():
    """Start-value, bound-domination, and restricted-concavity checks at
    10^4 trials per family; an undercharged matrix potential must fail
    with an inspectable witness."""
    fams = standard_families(B=1.0)
    assert len(fams) == 7
    for idx, name in enumerate(sorted(fams)):
        P = fams[name]
        rng = np.random.default_rng([29, idx])
        r1 = check_p1(P)
        assert r1.passed, r1.line()
        r2 = check_p2(P, trials=10000, rng=rng)
        assert r2.passed, r2.line()
        r3 = check_p3(P, mode="two_point", trials=10000, rng=rng)
        assert r3.passed, r3.line()
    bad = MatrixPotential(3, 2, eta=0.5)
    bad.c = 0.5 * math.log(5)  # half of the derived c = r log(d1+d2)
    rep = check_p1(bad)
    assert not rep.passed
    assert rep.witness["value"] > 0.1


def test_matrix_khintchine_exhaustive():
    """Exact sign-path expectation of the spectral norm stays below the
    square-function bound on random predictable trees and on fixed
    sequences, within a minute."""
    t0 = time.perf_counter()
    rep = check_matrix_khintchine(n=10, d1=3, d2=2, n_trees=100,
                                  rng=np.random.default_rng([17]))
    assert rep.passed, rep.line()
    assert rep.checks == 100
    rng = np.random.default_rng([17, 1])
    fixed = []
    for _ in range(100):
        mats = []
        for _ in range(10):
            x = rng.normal(size=(3, 2))
            mats.append(x / max(np.linalg.svd(x, compute_uv=False)[0], 1.0))
        fixed.append(constant_tree(mats))
    rep_fixed = check_matrix_khintchine(trees=fixed)
    assert rep_fixed.passed, rep_fixed.line()
    assert rep_fixed.checks == 100
    assert max(rep_fixed.extras["ratios"]) <= 1.0 + 1e-9
    assert time.perf_counter() - t0 <= 60.0


def test_mgf_bound_exhaustive():
    """E exp(||sum eps x||^2 / 2n) <= sqrt(n), exact over all sign paths for
    n = 8..14; below the crossover the ratios are recorded, not asserted."""
    small = {}
    for n in range(1, 4):
        rep = check_mgf_bound(n=n, d=4, n_trees=50,
                              rng=np.random.default_rng([19, n]))
        assert rep.passed and not rep.extras["asserted"]
        small[n] = rep.witness["ratio"]
    assert small[1] > 1.0  # the bound genuinely fails at n = 1
    for n in range(8, 15):
        rep = check_mgf_bound(n=n, d=4, n_trees=50,
                              rng=np.random.default_rng([19, n]))
        assert rep.passed and rep.extras["asserted"], rep.line()
        assert rep.max_violation <= 1e-9
    print("unasserted small-horizon ratios: "
          + ", ".join(f"n={k}: {v:.4f}" for k, v in sorted(small.items())))


def test_param_free_and_vaw_comparator_regret():
    """regret(w) <= A(w) for every comparator on a 50-point grid (radii
    10^-2..10^2) over the coin-betting runs, and for 50 gaussian
    comparators per ridge-regression run."""
    pf = _param_free_runs()
    loss = make_loss("absolute", B=1.0)
    radii = np.logspace(-2, 2, 50)
    for rec in pf["records"]:
        grid = comparator_grid(rec["xs"], rec["ys"], loss, radii=radii)
        assert len(grid) == 50
        for comp in grid:
            regret = rec["cum"] - comp.total_loss
            assert regret <= pf["P"].regret_bound(pf["P"].zero(), comp.w) + 1e-6
    vaw = _vaw_runs()
    for i, rec in enumerate(vaw["records"]):
        rng = np.random.default_rng([31, i])
        xs = np.stack(rec["xs"])
        for _ in range(50):
            w = rng.normal(size=3)
            comp_total = float(np.sum(vaw["loss"].value(xs @ w, rec["ys"])))
            regret = rec["cum"] - comp_total
            assert regret <= vaw["P"].regret_bound(rec["stat"], w) + 1e-6


def test_randomized_strategy_slack(tmp_path, capsys):
    """The grid-plus-solver strategy tracks the exact linearized play to
    within eps1 * sum K_t + eps2 * n mean loss over 20 repetitions."""
    cfg = tmp_path / "compare.txt"
    cfg.write_text("family = matrix\nd1 = 5\nd2 = 5\neta = 0.2\nn = 100\n"
                   "loss = absolute\neps1 = 0.05\neps2 = 0.05\nseed = 11\n")
    rc = cli.main(["compare", "--config", str(cfg), "--trials", "20"])
    out, _ = capsys.readouterr()
    assert rc == 0, out
    gap_line = next(l for l in out.splitlines() if l.startswith("gap="))
    gap = float(gap_line.split()[0].split("=")[1])
    slack = float(gap_line.split()[1].split("=")[1])
    # K_t = L = 1 for the linearizable matrix family
    assert slack == 100 * (1.0 * 0.05 + 0.05)
    assert gap <= slack + 1e-6
    assert "-> pass" in gap_line


def test_linear_algebra_identities():
    """Dilation spectrum, its square, log-trace-exp monotonicity, and
    nuclear projection fixed points, each on 10^3 random draws."""
    rng = np.random.default_rng([37])
    shapes = [(3, 2), (4, 4), (5, 3), (2, 6)]
    for k in range(1000):
        x = rng.normal(size=shapes[k % 4]) * rng.uniform(0.1, 2.0)
        d, d2 = split(symlin.dilation_step(x, 1.0), x.shape[0])
        assert abs(symlin.sym_eigvals(d)[0] - symlin.spectral_norm(x)) <= 1e-10
        assert np.max(np.abs(d2 - d @ d)) <= 1e-10
    for _ in range(1000):
        a = rng.normal(size=(5, 5))
        a = (a + a.T) / 2
        g = rng.normal(size=(5, 2))
        assert (symlin.logsumexp(symlin.sym_eigvals(a))
                <= symlin.logsumexp(symlin.sym_eigvals(a + g @ g.T)) + 1e-10)
    for _ in range(1000):
        x = rng.normal(size=(4, 3))
        y = symlin.nuclear_projection(x, 1.5)
        assert np.max(np.abs(symlin.nuclear_projection(y, 1.5) - y)) <= 1e-10
    proj = symlin.nuclear_projection(np.diag([3.0, 1.0]), 2.0)
    assert np.max(np.abs(proj - np.diag([2.0, 0.0]))) <= 1e-12


def test_supermartingale_trees_and_combinations():
    """Exact node-by-node supermartingale checks on full depth-10 trees for
    the matrix, coin-betting, and softmax-aggregated families; pointwise
    min and convex mixtures of passing potentials keep the properties."""
    rng = np.random.default_rng([23, 0])
    matrix = MatrixPotential(3, 2, eta=0.5)
    tree = PredictableTree.random(10, matrix.sample_instances, rng)
    rep = check_supermartingale(matrix, tree)
    assert rep.passed and rep.checks == 2 ** 10 - 1, rep.line()

    pf = ParamFreePotential(n=10, d=5, c=1.0)
    tree = PredictableTree.random(10, pf.sample_instances,
                                  np.random.default_rng([23, 1]))
    rep = check_supermartingale(pf, tree)
    assert rep.passed, rep.line()

    meta = standard_families(B=1.0)["meta"]
    tree = PredictableTree.random(10, meta.sample_instances,
                                  np.random.default_rng([23, 2]))
    rep = check_supermartingale(meta, tree)
    assert rep.passed, rep.line()

    m1 = MatrixPotential(3, 2, eta=0.5)
    m2 = MatrixPotential(3, 2, eta=0.25)
    for combo in (combine_min([m1, m2]), combine_convex([m1, m2], [0.3, 0.7])):
        rng = np.random.default_rng([23, 3])
        assert check_p1(combo).passed
        rep = check_p3(combo, mode="two_point", trials=2000, rng=rng)
        assert rep.passed, rep.line()
