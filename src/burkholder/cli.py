"""Command line front end.

Subcommands: run (play a game, emit a regret CSV), verify (certify potential
properties and martingale inequalities), compare (strategy head-to-head).
Exit codes: 0 all checks passed, 1 a check or certificate failed, 2 usage or
configuration error.
"""

import argparse
import math
import sys
import zlib

import numpy as np

from . import harness, verify
from .errors import ConfigError, DomainError, NumericError, TagMismatchError
from .losses import make_loss
from .potentials import (AdaGradPotential, MatrixPotential, ParamFreePotential,
                         VawPotential, matrix_meta, standard_families)
from .strategies import RANDOMIZED_EPS, STRATEGIES, run_online, run_randomized_expected

SUITES = ("p1", "p2", "p3", "khintchine", "mgf", "supermartingale",
          "necessity", "all")

_STR_KEYS = {"family", "loss", "strategy", "sequence", "data_csv", "variant",
             "comparator", "comparator_ball"}
_INT_KEYS = {"n", "d", "d1", "d2", "rank", "seed", "comparator_iters",
             "depth", "trials"}
_FLOAT_KEYS = {"B", "eta", "r", "c", "p", "lam", "nuclear_radius",
               "noise", "skew", "radius", "eps1", "eps2", "comparator_radius"}
_KNOWN_KEYS = _STR_KEYS | _INT_KEYS | _FLOAT_KEYS
_MINIMUM = {"n": 1, "d": 1, "d1": 1, "d2": 1, "trials": 1, "depth": 1, "rank": 0,
            "seed": 0, "noise": 0, "skew": 0, "radius": 0, "nuclear_radius": 0,
            "comparator_iters": 0, "eps2": 0, "p": 2}
_POSITIVE = {"eta", "r", "c", "lam", "B", "eps1"}


def parse_config(path):
    """Flat key = value file; # starts a comment, blank lines are skipped,
    and a key may appear once."""
    cfg, seen = {}, {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: {key} already set on line {seen[key]}")
        seen[key] = lineno
        try:
            if key in _INT_KEYS:
                cfg[key] = int(val)
            elif key in _FLOAT_KEYS:
                cfg[key] = float(val)
            else:
                cfg[key] = val
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
        if key in _FLOAT_KEYS and not math.isfinite(cfg[key]):
            raise ConfigError(f"{path}:{lineno}: {key} = {val!r} is not finite")
        if key in _MINIMUM and cfg[key] < _MINIMUM[key]:
            raise ConfigError(f"{path}:{lineno}: {key} = {cfg[key]}, "
                              f"need {key} >= {_MINIMUM[key]}")
        if key in _POSITIVE and cfg[key] <= 0:
            raise ConfigError(f"{path}:{lineno}: {key} = {cfg[key]}, need {key} > 0")
        if key == "strategy" and val not in STRATEGIES:
            raise ConfigError(f"{path}:{lineno}: unknown strategy {val!r}; "
                              f"expected one of {STRATEGIES}")
    if "c" in cfg and cfg.get("family") != "param_free":
        raise ConfigError(f"{path}:{seen['c']}: c needs family = param_free; "
                          "the other families derive it")
    return cfg


def _seed(args, cfg):
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    if seed < 0:
        raise ConfigError(f"seed = {seed}, need seed >= 0")
    return seed


def _require(cfg, key, context):
    if key not in cfg:
        raise ConfigError(f"{context} needs config key {key}")
    return cfg[key]


def build_loss(cfg):
    return make_loss(cfg.get("loss", "absolute"), B=cfg.get("B", 1.0))


def build_potential(cfg, loss, n):
    fam = _require(cfg, "family", "this command")
    if fam == "param_free":
        if abs(loss.L - 1.0) > 1e-12:
            raise ConfigError("param_free needs a loss with subgradient bound L = 1")
        return ParamFreePotential(n=n, d=_require(cfg, "d", "family param_free"),
                                  p=cfg.get("p"), c=cfg.get("c", 1.0), B=loss.B)
    if fam in ("matrix", "meta"):
        P = MatrixPotential(_require(cfg, "d1", f"family {fam}"),
                            _require(cfg, "d2", f"family {fam}"),
                            eta=_require(cfg, "eta", f"family {fam}"),
                            r=cfg.get("r", 1.0), L=loss.L, B=loss.B)
        return P if fam == "matrix" else matrix_meta(P)
    if fam == "adagrad":
        return AdaGradPotential(_require(cfg, "d", "family adagrad"),
                                variant=cfg.get("variant", "l2"), L=loss.L, B=loss.B)
    if fam == "vaw":
        if loss.kind != "squared":
            raise ConfigError("vaw needs loss = squared")
        return VawPotential(_require(cfg, "d", "family vaw"), rho=loss.rho,
                            lam=cfg.get("lam", 1.0), L=loss.L, B=loss.B)
    raise ConfigError(f"unknown family {fam!r}")


def _matrix_family(fam):
    return fam in ("matrix", "meta")


def build_sequence(cfg, rng):
    """Sequence described by the config, plus the round count."""
    fam = cfg.get("family", "")
    B = cfg.get("B", 1.0)
    if "data_csv" in cfg:
        seq = harness.load_sequence(cfg["data_csv"], d1=cfg.get("d1"),
                                    d2=cfg.get("d2"))
        n = cfg.get("n", len(seq))
        if n < 1:
            raise ConfigError(f"{cfg['data_csv']}: n = {n}, need n >= 1")
        if n > len(seq):
            raise ConfigError(f"n = {n} exceeds the {len(seq)} rows in data_csv")
        if seq.kind == "random_vectors" and "d" in cfg and seq.xs[0].size != cfg["d"]:
            raise ConfigError(f"{cfg['data_csv']} has {seq.xs[0].size} features, "
                              f"need d = {cfg['d']}")
        seq = harness.Sequence(seq.kind, seq.xs[:n], seq.ys[:n], seq.meta)
        for row, y in enumerate(seq.ys, start=1):
            if not abs(y) <= B:
                raise ConfigError(f"{cfg['data_csv']}: row {row} has label "
                                  f"y = {float(y)!r} outside [-B, B], B = {B:g}")
    else:
        n = _require(cfg, "n", "sequence generation")
        kind = cfg.get("sequence",
                       "matrix_completion" if _matrix_family(fam) else "random_vectors")
        if kind == "matrix_completion":
            seq = harness.matrix_completion(
                n, _require(cfg, "d1", "matrix_completion"),
                _require(cfg, "d2", "matrix_completion"),
                rank=cfg.get("rank", 1),
                nuclear_radius=cfg.get("nuclear_radius", cfg.get("r", 1.0)),
                noise=cfg.get("noise", 0.0), skew=cfg.get("skew", 0.0),
                B=B, rng=rng)
        elif kind == "random_vectors":
            seq = harness.random_vectors(
                n, _require(cfg, "d", "random_vectors"),
                radius=cfg.get("radius", 1.0), noise=cfg.get("noise", 0.1),
                B=B, rng=rng)
        elif kind == "adversarial_gradient":
            seq = harness.adversarial_gradient(
                n, _require(cfg, "d", "adversarial_gradient"), B=B, rng=rng)
        else:
            raise ConfigError(f"unknown sequence kind {kind!r}")
    matrix_seq = seq.kind == "matrix_completion"
    if _matrix_family(fam) != matrix_seq:
        want = "a matrix sequence" if _matrix_family(fam) else "a vector sequence"
        raise ConfigError(f"family {fam} needs {want}")
    return seq, len(seq)


def build_comparator(cfg, fam, seq, loss):
    mode = cfg.get("comparator", "auto")
    if mode == "zero":
        return harness.best_linear_comparator(seq.xs, seq.ys, loss, radius=0.0, iters=0)
    if mode == "grid" or (mode == "auto" and fam == "param_free"):
        return harness.comparator_grid(seq.xs, seq.ys, loss)[0]
    if mode == "least_squares" or (mode == "auto" and fam == "vaw"):
        return harness.least_squares_comparator(seq.xs, seq.ys, loss)
    if mode in ("auto", "ball"):
        if _matrix_family(fam):
            ball = cfg.get("comparator_ball", "nuclear")
            radius = cfg.get("comparator_radius", cfg.get("r", 1.0))
        else:
            ball = cfg.get("comparator_ball", "l2")
            radius = cfg.get("comparator_radius", 1.0)
        return harness.best_linear_comparator(
            seq.xs, seq.ys, loss, ball=ball, radius=radius,
            iters=cfg.get("comparator_iters", 2000))
    raise ConfigError(f"unknown comparator mode {mode!r}")


def _randomized_slack(P, loss, n, eps1, eps2, rng, like):
    """The a-priori slack n (K eps1 + eps2), K, and whether K is estimated,
    at the zero statistic of a run on instances like `like`; an estimated K
    reads one instance drawn from rng."""
    k, estimated = P.prediction_lipschitz(P.zero(like=like), lambda: P.sample_instance(rng),
                                          loss, t=1)
    return n * (k * eps1 + eps2), k, estimated


def cmd_run(args):
    cfg = parse_config(args.config)
    seed = _seed(args, cfg)
    rng = np.random.default_rng(seed)
    loss = build_loss(cfg)
    seq, n = build_sequence(cfg, rng)
    P = build_potential(cfg, loss, n)
    fam = cfg["family"]
    strategy = cfg.get("strategy", "linearized")
    if strategy == "linearized" and not P.linearizable:
        raise ConfigError(f"strategy linearized needs a linearizable family; "
                          f"{fam} is not, use convex or randomized")
    eps1 = cfg.get("eps1", RANDOMIZED_EPS)
    eps2 = cfg.get("eps2", RANDOMIZED_EPS)
    slack, k, estimated = 0.0, None, False
    if strategy == "randomized":
        slack, k, estimated = _randomized_slack(P, loss, n, eps1, eps2,
                                                np.random.default_rng(0), seq.xs[0])
    # the comparator is deterministic and draws nothing from rng, so building
    # it first lets the bound column fill while the run goes
    comp = build_comparator(cfg, fam, seq, loss)
    bounds = [P.regret_bound(P.zero(like=seq.xs[0]), comp.w)]
    traj = run_online(P, strategy, seq, loss, rng=rng, eps1=eps1,
                      on_round=lambda t, zeta_prev, rnd, zeta:
                      bounds.append(P.regret_bound(zeta, comp.w)))
    report = harness.build_report(traj, comp.per_round, bounds)
    v_final = P.bound(traj.final_statistic)
    cert_ok = v_final <= verify.TOL + slack

    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(report.to_csv())
        info = sys.stdout
    else:
        sys.stdout.write(report.to_csv())
        info = sys.stderr
    print(f"family={fam} strategy={strategy} rounds={n} seed={seed}", file=info)
    print(f"final_loss={report.final[2]:.6g} comparator_loss={comp.total_loss:.6g} "
          f"regret={report.final_regret:.6g} bound={report.final_bound:.6g}",
          file=info)
    verdict = "pass" if cert_ok else "FAIL"
    extra = f" randomized_slack={slack:.6g}" if slack else ""
    print(f"certificate V={v_final:.6g} tol={verify.TOL:g}{extra} -> {verdict}", file=info)
    if estimated:
        print(f"randomized_slack uses an estimated Lipschitz constant K={k:.6g}", file=info)
    return 0 if cert_ok else 1


def _verify_zoo(cfg, args):
    if args.negative_control:
        broken = MatrixPotential(3, 2, eta=0.5, B=1.0)
        broken.c = 0.5 * math.log(5)  # half of the derived c = r log(d1+d2)
        return {"matrix_undercharged": broken}
    if cfg and "family" in cfg:
        loss = build_loss(cfg)
        n = cfg.get("n", 16)
        return {cfg["family"]: build_potential(cfg, loss, n)}
    return standard_families(B=cfg.get("B", 1.0) if cfg else 1.0)


def _print_report(rep, lines):
    lines.append(rep.line())
    if not rep.passed and rep.witness:
        brief = {k: v for k, v in rep.witness.items()
                 if isinstance(v, (int, float, str, tuple))}
        lines.append(f"  witness: {brief}")


def cmd_verify(args):
    cfg = parse_config(args.config) if args.config else {}
    seed = _seed(args, cfg)
    suite = args.suite
    depth = cfg.get("depth", 8)
    if args.trials is not None and args.trials < 1:
        raise ConfigError(f"--trials {args.trials}, need --trials >= 1")
    trials = args.trials if args.trials is not None else cfg.get("trials")
    lines, reports = [], []

    if args.negative_control and "family" in cfg:
        raise ConfigError(f"--negative-control checks its own mutant, not family {cfg['family']!r}")
    if args.negative_control and suite not in ("p1", "necessity", "all"):
        raise ConfigError("negative control is defined for the suites a mutant "
                          "breaks (p1, necessity, all)")

    if suite in ("p1", "p2", "p3", "supermartingale", "all"):
        run_all = suite == "all"
        for name, P in _verify_zoo(cfg, args).items():
            rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
            if run_all or suite == "p1":
                reports.append((name, verify.check_p1(P)))
            if run_all or suite == "p2":
                reports.append((name, verify.check_p2(P, trials=trials or 1000, rng=rng)))
            if run_all or suite == "p3":
                reports.append((name, verify.check_p3(P, mode="two_point",
                                                      trials=trials or 2000, rng=rng)))
                if P.convex_in_delta:
                    reports.append((name, verify.check_p3(P, mode="rademacher",
                                                          trials=trials or 2000, rng=rng)))
            if run_all or suite == "supermartingale":
                tree = verify.PredictableTree.random(depth, P.sample_instances, rng)
                reports.append((name, verify.check_supermartingale(P, tree)))

    if suite in ("khintchine", "all") and not args.negative_control:
        rng = np.random.default_rng([seed, 1])
        reports.append(("sign_sums", verify.check_matrix_khintchine(
            n=depth, d1=cfg.get("d1", 3), d2=cfg.get("d2", 2),
            n_trees=trials or 20, rng=rng)))

    if suite in ("mgf", "all") and not args.negative_control:
        rng = np.random.default_rng([seed, 2])
        reports.append(("sign_sums", verify.check_mgf_bound(
            n=depth, d=cfg.get("d", 4), n_trees=trials or 20, rng=rng)))

    if suite in ("necessity", "all"):
        rng = np.random.default_rng([seed, 3])
        P = MatrixPotential(cfg.get("d1", 2), cfg.get("d2", 2), eta=cfg.get("eta", 0.5),
                            r=cfg.get("r", 1.0), B=cfg.get("B", 1.0))
        tree = verify.PredictableTree.random(depth, P.sample_instances, rng)
        reports.append(("matrix", verify.check_necessity(
            P, tree, clairvoyant=args.negative_control)))

    failed = False
    for name, rep in reports:
        rep.name = f"{name}.{rep.name}"
        _print_report(rep, lines)
        failed = failed or not rep.passed
    text = "\n".join(lines) + ("\n" if lines else "")
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 1 if failed else 0


def cmd_compare(args):
    cfg = parse_config(args.config)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    for i, s in enumerate(strategies):
        if s not in STRATEGIES:
            raise ConfigError(f"unknown strategy {s!r}; expected one of {STRATEGIES}")
        if s in strategies[:i]:
            raise ConfigError(f"strategy {s!r} is listed twice in --strategies")
    if not strategies:
        raise ConfigError("compare needs at least one strategy")
    seed = _seed(args, cfg)
    reps = args.trials if args.trials is not None else cfg.get("trials", 20)
    if reps < 1:
        raise ConfigError(f"trials = {reps}, compare needs at least one repetition")
    loss = build_loss(cfg)
    eps1 = cfg.get("eps1", RANDOMIZED_EPS)
    eps2 = cfg.get("eps2", RANDOMIZED_EPS)

    sums = {s: [] for s in strategies}
    certs = {s: [] for s in strategies}
    n = None
    P = None
    for rep_i in range(int(reps)):
        rng_seq = np.random.default_rng([seed, rep_i, 0])
        seq, n = build_sequence(cfg, rng_seq)
        if P is None:
            P = build_potential(cfg, loss, n)
            if "linearized" in strategies and not P.linearizable:
                raise ConfigError(f"strategy linearized needs a linearizable "
                                  f"family; {cfg['family']} is not")
        for si, s in enumerate(strategies):
            rng_s = np.random.default_rng([seed, rep_i, 1 + si])
            if s == "randomized":
                traj, expected = run_randomized_expected(P, seq, loss, eps1, rng_s)
                sums[s].append(float(expected.sum()))
            else:
                traj = run_online(P, s, seq, loss, rng=rng_s)
                sums[s].append(traj.cumulative_loss)
            certs[s].append(P.bound(traj.final_statistic))

    lines = []
    for s in strategies:
        label = "mean_expected_loss" if s == "randomized" else "mean_loss"
        lines.append(f"strategy={s} {label}={np.mean(sums[s]):.6g} "
                     f"mean_certificate={np.mean(certs[s]):.6g} reps={reps}")
    code = 0
    baseline = next((s for s in ("linearized", "convex") if s in strategies), None)
    if "randomized" in strategies and baseline is not None:
        slack, k, estimated = _randomized_slack(P, loss, n, eps1, eps2,
                                                np.random.default_rng([seed, 99]), seq.xs[0])
        gap = float(np.mean(sums["randomized"]) - np.mean(sums[baseline]))
        ok = gap <= slack + verify.TOL
        tag = " (lipschitz estimated)" if estimated else ""
        lines.append(f"gap={gap:.6g} slack={slack:.6g}{tag} vs {baseline} "
                     f"-> {'pass' if ok else 'FAIL'}")
        code = 0 if ok else 1
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return code


def build_parser():
    p = argparse.ArgumentParser(
        prog="burkholder",
        description="Online learning with pathwise potential certificates.")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="play a game and emit the regret CSV")
    run.add_argument("--config", required=True, help="flat key = value file")
    run.add_argument("--out", help="CSV destination (default: stdout)")
    run.add_argument("--seed", type=int, help="overrides the config seed")

    ver = sub.add_parser("verify", help="certify potential properties")
    ver.add_argument("--config", help="optional family description")
    ver.add_argument("--suite", default="all", choices=SUITES)
    ver.add_argument("--seed", type=int)
    ver.add_argument("--trials", type=int, help="per-check sample count")
    ver.add_argument("--negative-control", action="store_true",
                     help="run against a deliberately broken setup; expects exit 1")
    ver.add_argument("--out", help="also write the report lines to a file")

    cmp_ = sub.add_parser("compare", help="strategy head-to-head on shared sequences")
    cmp_.add_argument("--config", required=True)
    cmp_.add_argument("--strategies", default="linearized,randomized",
                      help="comma separated subset of " + ",".join(STRATEGIES))
    cmp_.add_argument("--trials", type=int, help="number of repetitions")
    cmp_.add_argument("--seed", type=int)
    cmp_.add_argument("--out")
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_compare(args)
    except (ConfigError, DomainError, NumericError, TagMismatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
