"""End-to-end command line behavior: configs, exit codes, output streams."""

import csv
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import burkholder
from burkholder import cli, harness, verify
from burkholder.errors import ConfigError
from burkholder.harness import random_vectors
from burkholder.losses import make_loss
from burkholder.potentials import MatrixPotential, VawPotential, adagrad
from burkholder.statistics import ScalarSym
from burkholder.strategies import STRATEGIES, run_online
from burkholder.symlin import Entry
from sequence_csv import save_sequence


def _cfg(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_types_comments_and_blanks(tmp_path):
    path = _cfg(tmp_path, "# full-line comment\n\n"
                          "n = 5\n"
                          "B=0.5  # trailing comment\n"
                          "family = matrix\n")
    cfg = cli.parse_config(path)
    assert cfg == {"n": 5, "B": 0.5, "family": "matrix"}
    assert isinstance(cfg["n"], int) and isinstance(cfg["B"], float)


def test_parse_config_rejects_malformed_lines(tmp_path):
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        cli.parse_config(_cfg(tmp_path, "just words\n"))
    with pytest.raises(ConfigError, match="unknown config key"):
        cli.parse_config(_cfg(tmp_path, "wibble = 3\n"))
    with pytest.raises(ConfigError, match="bad value for n"):
        cli.parse_config(_cfg(tmp_path, "n = abc\n"))
    with pytest.raises(ConfigError, match=r"cfg\.txt:4: d already set on line 2$"):
        cli.parse_config(_cfg(tmp_path, "family = adagrad\nd = 3\nn = 5\nd = 4\n"))
    with pytest.raises(ConfigError, match="cannot read config"):
        cli.parse_config(str(tmp_path / "missing.txt"))


@pytest.mark.parametrize("line", ["B = nan", "B = inf", "eps1 = nan", "lam = nan"])
def test_parse_config_rejects_non_finite_floats(tmp_path, capsys, line):
    key = line.split()[0]
    path = _cfg(tmp_path, "family = adagrad\nd = 3\nn = 5\n"
                          f"strategy = randomized\n{line}\n")
    with pytest.raises(ConfigError, match=f":5: {key} = .* is not finite"):
        cli.parse_config(path)
    assert cli.main(["run", "--config", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"{path}:5: {key}" in err and "certificate" not in err


@pytest.mark.parametrize("text,key", [
    ("family = adagrad\nd = 0\n", "d"),
    ("family = adagrad\nd = -2\n", "d"),
    ("family = matrix\nd1 = 0\nd2 = 2\neta = 0.5\n", "d1"),
    ("family = matrix\nd1 = 2\nd2 = 0\neta = 0.5\n", "d2"),
    ("family = matrix\nd1 = 2\nd2 = 2\neta = 0.5\nrank = -1\n", "rank"),
])
def test_run_rejects_generated_dimensions_below_their_minimum(tmp_path, capsys,
                                                              text, key):
    path = _cfg(tmp_path, text + "n = 5\n")
    lineno = [l.split()[0] for l in text.splitlines()].index(key) + 1
    where = f"{path}:{lineno}: {key} = "
    with pytest.raises(ConfigError, match=f"^{re.escape(where)}-?\\d+, need {key} >= "):
        cli.parse_config(path)
    assert cli.main(["run", "--config", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and where in err and f"need {key} >= " in err


def test_known_config_keys_match_the_readme():
    """The parser accepts exactly the keys README's command line section
    lists, so a dead or an undocumented key fails here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.search(r"\n\n((?:- .*\n(?:  .*\n)*)+)", section).group(1)
    assert set(re.findall(r"`(\w+)`", bullets)) == cli._KNOWN_KEYS


def test_config_bounds_match_the_readme():
    """README's bounds sentence in the command line section lists exactly
    the minimums parse_config enforces, with their values, and the keys it
    holds above 0."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    sentence = re.search(r"The bounds: (.*?)\. ", " ".join(section.split())).group(1)
    bounds = {"at least": {}, "above": {}}
    for clause in sentence.split("; "):
        keys, kind, value = re.fullmatch(r"(.*) (at least|above) (\d+)", clause).groups()
        for key in re.findall(r"`(\w+)`", keys):
            bounds[kind][key] = int(value)
    assert bounds == {"at least": cli._MINIMUM, "above": dict.fromkeys(cli._POSITIVE, 0)}


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("value", ["0", "-0.5"])
def test_a_nonpositive_eps1_names_the_line(tmp_path, capsys, command, value):
    path = _cfg(tmp_path, f"family = adagrad\nd = 3\nn = 5\nstrategy = randomized\n"
                          f"eps1 = {value}\n")
    where = f"{path}:5: eps1 = {float(value)}, need eps1 > 0"
    with pytest.raises(ConfigError, match=f"^{re.escape(where)}$"):
        cli.parse_config(path)
    assert cli.main([command, "--config", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and where in err


@pytest.mark.parametrize("family,key,value", [
    ("matrix", "eta", "0"), ("matrix", "r", "0"), ("param_free", "c", "0"),
    ("vaw", "lam", "0"), ("adagrad", "B", "-1"), ("param_free", "p", "1.5")])
@pytest.mark.parametrize("command", ["run", "verify", "compare"])
def test_a_value_out_of_bounds_names_the_line(tmp_path, capsys, family, key, value, command):
    """A key held above 0, or p below 2, exits 2 with an error that starts
    with the config's path and line, before any constructor sees it."""
    lines = {"matrix": "d1 = 3\nd2 = 2\neta = 0.5\n", "vaw": "loss = squared\nd = 3\n",
             "adagrad": "d = 3\n", "param_free": "d = 3\n"}[family]
    text = f"family = {family}\n{lines}n = 5\n".replace(f"{key} = 0.5\n", "")
    text += f"{key} = {value}\n"  # the last line
    path = _cfg(tmp_path, text)
    where = f"{path}:{len(text.splitlines())}: {key} = {float(value)}, need {key} "
    with pytest.raises(ConfigError, match=f"^{re.escape(where)}"):
        cli.parse_config(path)
    suite = ["--suite", "necessity"] if command == "verify" else []
    assert cli.main([command, "--config", path] + suite) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {where}")


@pytest.mark.parametrize("family", ["matrix", "meta", "vaw", "adagrad", None])
@pytest.mark.parametrize("command", ["run", "verify"])
def test_only_param_free_takes_c(tmp_path, capsys, family, command):
    """Every family but param_free derives c; a config that sets it anyway,
    before or without a family, names the line rather than be ignored."""
    lines = {"matrix": "d1 = 3\nd2 = 2\neta = 0.5\n", "meta": "d1 = 3\nd2 = 2\neta = 0.5\n",
             "vaw": "loss = squared\nd = 3\n", "adagrad": "d = 3\n", None: ""}[family]
    if family is not None:
        lines = f"family = {family}\n{lines}"
    path = _cfg(tmp_path, f"c = 2.0\n{lines}n = 5\n")
    where = f"{path}:1: c needs family = param_free"
    with pytest.raises(ConfigError, match=f"^{re.escape(where)}"):
        cli.parse_config(path)
    suite = ["--suite", "necessity"] if command == "verify" else []
    assert cli.main([command, "--config", path] + suite) == 2
    out, err = capsys.readouterr()
    assert out == "" and where in err


def test_param_free_reads_c_and_matrix_and_vaw_derive_it(tmp_path, capsys):
    path = _cfg(tmp_path, "c = 2.0\nfamily = param_free\nd = 3\nn = 5\n")
    cfg = cli.parse_config(path)
    assert cli.build_potential(cfg, cli.build_loss(cfg), 5).c == 2.0
    assert cli.main(["run", "--config", path]) == 0
    capsys.readouterr()
    assert MatrixPotential(3, 2, eta=0.5, r=2.0).c == 2.0 * math.log(5.0)
    assert VawPotential(3, L=4.0).c == 8.0


@pytest.mark.parametrize("key", ["L", "rank_scale", "rho", "beta", "gamma", "tol",
                                 "meta_eta"])
def test_keys_nothing_reads_are_unknown(tmp_path, capsys, key):
    path = _cfg(tmp_path, f"family = adagrad\nd = 3\nn = 5\n{key} = 50\n")
    assert cli.main(["run", "--config", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unknown config key {key!r}" in err


@pytest.mark.parametrize("line", ["noise = -1", "radius = -0.5", "nuclear_radius = -1",
                                  "skew = -1", "comparator_iters = -5", "seed = -1",
                                  "eps2 = -0.1"])
def test_run_rejects_negative_sequence_and_seed_values(tmp_path, capsys, line):
    key = line.split()[0]
    family = ("family = matrix\nd1 = 2\nd2 = 2\neta = 0.5\n" if key == "nuclear_radius"
              else "family = adagrad\nd = 3\n")
    path = _cfg(tmp_path, f"{family}n = 5\n{line}\n")
    lineno = family.count("\n") + 2  # the line after the family's and n's
    assert cli.main(["run", "--config", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"{key} = -" in err and f"need {key} >= 0" in err
    assert f"{path}:{lineno}: " in err


@pytest.mark.parametrize("command", ["run", "verify", "compare"])
def test_a_negative_seed_flag_is_a_configuration_error(tmp_path, capsys, command):
    path = _cfg(tmp_path, "family = adagrad\nd = 3\nn = 5\n")
    assert cli.main([command, "--config", path, "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "seed = -1, need seed >= 0" in err


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("key", ["eps1"])
def test_unrepresentable_randomized_eps_exits_2(tmp_path, capsys, command, key):
    path = _cfg(tmp_path, "family = adagrad\nd = 3\nn = 5\nstrategy = randomized\n"
                          f"{key} = 1e-300\n")
    extra = ["--trials", "1"] if command == "compare" else []
    assert cli.main([command, "--config", path] + extra) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"{key} = 1e-300 with B = 1 asks for" in err


def test_run_out_file_holds_the_csv_run_prints(tmp_path, capsys):
    path = _cfg(tmp_path, "family = adagrad\nd = 3\nn = 30\n")
    assert cli.main(["run", "--config", path, "--seed", "1"]) == 0
    printed, _ = capsys.readouterr()
    dest = tmp_path / "run.csv"
    assert cli.main(["run", "--config", path, "--seed", "1", "--out", str(dest)]) == 0
    capsys.readouterr()
    assert dest.read_bytes() == printed.encode()


def test_run_bound_column_charges_the_comparator(tmp_path, capsys):
    """An adagrad comparator outside the unit ball adds its excess-norm charge
    to every row's bound, as regret_bound(zeta, w) prescribes."""
    path = _cfg(tmp_path, "family = adagrad\nd = 3\nn = 30\ncomparator_radius = 4\n")
    dest = tmp_path / "run.csv"
    assert cli.main(["run", "--config", path, "--seed", "1", "--out", str(dest)]) == 0
    capsys.readouterr()
    cfg = cli.parse_config(path)
    loss = cli.build_loss(cfg)
    seq, n = cli.build_sequence(cfg, np.random.default_rng(1))
    P = cli.build_potential(cfg, loss, n)
    comp = cli.build_comparator(cfg, "adagrad", seq, loss)
    assert np.linalg.norm(comp.w) > 1.0
    zetas = [P.zero()]
    run_online(P, "linearized", seq, loss,
               on_round=lambda t, zeta_prev, rnd, zeta: zetas.append(zeta))
    rows = list(csv.DictReader(io.StringIO(dest.read_text())))
    assert [r["bound"] for r in rows] == [f"{P.regret_bound(z, comp.w):.12g}"
                                          for z in zetas]
    assert P.regret_bound(zetas[-1], comp.w) > P.regret_bound(zetas[-1])


def test_run_matrix_bound_covers_a_comparator_outside_the_ball(tmp_path, capsys):
    """A nuclear-ball comparator of radius 8 against r = 1: the bound column
    charges (||W||_* - r) lambda_1(H), so it covers the regret on every row."""
    path = _cfg(tmp_path, "family = matrix\nd1 = 4\nd2 = 4\neta = 0.5\nn = 200\n"
                          "rank = 1\nnoise = 0\nnuclear_radius = 8\ncomparator = ball\n"
                          "comparator_radius = 8\nr = 1\n")
    dest = tmp_path / "run.csv"
    assert cli.main(["run", "--config", path, "--seed", "0", "--out", str(dest)]) == 0
    out, _ = capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO(dest.read_text())))
    assert len(rows) == 201
    assert all(float(r["bound"]) >= float(r["regret"]) for r in rows)
    regret = float(re.search(r"regret=(\S+)", out).group(1))
    assert regret > 60.0  # the run the uncharged bound (19.4) failed to cover
    assert float(re.search(r" bound=(\S+)", out).group(1)) >= regret


def test_run_writes_csv_to_stdout_and_summary_to_stderr(tmp_path, capsys):
    path = _cfg(tmp_path, "family = adagrad\nd = 3\nn = 8\nseed = 3\n")
    assert cli.main(["run", "--config", path]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "round,loss,cum_loss,comp_loss,regret,bound,potential"
    assert len(lines) == 10  # header + round 0 + 8 rounds
    assert "family=adagrad strategy=linearized rounds=8 seed=3" in err
    assert "certificate V=" in err and "-> pass" in err
    assert cli.main(["run", "--config", path]) == 0
    again, _ = capsys.readouterr()
    assert again == out  # byte-identical replay


def test_run_with_out_file_prints_summary_on_stdout(tmp_path, capsys):
    path = _cfg(tmp_path, "family = adagrad\nd = 2\nn = 5\n")
    dest = tmp_path / "report.csv"
    assert cli.main(["run", "--config", path, "--out", str(dest)]) == 0
    out, err = capsys.readouterr()
    assert "certificate" in out and err == ""
    text = dest.read_text()
    assert text.startswith("round,loss")
    assert len(text.splitlines()) == 7


def test_run_randomized_reports_its_slack(tmp_path, capsys):
    path = _cfg(tmp_path, "family = adagrad\nd = 3\nn = 15\n"
                          "strategy = randomized\neps1 = 0.2\neps2 = 0.2\n")
    assert cli.main(["run", "--config", path]) == 0
    _, err = capsys.readouterr()
    assert "randomized_slack=" in err
    assert "estimated" not in err  # adagrad's Lipschitz constant is exact


def test_run_labels_an_estimated_slack(tmp_path, capsys):
    """vaw's Lipschitz constant comes from the sampled estimate: run says so
    on its own line and leaves the certificate line's format alone."""
    path = _cfg(tmp_path, "family = vaw\nloss = squared\nd = 3\nn = 10\n"
                          "strategy = randomized\n")
    assert cli.main(["run", "--config", path]) == 0
    _, err = capsys.readouterr()
    lines = err.splitlines()
    cert = next(i for i, line in enumerate(lines) if line.startswith("certificate"))
    assert re.fullmatch(r"certificate V=\S+ tol=\S+ randomized_slack=\S+ -> pass",
                        lines[cert])
    k = re.fullmatch(r"randomized_slack uses an estimated Lipschitz constant K=(\S+)",
                     lines[cert + 1]).group(1)
    slack = float(re.search(r"randomized_slack=(\S+)", lines[cert]).group(1))
    assert slack == pytest.approx(10 * (float(k) * 0.05 + 0.05), rel=1e-5)


def test_run_configuration_errors_exit_2(tmp_path, capsys):
    missing_n = _cfg(tmp_path, "family = adagrad\nd = 3\n", "a.txt")
    assert cli.main(["run", "--config", missing_n]) == 2
    squared_pf = _cfg(tmp_path, "family = param_free\nd = 3\nn = 5\n"
                                "loss = squared\n", "b.txt")
    assert cli.main(["run", "--config", squared_pf]) == 2
    undercharged = _cfg(tmp_path, "family = matrix\nd1 = 3\nd2 = 2\n"
                                  "eta = 0.5\nc = 0.5\nn = 5\n", "c.txt")
    assert cli.main(["run", "--config", undercharged]) == 2
    vaw_linearized = _cfg(tmp_path, "family = vaw\nd = 3\nn = 5\n"
                                    "loss = squared\nstrategy = linearized\n",
                          "d.txt")
    assert cli.main(["run", "--config", vaw_linearized]) == 2
    mismatch = _cfg(tmp_path, "family = param_free\nd = 3\nn = 5\n"
                              "sequence = matrix_completion\nd1 = 3\nd2 = 2\n",
                    "e.txt")
    assert cli.main(["run", "--config", mismatch]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text, message", [
    ("family = vaw\nloss = absolute\nd = 3\n", "vaw needs loss = squared"),
    ("family = sorcery\nd = 3\n", "unknown family 'sorcery'"),
    ("family = adagrad\nsequence = sorcery\nd = 3\n", "unknown sequence kind 'sorcery'"),
    ("family = adagrad\ncomparator = sorcery\nd = 3\n", "unknown comparator mode 'sorcery'"),
    ("family = adagrad\nstrategy = sorcery\nd = 3\n",
     "{path}:2: unknown strategy 'sorcery'; expected one of "
     "('linearized', 'convex', 'randomized')"),
], ids=["vaw-absolute", "family", "sequence", "comparator", "strategy"])
def test_run_names_an_unknown_choice_and_exits_2(tmp_path, capsys, text, message):
    path = _cfg(tmp_path, text + "n = 5\n")
    assert cli.main(["run", "--config", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message.format(path=path)}\n"


def test_compare_names_an_unknown_config_strategy_and_exits_2(tmp_path, capsys):
    """compare reads the same config as run, so a bad strategy key fails
    there too, with its line, rather than be ignored."""
    path = _cfg(tmp_path, "family = adagrad\nstrategy = sorcery\nd = 3\nn = 5\n")
    assert cli.main(["compare", "--config", path, "--trials", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {path}:2: unknown strategy 'sorcery'")


@pytest.mark.parametrize("iters", [0, 5])
def test_run_names_an_unknown_comparator_ball_and_exits_2(tmp_path, capsys, iters):
    """The ball is checked before descent, so a run with no iteration to
    project still rejects it."""
    path = _cfg(tmp_path, "family = adagrad\ncomparator = ball\ncomparator_ball = sorcery\n"
                          f"comparator_iters = {iters}\nd = 3\nn = 5\n")
    assert cli.main(["run", "--config", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: unknown ball 'sorcery'\n"


_CLI_FAMILIES = {
    "param_free": "family = param_free\nd = 3\n",
    "adagrad": "family = adagrad\nd = 3\n",
    "matrix": "family = matrix\nd1 = 3\nd2 = 2\neta = 0.5\n",
    "meta": "family = meta\nd1 = 3\nd2 = 2\neta = 0.5\n",
    "vaw": "family = vaw\nloss = squared\nd = 3\n",
}
_RUN_PATHS = {
    "adagrad-box": "family = adagrad\nvariant = linf\ncomparator_ball = box\nd = 3\n",
    "param_free-adversarial":
        "family = param_free\nsequence = adversarial_gradient\ncomparator = zero\nd = 3\n",
    "matrix-least_squares":
        "family = matrix\ncomparator = least_squares\nd1 = 3\nd2 = 2\neta = 0.5\n",
    "matrix-grid": "family = matrix\ncomparator = grid\nd1 = 3\nd2 = 2\neta = 0.5\n",
    # convex play here keeps U from rising only with the refined search
    "matrix-eta0.3-convex": "family = matrix\nd1 = 3\nd2 = 2\neta = 0.3\nstrategy = convex\n",
    "param_free-seed2-convex": "family = param_free\nd = 3\nseed = 2\nstrategy = convex\n",
    **{f"{fam}-{strategy}": f"{text}strategy = {strategy}\n"
       for fam, text in _CLI_FAMILIES.items() for strategy in STRATEGIES
       if (fam, strategy) != ("vaw", "linearized")},
}


@pytest.mark.parametrize("text", _RUN_PATHS.values(), ids=_RUN_PATHS.keys())
def test_run_certifies_each_comparator_sequence_and_strategy_path(tmp_path, capsys, text):
    """The linf box comparator, an adversarial gradient sequence against the
    zero comparator, least-squares and grid comparators on matrices, and
    every strategy on every family that takes it: each run certifies, its
    bound covers the regret on every row, and a deterministic run's
    potential never rises."""
    path = _cfg(tmp_path, text + "n = 30\n")
    assert cli.main(["run", "--config", path]) == 0
    out, err = capsys.readouterr()
    assert next(l for l in err.splitlines() if l.startswith("certificate ")).endswith("-> pass")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 31
    assert all(float(r["regret"]) <= float(r["bound"]) for r in rows)
    if "randomized" not in text:
        potential = [float(r["potential"]) for r in rows]
        assert all(b <= a + verify.TOL for a, b in zip(potential, potential[1:]))


def test_run_from_a_data_csv(tmp_path, capsys):
    seq = random_vectors(20, 3, rng=np.random.default_rng(7))
    data = tmp_path / "seq.csv"
    save_sequence(seq, data)
    path = _cfg(tmp_path, f"family = adagrad\nd = 3\nn = 10\n"
                          f"data_csv = {data}\n")
    assert cli.main(["run", "--config", path]) == 0
    out, err = capsys.readouterr()
    assert "rounds=10" in err
    too_many = _cfg(tmp_path, f"family = adagrad\nd = 3\nn = 999\n"
                              f"data_csv = {data}\n", "big.txt")
    assert cli.main(["run", "--config", too_many]) == 2
    _, err = capsys.readouterr()
    assert "exceeds" in err


@pytest.mark.parametrize("n", [0, -1])
def test_run_rejects_a_nonpositive_n_with_a_data_csv(tmp_path, capsys, n):
    data = tmp_path / "entries.csv"
    data.write_text("i,j,y\n0,1,0.5\n1,0,-0.5\n")
    path = _cfg(tmp_path, f"family = matrix\nd1 = 2\nd2 = 2\neta = 0.5\n"
                          f"n = {n}\ndata_csv = {data}\n")
    with pytest.raises(ConfigError) as info:
        cli.parse_config(path)
    assert str(info.value) == f"{path}:5: n = {n}, need n >= 1"
    assert cli.main(["run", "--config", path]) == 2
    _, err = capsys.readouterr()
    assert f"{path}:5: " in err and "-> pass" not in err


def test_run_rejects_a_header_only_data_csv(tmp_path, capsys):
    data = tmp_path / "entries.csv"
    data.write_text("i,j,y\n")
    path = _cfg(tmp_path, f"family = matrix\nd1 = 2\nd2 = 2\neta = 0.5\n"
                          f"data_csv = {data}\n")
    with pytest.raises(ConfigError) as info:
        cli.build_sequence(cli.parse_config(path), np.random.default_rng(0))
    assert str(info.value) == f"{data}: n = 0, need n >= 1"
    assert cli.main(["run", "--config", path]) == 2
    _, err = capsys.readouterr()
    assert str(data) in err and "-> pass" not in err


def test_run_rejects_data_labels_outside_the_label_range(tmp_path, capsys):
    data = tmp_path / "entries.csv"
    data.write_text("i,j,y\n0,1,0.5\n1,0,2.0\n1,1,3.0\n")
    path = _cfg(tmp_path, f"family = matrix\nd1 = 2\nd2 = 2\neta = 0.5\n"
                          f"loss = hinge\ndata_csv = {data}\n")
    with pytest.raises(ConfigError) as info:
        cli.build_sequence(cli.parse_config(path), np.random.default_rng(0))
    assert str(data) in str(info.value)
    assert "row 2" in str(info.value) and "y = 2.0" in str(info.value)
    assert "B = 1" in str(info.value)
    assert cli.main(["run", "--config", path]) == 2
    _, err = capsys.readouterr()
    assert "outside [-B, B]" in err and "-> pass" not in err


@pytest.mark.parametrize("text, row", [
    ("i,j,y\n0,1,0.5\n1,x,0.2\n", 2),  # a field that is not a number
    ("i,j,y\n0,1,0.5\n1,0,0.1\n1\n", 3),  # a short row
    ("x0,x1,y\n0.1,0.2,0.3\n0.5,0.5\n", 2),  # a vector row without its label
    ("x0,x1,y\n0.1,0.2,0.3\n0.4,nan,0.5\n", 2),  # a non-finite feature
])
def test_run_rejects_malformed_data_rows(tmp_path, capsys, text, row):
    """A row the loader cannot read is a bad input (exit 2) that names the
    file and the row, not a crash with the failed-certificate code."""
    data = tmp_path / "bad.csv"
    data.write_text(text)
    family = "family = matrix\nd1 = 2\nd2 = 2\neta = 0.5\n" if text[0] == "i" else \
        "family = adagrad\nd = 2\n"
    path = _cfg(tmp_path, f"{family}data_csv = {data}\n")
    assert cli.main(["run", "--config", path]) == 2
    _, err = capsys.readouterr()
    assert f"{data}: row {row}:" in err and "Traceback" not in err


@pytest.mark.parametrize("family", ["family = vaw\nloss = squared\nstrategy = convex\n",
                                    "family = param_free\n"], ids=["vaw", "param_free"])
def test_run_rejects_non_finite_data_fields(tmp_path, capsys, family):
    """A non-finite feature or label is a bad input (exit 2) that names the
    file and the row, before any comparator or play reads it."""
    data = tmp_path / "bad.csv"
    path = _cfg(tmp_path, f"{family}d = 2\ndata_csv = {data}\n")
    for text, row in (("x1,x2,y\n0.1,nan,0.5\n0.2,0.1,-0.3\n", 1),
                      ("x1,x2,y\n0.1,0.2,0.3\n0.2,0.1,-inf\n", 2)):
        data.write_text(text)
        assert cli.main(["run", "--config", path]) == 2
        _, err = capsys.readouterr()
        assert f"{data}: row {row}: non-finite field" in err and "Traceback" not in err


def test_run_rejects_a_data_csv_whose_features_are_not_d(tmp_path, capsys):
    data = tmp_path / "two.csv"
    data.write_text("x1,x2,y\n0.1,0.2,0.3\n0.2,0.1,-0.3\n")
    path = _cfg(tmp_path, f"family = adagrad\nd = 3\ndata_csv = {data}\n")
    with pytest.raises(ConfigError) as info:
        cli.build_sequence(cli.parse_config(path), np.random.default_rng(0))
    assert str(info.value) == f"{data} has 2 features, need d = 3"
    assert cli.main(["run", "--config", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"{data} has 2 features, need d = 3" in err


def test_run_rejects_param_free_instances_outside_the_unit_ball(tmp_path, capsys):
    seq = random_vectors(30, 3, rng=np.random.default_rng(4))
    seq = harness.Sequence(seq.kind, [3.0 * x / np.linalg.norm(x) for x in seq.xs],
                           seq.ys, seq.meta)
    data = tmp_path / "far.csv"
    save_sequence(seq, data)
    path = _cfg(tmp_path, f"family = param_free\nd = 3\ndata_csv = {data}\n")
    assert cli.main(["run", "--config", path]) == 2
    out, err = capsys.readouterr()
    assert "instance norm 3 exceeds 1" in err
    assert "certificate" not in out + err


def test_run_csv_matches_dense_instances(tmp_path, monkeypatch, capsys):
    """run on Entry instances, whose statistic keeps Z as blocks, and on
    their dense matrices, whose statistic is one array: every CSV cell
    agrees within 1e-12 of max(1, |value|), and the summary lines agree
    byte for byte. The two factor different matrices (a component's block
    against Z's live block), so the last digits may differ."""
    path = _cfg(tmp_path, "family = matrix\nd1 = 6\nd2 = 5\nn = 40\neta = 0.3\n"
                          "rank = 2\nnoise = 0.05\ncomparator_iters = 60\n")
    sparse, dense = tmp_path / "sparse.csv", tmp_path / "dense.csv"
    assert cli.main(["run", "--config", path, "--out", str(sparse)]) == 0
    summary = capsys.readouterr().out
    generate = harness.matrix_completion

    def densified(*args, **kwargs):
        seq = generate(*args, **kwargs)
        assert all(isinstance(x, Entry) for x in seq.xs)
        return harness.Sequence(seq.kind, [np.asarray(x) for x in seq.xs],
                                seq.ys, seq.meta)

    monkeypatch.setattr(harness, "matrix_completion", densified)
    assert cli.main(["run", "--config", path, "--out", str(dense)]) == 0
    assert capsys.readouterr().out == summary
    got, want = (np.loadtxt(f, delimiter=",", skiprows=1) for f in (sparse, dense))
    assert got.shape == want.shape == (41, 7)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    assert sparse.read_text().splitlines()[0] == dense.read_text().splitlines()[0]


def test_convex_matrix_round_reads_each_residual_once(tmp_path, monkeypatch, capsys):
    """Convex play refines its y_hat grid in stages, and every stage of an
    absolute-loss round asks for the residual at the same deltas. On a 4 x 3
    matrix run of 60 rounds the residual is read once a round (60 calls,
    each at every distinct delta), where reading it per stage took 180,
    and the CSV is byte-identical to the per-stage reading."""
    path = _cfg(tmp_path, "family = matrix\nloss = absolute\nstrategy = convex\n"
                          "d1 = 4\nd2 = 3\neta = 0.3\nn = 60\n")
    residual, round_values = MatrixPotential.residual, MatrixPotential.round_values
    calls = []
    monkeypatch.setattr(MatrixPotential, "residual",
                        lambda self, *a, **k: calls.append(1) or residual(self, *a, **k))
    once, per_stage = tmp_path / "once.csv", tmp_path / "per_stage.csv"
    assert cli.main(["run", "--config", path, "--seed", "0", "--out", str(once)]) == 0
    assert len(calls) == 60
    calls.clear()
    monkeypatch.setattr(MatrixPotential, "round_values",
                        lambda self, *a, known=None, **k: round_values(self, *a, **k))
    assert cli.main(["run", "--config", path, "--seed", "0", "--out", str(per_stage)]) == 0
    assert len(calls) == 180
    assert once.read_bytes() == per_stage.read_bytes()


def test_matrix_run_passes_the_benchmark_check(monkeypatch):
    """burkholder run on the benchmark's matrix_run config at seed 0, in a
    fresh process as the benchmark starts it, passes perfbench/checks.py's
    check_run: the certificate passes, U never rises, regret stays under
    the bound column, and the CSV matches the stored reference within
    1e-9."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    env = dict(os.environ, PYTHONPATH=str(Path(burkholder.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "burkholder.cli", "run", "--config",
                           str(bench / "configs" / "matrix_run.cfg"), "--seed", "0"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.syspath_prepend(str(bench))
    import checks
    assert checks.REFERENCE_SEED == 0
    assert checks.check_run(0, proc.stdout, proc.stderr) == []


def test_verify_p1_covers_the_catalog(capsys):
    assert cli.main(["verify", "--suite", "p1"]) == 0
    out, _ = capsys.readouterr()
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 7
    assert all(l.startswith("pass ") and ".p1_start" in l for l in lines)
    names = {l.split()[1].split(".")[0] for l in lines}
    assert {"matrix", "vaw", "meta", "param_free_l2"} <= names


def test_verify_all_matches_the_benchmark_reference(capsys):
    """verify --suite all at seed 0 names the same checks, with the same
    verdicts and trial counts, as the benchmark's stored reference."""
    ref = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "verify_all.txt"

    def summary(text):
        return [(l.split()[0], l.split()[1], l.split()[2]) for l in text.splitlines()
                if l and not l.startswith(" ")]

    assert cli.main(["verify", "--suite", "all", "--seed", "0"]) == 0
    out, _ = capsys.readouterr()
    assert summary(out) == summary(ref.read_text())
    assert len(summary(out)) == 38


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_verify_all_prints_the_golden_report(seed, capsys):
    """verify --suite all prints tests/verify_all_seed<seed>.txt byte for
    byte: every max_violation too, so a change in any printed digit of a
    check shows here."""
    golden = Path(__file__).resolve().parent / f"verify_all_seed{seed}.txt"
    assert cli.main(["verify", "--suite", "all", "--seed", str(seed)]) == 0
    out, _ = capsys.readouterr()
    assert out == golden.read_text()


def test_matrix_run_matches_the_benchmark_reference(capsys):
    """run on the benchmark's 100x100 completion config at seed 0 prints the
    stored reference CSV, every cell within 1e-9 relative or absolute (the
    benchmark's own check), and passes its certificate."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"

    def cells(text):
        return [[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]

    assert cli.main(["run", "--config", str(bench / "configs" / "matrix_run.cfg"),
                     "--seed", "0"]) == 0
    out, err = capsys.readouterr()
    ref = (bench / "reference" / "matrix_run.csv").read_text()
    assert out.splitlines()[0] == ref.splitlines()[0]
    got, want = cells(out), cells(ref)
    assert len(got) == len(want) == 201
    bad = [(row[0], j) for row, exp in zip(got, want) for j in range(7)
           if not math.isclose(row[j], exp[j], rel_tol=1e-9, abs_tol=1e-9)]
    assert not bad
    assert "-> pass" in err


@pytest.mark.parametrize("seed", [0, 7])
def test_matrix_run_prints_the_golden_report(seed, capsys):
    """run on the benchmark's completion config prints tests/matrix_run_seed<seed>.err
    byte for byte, and a CSV every cell of which lies within 1e-13 max(1,
    |value|) of tests/matrix_run_seed<seed>.csv."""
    here = Path(__file__).resolve().parent
    config = here.parent / "perfbench" / "configs" / "matrix_run.cfg"

    def cells(text):
        return [[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]

    assert cli.main(["run", "--config", str(config), "--seed", str(seed)]) == 0
    out, err = capsys.readouterr()
    assert err == (here / f"matrix_run_seed{seed}.err").read_text()
    ref = (here / f"matrix_run_seed{seed}.csv").read_text()
    assert out.splitlines()[0] == ref.splitlines()[0]
    got, want = cells(out), cells(ref)
    assert len(got) == len(want) == 201
    bad = [(row[0], j) for row, exp in zip(got, want) for j in range(7)
           if abs(row[j] - exp[j]) > 1e-13 * max(1.0, abs(exp[j]))]
    assert not bad


@pytest.mark.parametrize("family", ["matrix", "meta"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_an_entry_run_is_never_densified(family, strategy, tmp_path, monkeypatch, capsys):
    """run on a completion config builds no ScalarSym, the dense zero
    included, and never reads an Entry as its matrix: the statistic is a
    BlockSym from round 1 on. meta's AdaGrad member flattens each instance
    into its d1 * d2 statistic by design, so it gets the matrix from its
    own builder here, and the patch still catches any read elsewhere."""
    def refuse(*args, **kwargs):
        raise AssertionError("entry run densified")

    def as_matrix(x):
        out = np.zeros(x.shape)
        out[x.i, x.j] = 1.0
        return out

    batch_instances = adagrad.batch_instances
    monkeypatch.setattr(adagrad, "batch_instances", lambda x, *a: batch_instances(
        as_matrix(x) if isinstance(x, Entry) else x, *a))
    monkeypatch.setattr(Entry, "__array__", refuse)
    monkeypatch.setattr(ScalarSym, "__init__", refuse)
    path = _cfg(tmp_path, f"family = {family}\nstrategy = {strategy}\nd1 = 6\nd2 = 5\n"
                          "eta = 0.5\nn = 30\nrank = 2\ncomparator_iters = 50\n")
    assert cli.main(["run", "--config", path, "--seed", "3"]) == 0
    assert "-> pass" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [1, 11])
def test_verify_all_passes_at_other_seeds(seed, capsys):
    """Every catalog check passes on the block-drawn streams of more seeds."""
    assert cli.main(["verify", "--suite", "all", "--seed", str(seed)]) == 0
    out, _ = capsys.readouterr()
    assert "FAIL" not in out
    assert len([l for l in out.splitlines() if l.startswith("pass ")]) == 38
    # one tolerance for every verdict, whatever the family
    assert {float(l.rsplit(" tol=", 1)[1]) for l in out.splitlines()} == {verify.TOL}


def test_verify_catalog_rejects_a_nonpositive_range(tmp_path, capsys):
    path = _cfg(tmp_path, "B = -1\n")
    assert cli.main(["verify", "--config", path, "--suite", "p1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {path}:1: B = -1.0, need B > 0\n"


def test_verify_scopes_to_a_configured_family(tmp_path, capsys):
    path = _cfg(tmp_path, "family = adagrad\nd = 4\n")
    assert cli.main(["verify", "--config", path, "--suite", "p2",
                     "--trials", "50"]) == 0
    out, _ = capsys.readouterr()
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 1
    assert lines[0].startswith("pass adagrad.p2_dominates_bound")
    assert "checks=50" in lines[0]


def test_verify_negative_control_fails_loudly(capsys):
    assert cli.main(["verify", "--negative-control", "--suite", "p1",
                     "--trials", "50"]) == 1
    out, _ = capsys.readouterr()
    assert "FAIL matrix_undercharged.p1_start" in out
    assert "witness:" in out


@pytest.mark.parametrize("suite", ["p1", "necessity", "all"])
def test_verify_negative_control_rejects_a_configured_family(tmp_path, capsys, suite):
    """The control checks its own mutant, so a config naming a family is a
    usage error, not a silent switch to the matrix mutant."""
    path = _cfg(tmp_path, "family = adagrad\nd = 4\n")
    assert cli.main(["verify", "--config", path, "--negative-control",
                     "--suite", suite]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--negative-control" in err and "'adagrad'" in err


def test_verify_negative_control_rejects_sign_sum_suites(capsys):
    """No mutant breaks these suites, so their negative control is a usage error."""
    for suite in ("khintchine", "mgf", "p2", "p3", "supermartingale"):
        assert cli.main(["verify", "--negative-control", "--suite", suite]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "negative control" in err


def test_verify_necessity_and_its_negative_control(capsys):
    assert cli.main(["verify", "--suite", "necessity", "--seed", "1"]) == 0
    out, _ = capsys.readouterr()
    assert "pass matrix.necessity_lower_bound" in out
    assert cli.main(["verify", "--suite", "necessity", "--seed", "1",
                     "--negative-control"]) == 1
    out, _ = capsys.readouterr()
    assert "FAIL matrix.necessity_lower_bound" in out


@pytest.mark.parametrize("suite", ["p2", "p3", "all"])
@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_rejects_fewer_than_one_trial(capsys, suite, trials):
    assert cli.main(["verify", "--suite", suite, "--trials", trials]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--trials >= 1" in err


@pytest.mark.parametrize("suite", ["supermartingale", "necessity", "mgf",
                                   "khintchine"])
def test_verify_rejects_a_zero_depth(tmp_path, capsys, suite):
    path = _cfg(tmp_path, "depth = 0\n")
    assert cli.main(["verify", "--config", path, "--suite", suite]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{path}:1: depth = 0, need depth >= 1" in err


@pytest.mark.parametrize("suite", ["khintchine", "mgf"])
def test_verify_rejects_fewer_than_one_tree(tmp_path, capsys, suite):
    path = _cfg(tmp_path, "trials = 0\n")
    assert cli.main(["verify", "--config", path, "--suite", suite]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{path}:1: trials = 0, need trials >= 1" in err


def test_verify_takes_trials_from_the_config_and_the_flag(tmp_path, capsys):
    """The config key trials sets every suite's count, as --trials does; the
    flag overrides the key."""
    path = _cfg(tmp_path, "family = adagrad\nd = 3\ntrials = 5\n")
    for suite in ("p2", "p3", "khintchine", "mgf"):
        for argv, want in (([], 5), (["--trials", "7"], 7)):
            assert cli.main(["verify", "--config", path, "--suite", suite, *argv]) == 0
            out, _ = capsys.readouterr()
            counts = re.findall(r"checks=(\d+) ", out)
            assert counts and set(counts) == {str(want)}, (suite, argv, out)


def test_verify_rejects_the_retired_trees_key(tmp_path, capsys):
    path = _cfg(tmp_path, "trees = 3\n")
    assert cli.main(["verify", "--config", path, "--suite", "mgf"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{path}:1: unknown config key 'trees'" in err


def test_verify_rejects_a_zero_dimensional_param_free_family(tmp_path, capsys):
    path = _cfg(tmp_path, "family = param_free\nd = 0\n")
    assert cli.main(["verify", "--config", path, "--suite", "all"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "d >= 1" in err


def test_verify_walks_trees_at_the_configured_depth(tmp_path, capsys):
    path = _cfg(tmp_path, "family = adagrad\nd = 3\ndepth = 10\n")
    assert cli.main(["verify", "--config", path, "--suite", "supermartingale"]) == 0
    out, _ = capsys.readouterr()
    assert "pass adagrad.supermartingale_tree: checks=1023 " in out
    path = _cfg(tmp_path, "family = adagrad\nd = 3\ndepth = 15\n")
    assert cli.main(["verify", "--config", path, "--suite", "supermartingale"]) == 2
    out, _ = capsys.readouterr()
    assert out == ""


def test_verify_out_file_mirrors_stdout(tmp_path, capsys):
    dest = tmp_path / "verify.txt"
    assert cli.main(["verify", "--suite", "p1", "--out", str(dest)]) == 0
    out, _ = capsys.readouterr()
    assert dest.read_text() == out


def test_compare_randomized_against_linearized(tmp_path, capsys):
    path = _cfg(tmp_path, "family = matrix\nd1 = 3\nd2 = 2\neta = 0.5\n"
                          "n = 12\nloss = absolute\neps1 = 0.3\neps2 = 0.3\n"
                          "seed = 5\n")
    assert cli.main(["compare", "--config", path, "--trials", "2"]) == 0
    out, _ = capsys.readouterr()
    assert "strategy=linearized mean_loss=" in out
    assert "strategy=randomized mean_expected_loss=" in out
    assert "gap=" in out and "slack=" in out
    assert "vs linearized -> pass" in out


def test_randomized_slack_draws_no_instance_for_a_linearizable_family(tmp_path, monkeypatch,
                                                                        capsys):
    """A linearizable family's Lipschitz constant is exactly L, so neither a
    randomized run nor its comparison draws an instance to find it."""
    def refuse(self, rng, k):
        raise AssertionError("sample_instances called")

    monkeypatch.setattr(MatrixPotential, "sample_instances", refuse)
    path = _cfg(tmp_path, "family = matrix\nd1 = 3\nd2 = 2\neta = 0.5\nn = 12\n"
                          "loss = absolute\nstrategy = randomized\neps1 = 0.3\neps2 = 0.3\n")
    assert cli.main(["run", "--config", path]) == 0
    assert cli.main(["compare", "--config", path, "--trials", "2",
                     "--strategies", "randomized,linearized"]) == 0
    out, _ = capsys.readouterr()
    assert "vs linearized -> pass" in out


def test_vaw_compare_prints_the_golden_report(capsys):
    """compare --strategies convex,randomized on the benchmark's VAW config
    at seed 0 prints tests/vaw_compare_seed0.txt byte for byte: the
    randomized line and the gap too."""
    here = Path(__file__).resolve().parent
    assert cli.main(["compare", "--config", str(here.parent / "perfbench" / "configs" /
                                                 "vaw_compare.cfg"),
                     "--strategies", "convex,randomized", "--seed", "0"]) == 0
    out, _ = capsys.readouterr()
    assert out == (here / "vaw_compare_seed0.txt").read_text()


def test_vaw_compare_matches_the_benchmark_reference(capsys):
    """compare on the benchmark's VAW config at seed 0 prints the stored
    reference's convex line, each number within 1e-9 relative or absolute
    (the benchmark's own check); randomized draws may move."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"

    def convex(text):
        line = next(l for l in text.splitlines() if l.startswith("strategy=convex "))
        return dict(field.split("=") for field in line.split())

    assert cli.main(["compare", "--config", str(bench / "configs" / "vaw_compare.cfg"),
                     "--strategies", "convex,randomized", "--seed", "0"]) == 0
    out, _ = capsys.readouterr()
    got, want = convex(out), convex((bench / "reference" / "vaw_compare.txt").read_text())
    assert got.keys() == want.keys() == {"strategy", "mean_loss", "mean_certificate", "reps"}
    assert got["reps"] == want["reps"]
    for key in ("mean_loss", "mean_certificate"):
        assert math.isclose(float(got[key]), float(want[key]), rel_tol=1e-9, abs_tol=1e-9)
    assert out.splitlines()[-1].endswith("-> pass")


def test_compare_falls_back_to_a_convex_baseline(tmp_path, capsys):
    path = _cfg(tmp_path, "family = matrix\nd1 = 3\nd2 = 2\neta = 0.5\n"
                          "n = 10\nloss = absolute\neps1 = 0.3\neps2 = 0.3\n")
    assert cli.main(["compare", "--config", path, "--trials", "2",
                     "--strategies", "randomized,convex"]) == 0
    out, _ = capsys.readouterr()
    assert "vs convex" in out


def test_compare_out_file_holds_what_compare_prints(tmp_path, capsys):
    path = _cfg(tmp_path, "family = adagrad\nd = 2\nn = 8\n")
    argv = ["compare", "--config", path, "--trials", "2", "--strategies",
            "linearized,convex,randomized"]
    assert cli.main(argv) == 0
    printed, _ = capsys.readouterr()
    dest = tmp_path / "compare.txt"
    assert cli.main(argv + ["--out", str(dest)]) == 0
    again, _ = capsys.readouterr()
    assert again == printed and dest.read_bytes() == printed.encode()


def test_compare_needs_a_strategy(tmp_path, capsys):
    path = _cfg(tmp_path, "family = adagrad\nd = 2\nn = 5\n")
    assert cli.main(["compare", "--config", path, "--strategies", ","]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: compare needs at least one strategy\n"


@pytest.mark.parametrize("where", ["flag", "config"])
def test_compare_rejects_zero_repetitions_before_any_play(tmp_path, capsys,
                                                          monkeypatch, where):
    def no_play(*args, **kwargs):
        raise AssertionError("compare played a game")

    monkeypatch.setattr(cli, "run_online", no_play)
    monkeypatch.setattr(cli, "run_randomized_expected", no_play)
    text = "family = adagrad\nd = 2\nn = 5\n"
    argv = ["compare", "--trials", "0"] if where == "flag" else ["compare"]
    path = _cfg(tmp_path, text + ("trials = 0\n" if where == "config" else ""))
    assert cli.main(argv + ["--config", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    if where == "flag":
        assert "at least one repetition" in err
    else:
        assert f"{path}:4: trials = 0, need trials >= 1" in err


def test_compare_rejects_linearized_on_a_nonlinearizable_family_before_any_play(
        tmp_path, capsys, monkeypatch):
    def no_play(*args, **kwargs):
        raise AssertionError("compare played a game")

    monkeypatch.setattr(cli, "run_online", no_play)
    monkeypatch.setattr(cli, "run_randomized_expected", no_play)
    path = _cfg(tmp_path, "family = vaw\nloss = squared\nd = 2\nn = 5\n")
    assert cli.main(["compare", "--config", path, "--strategies",
                     "convex,linearized"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "needs a linearizable family" in err


def test_compare_rejects_unknown_strategies(tmp_path, capsys):
    path = _cfg(tmp_path, "family = adagrad\nd = 2\nn = 5\n")
    assert cli.main(["compare", "--config", path, "--strategies",
                     "sorcery"]) == 2
    _, err = capsys.readouterr()
    assert "unknown strategy" in err


def test_compare_rejects_duplicate_strategies(tmp_path, capsys, monkeypatch):
    def no_play(*args, **kwargs):
        raise AssertionError("compare played a game")

    monkeypatch.setattr(cli, "run_online", no_play)
    monkeypatch.setattr(cli, "run_randomized_expected", no_play)
    path = _cfg(tmp_path, "family = vaw\nloss = squared\nd = 3\nn = 5\n")
    assert cli.main(["compare", "--config", path, "--strategies",
                     "randomized,randomized,convex"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "strategy 'randomized' is listed twice" in err


def test_no_arguments_is_a_usage_error(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_module_entry_point_runs_in_a_subprocess():
    # the child imports the same package as this process, wherever it lives
    package_root = os.path.dirname(os.path.dirname(burkholder.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "burkholder.cli", "verify",
                           "--suite", "p1"], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0
    assert "pass" in proc.stdout


def test_an_adagrad_convex_run_does_not_import_numpy_ma(tmp_path):
    """Distinct values come from a sort: np.unique on floats imports
    numpy.ma, about 1.2 MB of resident memory."""
    path = _cfg(tmp_path, "family = adagrad\nd = 3\nn = 20\nstrategy = convex\n")
    package_root = os.path.dirname(os.path.dirname(burkholder.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    code = ("import sys\nfrom burkholder import cli\n"
            f"code = cli.main(['run', '--config', {path!r}])\n"
            "print('numpy.ma' in sys.modules, code)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False 0"


def test_perfbench_trace_hooks_find_every_target(monkeypatch):
    """perfbench's --trace 1 wraps the play entry points by name in
    strategies and cli; a refactor that moves one must not break it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import child
    with child.patched(child.layer_targets(child.Recorder())) as state:
        pass
    assert state["restored"] and state["patched"] > 0


def test_perfbench_trace_times_every_linearized_round(monkeypatch):
    """Play calls predict_linearized by the name perfbench wraps, so the
    benchmark's per-round metrics see matrix play."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import child
    seq = harness.matrix_completion(5, 3, 2, rng=np.random.default_rng(0))
    P = MatrixPotential(3, 2, eta=0.5)
    rec = child.Recorder()
    with child.patched(child.layer_targets(rec)):
        run_online(P, "linearized", seq, make_loss("absolute"))
    predict = rec.names.index("strategies.predict_linearized")
    assert list(rec.name).count(predict) == 5


def test_perfbench_builds_every_workload(monkeypatch):
    """perfbench's set-up step calls cli.parse_config, build_loss,
    build_sequence, build_potential and standard_families by name; a rename
    must fail here, not in the benchmark's child process."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.build_inputs(0)
        if workload.config is None:
            assert inputs, name
        else:
            cfg, loss, seq, P = inputs
            assert len(seq) == cfg["n"] and P.zero() is not None, name
