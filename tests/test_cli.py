"""End-to-end command line behavior: configs, exit codes, output streams."""

import csv
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import burkholder
from burkholder import cli, harness
from burkholder.errors import ConfigError
from burkholder.harness import random_vectors, save_sequence
from burkholder.strategies import run_online
from burkholder.symlin import Entry


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
    with pytest.raises(ConfigError, match="cannot read config"):
        cli.parse_config(str(tmp_path / "missing.txt"))


@pytest.mark.parametrize("line", ["B = nan", "B = inf", "eps1 = nan", "tol = nan"])
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
    with pytest.raises(ConfigError, match=f"^{key} = -?\\d+, need {key} >= "):
        cli.build_sequence(cli.parse_config(path), np.random.default_rng(0))
    assert cli.main(["run", "--config", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"need {key} >= " in err


def test_known_config_keys_match_the_readme():
    """The parser accepts exactly the keys README's command line section
    lists, so a dead or an undocumented key fails here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.search(r"\n\n((?:- .*\n(?:  .*\n)*)+)", section).group(1)
    assert set(re.findall(r"`(\w+)`", bullets)) == cli._KNOWN_KEYS


@pytest.mark.parametrize("key", ["L", "rank_scale", "rho", "beta", "gamma"])
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
    assert cli.main(["run", "--config", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"{key} = -" in err and f"need {key} >= 0" in err


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
        cli.build_sequence(cli.parse_config(path), np.random.default_rng(0))
    assert str(data) in str(info.value) and f"n = {n}" in str(info.value)
    assert cli.main(["run", "--config", path]) == 2
    _, err = capsys.readouterr()
    assert "n >= 1" in err and "-> pass" not in err


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


def test_run_csv_is_byte_identical_with_dense_instances(tmp_path, monkeypatch):
    path = _cfg(tmp_path, "family = matrix\nd1 = 6\nd2 = 5\nn = 40\neta = 0.3\n"
                          "rank = 2\nnoise = 0.05\ncomparator_iters = 60\n")
    sparse, dense = tmp_path / "sparse.csv", tmp_path / "dense.csv"
    assert cli.main(["run", "--config", path, "--out", str(sparse)]) == 0
    generate = harness.matrix_completion

    def densified(*args, **kwargs):
        seq = generate(*args, **kwargs)
        assert all(isinstance(x, Entry) for x in seq.xs)
        return harness.Sequence(seq.kind, [np.asarray(x) for x in seq.xs],
                                seq.ys, seq.meta)

    monkeypatch.setattr(harness, "matrix_completion", densified)
    assert cli.main(["run", "--config", path, "--out", str(dense)]) == 0
    assert dense.read_bytes() == sparse.read_bytes()


def test_verify_p1_covers_the_catalog(capsys):
    assert cli.main(["verify", "--suite", "p1"]) == 0
    out, _ = capsys.readouterr()
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 7
    assert all(l.startswith("pass ") and ".p1_start" in l for l in lines)
    names = {l.split()[1].split(".")[0] for l in lines}
    assert {"matrix", "vaw", "meta", "param_free_l2"} <= names


def test_verify_catalog_rejects_a_nonpositive_range(tmp_path, capsys):
    path = _cfg(tmp_path, "B = -1\n")
    assert cli.main(["verify", "--config", path, "--suite", "p1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "need 0 < B < inf" in err


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


def test_verify_negative_control_rejects_sign_sum_suites(capsys):
    assert cli.main(["verify", "--negative-control", "--suite",
                     "khintchine"]) == 2
    _, err = capsys.readouterr()
    assert "negative control" in err


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
    assert "depth >= 1" in err


@pytest.mark.parametrize("suite", ["khintchine", "mgf"])
def test_verify_rejects_fewer_than_one_tree(tmp_path, capsys, suite):
    path = _cfg(tmp_path, "trees = 0\n")
    assert cli.main(["verify", "--config", path, "--suite", suite]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "trees >= 1" in err


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


def test_compare_falls_back_to_a_convex_baseline(tmp_path, capsys):
    path = _cfg(tmp_path, "family = matrix\nd1 = 3\nd2 = 2\neta = 0.5\n"
                          "n = 10\nloss = absolute\neps1 = 0.3\neps2 = 0.3\n")
    assert cli.main(["compare", "--config", path, "--trials", "2",
                     "--strategies", "randomized,convex"]) == 0
    out, _ = capsys.readouterr()
    assert "vs convex" in out


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
    assert "at least one repetition" in err


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
