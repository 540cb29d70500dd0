import csv
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import polaron
from polaron import branches, cli, model
from polaron.cli import main
from polaron.config import load_config

CONFIG = """
[model]
dimension = 1
alpha = 0.1
c0 = 0.5

[epsilon]
kind = constant
eps0 = 1.0

[coupling]
kind = separable
amplitude = 1.0
width = 1.0

[quadrature]
radial-nodes = 24
angular-degree = 9

[grid]
lambda = 3.0
points-per-axis = 15

[run]
p-values = 0.0 0.4
p = 0.0
tol = 1e-9
alpha-ladder = 0.2 0.1
q-count = 7
q-max = 1.0
kappa-fractions = 0.5 0.9
oracle-q = 0.2
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG)
    return str(path)


def run(command, config_path, out_dir, *extra):
    return main([command, "--config", config_path, "--out", str(out_dir)]
                + list(extra))


class TestCommands:
    def test_validate(self, config_path, tmp_path, capsys):
        assert run("validate", config_path, tmp_path / "o") == 0
        assert "PASS" in capsys.readouterr().out

    def test_thresholds(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert run("thresholds", config_path, out) == 0
        lines = (out / "thresholds.csv").read_text().strip().splitlines()
        assert lines[0].startswith("p,lambda1_0,lambda2_0,lambda3_0")
        assert len(lines) == 3
        record = json.loads((out / "thresholds.json").read_text())
        assert record["command"] == "thresholds"
        assert len(record["points"]) == 2

    def test_ground_scan(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert run("ground-scan", config_path, out) == 0
        record = json.loads((out / "ground-scan.json").read_text())
        assert record["g0_boundary"]["status"] == "converged"
        rows = record["points"]
        assert all(r["status"] == "converged" for r in rows)

    def test_readme_example_config(self, tmp_path):
        # the fenced ini block of README.md must load and run as shown
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        path = tmp_path / "readme.ini"
        path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        cfg = load_config(path)
        assert cfg.params.d == 3
        assert cfg.raw["epsilon"]["kind"] == "relativistic"
        assert cfg.raw["coupling"]["width"] == "1.0"
        assert cfg.run["kappa_mode"] == "fraction"
        assert cfg.run["p_values"] == [0.0, 0.4, 0.8]
        out = tmp_path / "o"
        assert main(["thresholds", "--config", str(path), "--out", str(out)]) == 0
        with open(out / "thresholds.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 3

    def test_dispersion_scan(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert run("dispersion-scan", config_path, out) == 0
        lines = (out / "dispersion-scan.csv").read_text().strip().splitlines()
        assert len(lines) == 8

    def test_alpha0_closed_form(self, config_path, tmp_path):
        import csv
        import math

        out = tmp_path / "o"
        assert run("alpha0", config_path, out) == 0
        with open(out / "alpha0.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        hsq = math.pi ** 0.5  # gaussian envelope, d = 1
        for row in rows:
            gap = float(row["lambda2_proxy"]) - float(row["kappa"])
            expect = 0.1 * (3.0 + hsq) / gap
            assert float(row["bound_Gamma"]) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("command, momentum", [
        ("domain-map", "coordinate"), ("ground-scan", "p"), ("gamma", "k"),
    ], ids=["domain-map", "ground-scan", "gamma"])
    def test_proxy_at_row_momentum(self, tmp_path, command, momentum):
        # with a relativistic eps the two-boson proxy varies with p, so
        # each row over the p-values must carry the proxy at its own p
        path = tmp_path / "rel.ini"
        path.write_text(CONFIG.replace(
            "kind = constant\neps0 = 1.0",
            "kind = relativistic\nmass = 1.0\nshift = 0.5"))
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        cfg = load_config(path)
        with open(out / f"{command}.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r.get("domain", "G0") == "G0"]
        assert len(rows) == 2
        for row in rows:
            p = cfg.vector(float(row[momentum]))
            assert float(row["lambda2_proxy"]) == \
                branches.lambda2_proxy_value(cfg.params, p)

    def test_dispersion_scan_rows_are_domain_points(self, tmp_path, monkeypatch):
        # each row is the dispersion solve at its grid q, the boundary is
        # the domain map's, and no q off the grid is solved
        path = tmp_path / "run.ini"
        path.write_text(CONFIG.replace("q-max = 1.0", "q-max = 3.0"))
        cfg = load_config(path)
        solves = []
        dispersion_solve = branches._dispersion_solve

        def counted(*args, **kwargs):
            solves.append(args)
            return dispersion_solve(*args, **kwargs)

        monkeypatch.setattr(branches, "_dispersion_solve", counted)
        out = tmp_path / "o"
        assert main(["dispersion-scan", "--config", str(path), "--out", str(out)]) == 0
        assert len(solves) == cfg.run["q_count"] == 7
        monkeypatch.undo()
        record = json.loads((out / "dispersion-scan.json").read_text())
        p = cfg.vector(cfg.run["p"])
        kappa = branches.kappa_from_rule(cfg.params, p, "fraction", 0.9)
        grid = np.linspace(-3.0, 3.0, 7)
        assert [row["q"] for row in record["points"]] == list(grid)
        for row, q in zip(record["points"], grid):
            bp = branches.dispersion_point(cfg.params, p, cfg.vector(q), kappa,
                                           cfg.quad, 1e-9)
            assert (row["xi"], row["residual"], row["status"]) == \
                (bp.xi, bp.residual, bp.status)
        assert {"converged", "none"} <= {row["status"] for row in record["points"]}
        dmap = branches.one_boson_domain(cfg.params, p, kappa, np.zeros((0, 1)),
                                         cfg.quad, 1e-9)
        assert record["boundary"] == [
            {"direction": list(map(float, ray)), "radius": radius}
            for ray, radius in dmap.boundary
        ]

    def test_gamma_without_residual(self, tmp_path):
        # a relativistic eps makes eps(q) grow with |q|, so an absolute cap
        # between xi_0(0) and xi_0.1(0.1) keeps the first pair of the
        # factorization check in the domain and puts the second outside
        rel = CONFIG.replace("kind = constant\neps0 = 1.0",
                             "kind = relativistic\nmass = 1.0\nshift = 0.5")
        path = tmp_path / "rel.ini"
        path.write_text(rel)
        cfg = load_config(path)
        p, shift = cfg.vector(0.0), cfg.vector(0.1)
        kappa = branches.kappa_from_rule(cfg.params, p, "fraction", 0.9)
        xi = [branches.dispersion_point(cfg.params, pp, qq, kappa, cfg.quad,
                                        1e-9).xi
              for pp, qq in ((p, 0.0 * p), (p + shift, shift))]
        assert xi[0] < xi[1]
        path.write_text(rel.replace(
            "p-values = 0.0 0.4",
            f"p-values = 0.0\nkappa-mode = absolute\nkappa = {sum(xi) / 2!r}"))
        out = tmp_path / "o"
        assert main(["gamma", "--config", str(path), "--out", str(out)]) == 0
        with open(out / "gamma.csv") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["gamma"] != ""
        assert row["residual"] == ""
        assert row["status"] == "no-residual"

    def test_gamma_with_residual_converged(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert run("gamma", config_path, out) == 0
        with open(out / "gamma.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert row["residual"] != ""
            assert row["status"] == "converged"

    @pytest.mark.parametrize("eps", ["constant", "relativistic"])
    def test_oracle_ground_rows_carry_their_proxy(self, tmp_path, eps):
        # each ground row's cap was set at the ladder's alpha against the
        # clipped margin, and the row reports that proxy
        path = tmp_path / "run.ini"
        text = CONFIG if eps == "constant" else CONFIG.replace(
            "kind = constant\neps0 = 1.0",
            "kind = relativistic\nmass = 1.0\nshift = 0.5")
        path.write_text(text)
        out = tmp_path / "o"
        assert main(["oracle-check", "--config", str(path), "--out", str(out)]) == 0
        cfg = load_config(path)
        p = cfg.vector(cfg.run["p"])
        with open(out / "oracle-check.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r["kind"] == "ground"]
        assert len(rows) == 2
        for row in rows:
            pa = replace(cfg.params, alpha=float(row["alpha"]))
            expect = branches.lambda2_proxy_value(pa, p, clipped=True)
            assert float(row["lambda2_proxy"]) == pytest.approx(expect, abs=1e-12)
            assert float(row["lambda2_proxy"]) > float(row["kappa"])

    def test_options_before_command(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert main(["--config", config_path, "--out", str(out), "thresholds"]) == 0
        assert (out / "thresholds.csv").exists()

    def test_validate_failing_check(self, tmp_path, capsys):
        # a failing check exits 1 and still writes both files
        path = tmp_path / "run.ini"
        path.write_text(CONFIG.replace("\nc0 = 0.5\n", "\nc0 = 5\n"))
        out = tmp_path / "o"
        assert main(["validate", "--config", str(path), "--out", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().out
        with open(out / "validate.csv") as fh:
            rows = {r["check"]: r["passed"] for r in csv.DictReader(fh)}
        assert rows["subadditivity gap with declared c0"] == "false"
        record = json.loads((out / "validate.json").read_text())
        assert record["command"] == "validate"
        failed = [r["check"] for r in record["points"] if not r["passed"]]
        assert failed == ["subadditivity gap with declared c0"]

    def test_tol_override(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert run("thresholds", config_path, out, "--tol", "1e-6") == 0
        record = json.loads((out / "thresholds.json").read_text())
        assert float(record["tol"]) == 1e-6


@pytest.fixture
def threshold_calls(monkeypatch):
    """Counter of `model.threshold` calls by boson number n."""
    calls = Counter()
    threshold = model.threshold

    def counted(params, n, p):
        calls[n] += 1
        return threshold(params, n, p)

    monkeypatch.setattr(model, "threshold", counted)
    return calls


class TestThresholdCalls:
    """Each cap is made and checked by one `branches.cap` call, which
    evaluates each threshold at most once; a solve below a given cap
    checks it against lambda2_0 alone."""

    def test_ground_row(self, config_path, threshold_calls):
        cli._ground_at(load_config(config_path), 0.4)
        assert dict(threshold_calls) == {2: 2, 1: 1}

    def test_alpha0_rows(self, config_path, threshold_calls):
        rows = cli.cmd_alpha0(load_config(config_path))[1]
        assert len(rows) == 2
        assert dict(threshold_calls) == {2: 2, 1: 2}

    def test_compare_ground_rungs(self, config_path, threshold_calls):
        from polaron import oracle

        cfg = load_config(config_path)
        comparison = oracle.compare_ground(cfg.params, cfg.vector(0.0), cfg.measure,
                                           0.9, [0.2, 0.1], tol=1e-9)
        assert len(comparison.rows) == 2
        assert dict(threshold_calls) == {2: 4, 1: 4}

    def test_thresholds_rows(self, config_path, threshold_calls):
        # lambda2_0 and the proxy come from one cap: one threshold(2) per row
        rows = cli.cmd_thresholds(load_config(config_path))[1]
        n = len(rows)
        assert n == 2
        assert dict(threshold_calls) == {1: n, 2: n, 3: n}

    def test_dispersion_point(self, config_path, threshold_calls):
        cfg = load_config(config_path)
        p = cfg.vector(0.0)
        kappa = branches.kappa_from_rule(cfg.params, p, "fraction", 0.9)
        threshold_calls.clear()
        branches.dispersion_point(cfg.params, p, cfg.vector(0.3), kappa, cfg.quad)
        assert dict(threshold_calls) == {2: 1}


class TestDeterminism:
    def test_byte_identical_reruns(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for command in ("thresholds", "dispersion-scan"):
            assert run(command, config_path, out1) == 0
            assert run(command, config_path, out2) == 0
            name = f"{command}.csv"
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


    def test_oracle_check_byte_identical(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("oracle-check", config_path, out1) == 0
        assert run("oracle-check", config_path, out2) == 0
        for name in ("oracle-check.csv", "oracle-check.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_oracle_check_wide_window_values(self, config_path, tmp_path, monkeypatch):
        # this config's dispersion window holds 7 eigenvalues, so
        # `low_spectrum`'s root search gives them and `_window_root` does not
        # run; the row's values are pinned bit for bit
        from polaron import oracle

        comps, compare = [], oracle.compare_dispersion

        def recorded(*args, **kwargs):
            comps.append(compare(*args, **kwargs))
            return comps[-1]

        def refuse(*args):
            raise AssertionError("the one-eigenvalue window root ran")

        monkeypatch.setattr(oracle, "compare_dispersion", recorded)
        monkeypatch.setattr(oracle, "_window_root", refuse)
        assert run("oracle-check", config_path, tmp_path) == 0
        assert [c.window_count for c in comps] == [7]
        with open(tmp_path / "oracle-check.csv") as fh:
            (row,) = [r for r in csv.DictReader(fh) if r["kind"] == "dispersion"]
        assert [float(row[k]).hex() for k in ("oracle", "solver", "diff")] == [
            "0x1.f880f13483fd7p-1", "0x1.f8730c4ab390ep-1", "0x1.bc9d3a0d92000p-14"]


class TestImports:
    def test_commands_load_no_scipy_solvers(self, config_path, tmp_path):
        # in a fresh interpreter: scipy's optimizers, interpolators and
        # sparse and dense linear algebra load only with a tabulated
        # epsilon, not with the package, a command or the oracle
        heavy = ["scipy.optimize", "scipy.interpolate", "scipy.sparse", "scipy.linalg"]
        argvs = [[command, "--config", config_path, "--out", str(tmp_path / command)]
                 for command in ("thresholds", "oracle-check")]
        script = (
            "import json, sys\n"
            "import polaron, polaron.branches, polaron.cli\n"
            f"code = max(polaron.cli.main(argv) for argv in {argvs!r})\n"
            f"print(json.dumps([code, [m for m in {heavy!r} if m in sys.modules]]))\n"
        )
        src = str(Path(polaron.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        res = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        code, loaded = json.loads(res.stdout.splitlines()[-1])
        assert code == 0
        assert loaded == []


class TestParserReuse:
    def test_one_parser_per_process(self, config_path, tmp_path, monkeypatch):
        import argparse

        built, init = [], argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli._parser.cache_clear()
        try:
            assert run("thresholds", config_path, tmp_path / "a") == 0
            assert run("alpha0", config_path, tmp_path / "b") == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_calls_in_one_interpreter_match_fresh_processes(self, config_path, tmp_path):
        # one interpreter runs thresholds, an unknown command (exit 2),
        # --tol nan (exit 2), alpha0 and dispersion-scan through the one
        # parser; each command's files equal a fresh process's bytes
        commands = ("thresholds", "alpha0", "dispersion-scan")
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"

        def argv(command, out, *extra):
            return [command, "--config", config_path, "--out", str(out), *extra]

        argvs = [argv("thresholds", shared), argv("nope", shared),
                 argv("alpha0", shared, "--tol", "nan"), argv("alpha0", shared),
                 argv("dispersion-scan", shared)]
        script = (
            "import json, sys\n"
            "from polaron.cli import main\n"
            "codes = []\n"
            "def call(argv):\n"
            "    try:\n"
            "        codes.append(main(argv))\n"
            "    except SystemExit as exc:\n"
            "        codes.append(exc.code)\n"
            f"for argv in {argvs!r}:\n"
            "    call(argv)\n"
            "print(json.dumps(codes))\n"
        )
        src = str(Path(polaron.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        res = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert json.loads(res.stdout.splitlines()[-1]) == [0, 2, 2, 0, 0]
        for command in commands:
            subprocess.run([sys.executable, "-m", "polaron.cli", *argv(command, fresh)],
                           env=env, capture_output=True, check=True)
        names = sorted(f"{c}{s}" for c in commands for s in (".csv", ".json"))
        assert sorted(f.name for f in shared.iterdir()) == names
        for name in names:
            assert (shared / name).read_bytes() == (fresh / name).read_bytes()


class TestConfigDefaults:
    @pytest.mark.parametrize("form", ["absent", "empty"])
    def test_optional_sections(self, tmp_path, form):
        # an absent and an empty [quadrature] or [grid] give the same defaults
        text = CONFIG.replace("radial-nodes = 24\nangular-degree = 9\n", "")
        text = text.replace("lambda = 3.0\npoints-per-axis = 15\n", "")
        if form == "absent":
            text = text.replace("[quadrature]\n", "").replace("[grid]\n", "")
        path = tmp_path / "run.ini"
        path.write_text(text)
        cfg = load_config(path)
        assert ("quadrature" in cfg.raw) == (form == "empty")
        assert (cfg.quad.n_radial, cfg.quad.angular_degree) == (64, 17)
        assert cfg.quad.r_max == max(cfg.params.coupling.decay_radius(), 4.0)
        assert (cfg.measure.half_width, cfg.measure.points_per_axis) == (3.0, 5)

    @pytest.mark.parametrize("default", ["", "[DEFAULT]\n"], ids=["plain", "default"])
    def test_raw_sections_are_the_section_proxies(self, tmp_path, default):
        # sections are read raw; without interpolation the values are the
        # strings a section proxy returns ('%' included), and the keys the same
        import configparser

        path = tmp_path / "run.ini"
        path.write_text(default + CONFIG.replace(
            "kind = constant\neps0 = 1.0",
            f"kind = tabulated\ntable-path = {tmp_path / 'eps%b.csv'}"))
        (tmp_path / "eps%b.csv").write_text("0.0,1.0\n4.0,1.5\n")
        cp = configparser.ConfigParser(interpolation=None)
        cp.read(path)
        assert load_config(path).raw == {n: dict(cp[n]) for n in cp.sections()}

    def test_raw_section_with_defaults(self):
        # a non-empty [DEFAULT] puts its keys in every section, so no config
        # that holds one passes the schema; the raw read still gives each
        # section the proxy's strings, '%' literal
        import configparser

        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string("[DEFAULT]\nwidth = 2%\ntol = 1e-9\n" + CONFIG)
        for name in cp.sections():
            assert dict(cp.items(name, raw=True)) == dict(cp[name])


class TestErrors:
    def test_help_lists_every_command(self, capsys):
        from polaron.cli import _COMMANDS

        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(_COMMANDS) == 8
        for name, (_, text) in _COMMANDS.items():
            assert any(line.split() == [name] + text.split() for line in lines)

    def test_unknown_command(self, config_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nope", "--config", config_path, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_missing_config(self, tmp_path, capsys):
        rc = main(["thresholds", "--config", str(tmp_path / "nope.ini"),
                   "--out", str(tmp_path)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "InputError"

    @pytest.mark.parametrize("form", ["not-utf-8", "directory"])
    def test_unreadable_config(self, tmp_path, capsys, form):
        # a file that is not UTF-8 and a directory are read errors: not a
        # traceback, and not a config with no sections
        path = tmp_path / "run.ini"
        if form == "directory":
            path.mkdir()
        else:
            path.write_bytes(CONFIG.replace("kind = constant", "kind = const\xe9").encode("latin-1"))
        out = tmp_path / "o"
        rc = main(["thresholds", "--config", str(path), "--out", str(out)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "InputError"
        assert record["message"].startswith(f"cannot read the config {path}: ")
        assert not out.exists()

    @pytest.mark.parametrize("form", ["file", "under-a-file"])
    def test_unusable_out(self, config_path, tmp_path, capsys, form):
        # an --out that cannot be a directory is an input error naming it,
        # not a traceback from creating the directory
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker if form == "file" else blocker / "o"
        rc = main(["thresholds", "--config", config_path, "--out", str(out)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "InputError"
        assert record["message"].startswith(f"cannot write the outputs to {out}: ")
        assert blocker.read_text() == ""

    def test_bad_section(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[model]\ndimension = 1\nalpha = 0.1\nc0 = 0.5\n")
        rc = main(["thresholds", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InputError"

    @pytest.mark.parametrize("old, new", [
        ("\np = 0.0\n", "\np = abc\n"),
        ("\nq-count = 7\n", "\nq-count = 7.5\n"),
        ("\nalpha-ladder = 0.2 0.1\n", "\nalpha-ladder = 0.2 x\n"),
    ], ids=["p", "q-count", "alpha-ladder"])
    def test_bad_run_value(self, tmp_path, capsys, old, new):
        path = tmp_path / "bad.ini"
        assert old in CONFIG
        path.write_text(CONFIG.replace(old, new))
        rc = main(["thresholds", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InputError"

    @pytest.mark.parametrize("old, new", [
        ("\np = 0.0\n", "\np = 0.0\nkappa-mode = absolute\nkappa = nan\n"),
        ("\nalpha = 0.1\n", "\nalpha = nan\n"),
        ("\nwidth = 1.0\n", "\nwidth = -inf\n"),
        ("\nalpha-ladder = 0.2 0.1\n", "\nalpha-ladder = 0.2 inf\n"),
    ], ids=["kappa", "alpha", "width", "alpha-ladder"])
    def test_non_finite_value(self, tmp_path, capsys, old, new):
        # nan and inf are refused as the config is read: no solve runs
        # below a NaN cap, and no CSV is written
        path = tmp_path / "bad.ini"
        assert old in CONFIG
        path.write_text(CONFIG.replace(old, new))
        out = tmp_path / "o"
        rc = main(["dispersion-scan", "--config", str(path), "--out", str(out)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "InputError"
        assert "bad value" in record["message"]
        assert not (out / "dispersion-scan.csv").exists()

    def test_continuum_rule_over_budget(self, tmp_path, capsys):
        # leggauss(20000) would form a 3.2 GB companion matrix: refused
        # before the node system is built, and no CSV is written
        path = tmp_path / "big.ini"
        path.write_text(CONFIG.replace("radial-nodes = 24", "radial-nodes = 20000"))
        out = tmp_path / "o"
        rc = main(["dispersion-scan", "--config", str(path), "--out", str(out)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ResourceError"
        assert "budget" in record["message"]
        assert not (out / "dispersion-scan.csv").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "abc", "-1"])
    def test_bad_tol_option(self, config_path, tmp_path, capsys, tol):
        # --tol is refused as the config's tol is: before this check, nan
        # labelled every row capped and wrote "tol": NaN to the record, and
        # -1 labelled every row capped with residual 0
        out = tmp_path / "o"
        rc = main(["dispersion-scan", "--config", str(config_path), "--out", str(out),
                   f"--tol={tol}"])
        assert rc == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "InputError"
        assert "bad value for '--tol'" in record["message"]
        assert not (out / "dispersion-scan.csv").exists()

    @pytest.mark.parametrize("command, old, new", [
        ("dispersion-scan", "\ntol = 1e-9\n", "\ntol = -1e-9\n"),
        ("oracle-check", "\ntol = 1e-9\n", "\ntol = 1e-9\nneumann-order = -1\n"),
        ("dispersion-scan", "\nq-count = 7\n", "\nq-count = -3\n"),
        ("ground-scan", "\ntol = 1e-9\n", "\ntol = 1e-9\ndelta-ladder = 0.1 -0.1\n"),
        ("validate", "\ntol = 1e-9\n", "\ntol = 1e-9\nseed = -1\n"),
    ], ids=["tol", "neumann-order", "q-count", "delta-ladder", "seed"])
    def test_out_of_range_run_value(self, tmp_path, capsys, command, old, new):
        # each was taken before this check: a negative tol labelled every
        # dispersion row capped, order -1 ran as order 0 with diff_scaled
        # over alpha^2, a negative count or seed raised numpy's ValueError,
        # and a negative delta put a ladder point past r* as converged
        path = tmp_path / "bad.ini"
        assert old in CONFIG
        path.write_text(CONFIG.replace(old, new))
        out = tmp_path / "o"
        rc = main([command, "--config", str(path), "--out", str(out)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "InputError"
        key = new.strip().splitlines()[-1].split(" = ")[0]
        assert record["message"].startswith(f"bad value for {key!r}")
        assert not (out / f"{command}.csv").exists()

    def test_zero_tol_is_legal(self, tmp_path):
        path = tmp_path / "zero.ini"
        path.write_text(CONFIG.replace("\ntol = 1e-9\n", "\ntol = 0\n"))
        assert load_config(path).run["tol"] == 0.0
        assert main(["thresholds", "--config", str(path), "--out", str(tmp_path),
                     "--tol=0"]) == 0

    @pytest.mark.parametrize("text", [
        CONFIG.replace("\nalpha = 0.1\n", "\nalpha = 0.1\nalpha = 0.2\n"),
        CONFIG.replace("[model]\n", "", 1),
    ], ids=["duplicate-key", "no-section-header"])
    def test_unparsable_config(self, tmp_path, capsys, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        rc = main(["thresholds", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "InputError"
        assert "cannot parse" in record["message"]

    def test_percent_in_value_is_literal(self, tmp_path, capsys):
        # with interpolation on, configparser itself rejects the '%'
        path = tmp_path / "bad.ini"
        table = tmp_path / "eps%b.csv"
        path.write_text(CONFIG.replace(
            "kind = constant\neps0 = 1.0", f"kind = tabulated\ntable-path = {table}"))
        rc = main(["thresholds", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "InputError"
        assert repr(str(table)) in record["message"]

    def test_missing_table(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(CONFIG.replace(
            "kind = constant\neps0 = 1.0",
            f"kind = tabulated\ntable-path = {tmp_path / 'absent.csv'}"))
        rc = main(["thresholds", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InputError"

    @pytest.mark.parametrize("table, message", [
        ("0.0,1.0\n", "at least 2 knots"),
        ("0.0\n1.0\n", "1 columns"),
        ("0.0,1.0\nnan,2.0\n", "finite"),
        ("0.0,1.0\n1.0,inf\n", "finite"),
        ("", "no data"),
    ], ids=["one-row", "one-column", "nan-knot", "inf-value", "empty"])
    def test_malformed_table(self, tmp_path, capsys, table, message):
        # a malformed table is an input error, refused before any command runs
        csv = tmp_path / "eps.csv"
        csv.write_text(table)
        path = tmp_path / "bad.ini"
        path.write_text(CONFIG.replace(
            "kind = constant\neps0 = 1.0", f"kind = tabulated\ntable-path = {csv}"))
        out = tmp_path / "o"
        rc = main(["thresholds", "--config", str(path), "--out", str(out)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "InputError"
        assert message in record["message"]
        assert not (out / "thresholds.csv").exists()

    def test_oracle_check_needs_fraction_cap(self, tmp_path, capsys):
        path = tmp_path / "abs.ini"
        path.write_text(CONFIG.replace(
            "\np = 0.0\n", "\np = 0.0\nkappa-mode = absolute\nkappa = 1.5\n"))
        rc = main(["oracle-check", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "InputError"
        assert "fraction" in record["message"]
        assert "ground ladder" in record["message"]
        assert not (tmp_path / "oracle-check.csv").exists()

    @pytest.mark.parametrize("old, new, key, meant", [
        ("\ntol = 1e-9\n", "\ntole = 1e-3\n", "tole", "tol"),
        ("\np = 0.0\n", "\np-valu = 0.7\n", "p-valu", "p-values"),
        ("\nwidth = 1.0\n", "\nwidht = 1.0\n", "widht", "width"),
    ], ids=["tole", "p-valu", "widht"])
    def test_misspelled_key(self, tmp_path, capsys, old, new, key, meant):
        path = tmp_path / "bad.ini"
        assert old in CONFIG
        path.write_text(CONFIG.replace(old, new))
        rc = main(["thresholds", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "InputError"
        assert repr(key) in record["message"]
        allowed = record["message"].split("allowed: ")[1].split(", ")
        assert meant in allowed

    def test_unknown_section(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(CONFIG.replace("[grid]", "[gird]"))
        rc = main(["thresholds", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "InputError"
        assert "[gird]" in record["message"]
