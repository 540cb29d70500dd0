"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime.  Budgets are asserted, not just reported."""

import json
import math
import time

import numpy as np
import pytest

from polaron import (
    CouplingSpec,
    EpsilonSpec,
    ModelParams,
    QuadratureSpec,
    grid_measure,
    threshold,
)
from polaron import branches as br
from polaron import oracle
from polaron import selfenergy as se
from polaron.cli import main as cli_main
from polaron.friedrichs import FriedrichsSolver


def make_params(d=3, alpha=0.1, eps=None, c0=0.5):
    return ModelParams(
        d=d,
        alpha=alpha,
        eps=eps or EpsilonSpec.constant(1.0),
        coupling=CouplingSpec(amplitude=1.0, width=1.0),
        c0=c0,
    )


QUAD = QuadratureSpec.continuum(24, 9, r_max=6.0)
QUAD_FINE = QuadratureSpec.continuum(32, 11, r_max=6.0)


class Budget:
    def __init__(self, index, seconds, label):
        self.index = index
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.index:2d} {status} ({elapsed:6.1f}s / "
              f"{self.seconds}s budget): {self.label}")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.index} exceeded its {self.seconds}s budget"
            )
        return False


def test_criterion_01_free_theory_exactness():
    with Budget(1, 10, "free theory matches closed forms at alpha=0"):
        for eps in (EpsilonSpec.constant(1.0),
                    EpsilonSpec.relativistic(1.0, 0.5)):
            params = make_params(alpha=0.0, eps=eps)
            eps0 = float(eps.radial(0.0))
            # thresholds: constant profile gives n*eps0 at every p;
            # any profile gives n*eps(0) at p=0
            assert threshold(params, 1, np.zeros(3)) == pytest.approx(
                eps0, abs=1e-10)
            assert threshold(params, 2, np.zeros(3)) == pytest.approx(
                2 * eps0, abs=1e-10)
            if eps.kind == "constant":
                p = np.array([1.1, 0.0, 0.0])
                for n in (1, 2, 3):
                    assert threshold(params, n, p) == pytest.approx(
                        float(n), abs=1e-10)
            # dispersion: xi = e1(q) exactly
            p = np.array([0.3, 0.0, 0.0])
            kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
            q = np.array([0.2, 0.1, 0.0])
            bp = br.dispersion_point(params, p, q, kappa, QUAD, 1e-12)
            e1 = 0.5 * float((p - q) @ (p - q)) + float(params.eps(q))
            assert bp.xi == pytest.approx(e1, abs=1e-10)
            # ground branch: xi0 = p^2/2 exactly
            gs = br.ground_state(params, p, kappa, 1, QUAD, 1e-10)
            assert gs.status == "converged"
            assert gs.xi == pytest.approx(0.5 * float(p @ p), abs=1e-10)
            # oracle: diagonal free spectrum
            m = grid_measure(2.0, 3, 3)
            ham = oracle.build(params, p, m, n_max=2)
            vals = oracle.low_spectrum(ham, ham.dim)
            assert vals == pytest.approx(np.sort(np.diag(ham.matrix)),
                                         abs=1e-10)


def test_criterion_02_threshold_gap():
    with Budget(2, 10, "threshold gaps >= c0 over |p| in [0, 3]"):
        params = make_params(eps=EpsilonSpec.relativistic(1.0, 0.5))
        for pmag in np.linspace(0.0, 3.0, 20):
            p = np.array([pmag, 0.0, 0.0])
            lams = [threshold(params, n, p) for n in (1, 2, 3)]
            assert lams[1] - lams[0] >= params.c0 - 1e-8
            assert lams[2] - lams[1] >= params.c0 - 1e-8


def test_criterion_03_ground_branch_inequality():
    with Budget(3, 60, "ground branch below p^2/2 with stable alpha^2 shift"):
        shifts_at_zero = []
        for alpha in (0.05, 0.1, 0.2):
            params = make_params(alpha=alpha)
            margin = se.clipped_proxy_margin(params, np.zeros(3))
            for pmag in (0.0, 0.4, 0.8):
                p = np.array([pmag, 0.0, 0.0])
                kappa = br.kappa_from_rule(params, p, "fraction", 0.9,
                                           delta_margin=margin)
                bp = br.ground_state(params, p, kappa, 1, QUAD_FINE, 1e-10,
                                     delta_margin=margin)
                assert bp.status == "converged"
                assert bp.xi < 0.5 * pmag * pmag - 1e-12
                if pmag == 0.0:
                    shifts_at_zero.append((0.5 * pmag**2 - bp.xi) / alpha**2)
        spread = max(shifts_at_zero) / min(shifts_at_zero) - 1.0
        assert spread < 0.10


def test_criterion_04_single_mode_closed_form():
    with Budget(4, 1, "single-mode rank-one root equals the 2x2 eigenvalue"):
        half_width = 3.0
        m = grid_measure(half_width, 1, 1)
        quad = QuadratureSpec.discrete(m)

        def a(pts):
            pts = np.asarray(pts, dtype=float)
            return 0.5 * np.sum(pts * pts, axis=-1) + 1.0

        def v(pts):
            pts = np.asarray(pts, dtype=float)
            return np.exp(-0.5 * np.sum(pts * pts, axis=-1))

        for alpha in (0.1, 0.5):
            params = make_params(d=1, alpha=alpha)
            solver = FriedrichsSolver.from_functions(0.0, alpha, v, a, quad, 1)
            root = solver.ground_eigenvalue(0, tol=1e-12)
            expect = 0.5 * (1.0 - math.sqrt(1.0 + 8.0 * half_width * alpha**2))
            assert root == pytest.approx(expect, abs=1e-12)
            ham = oracle.build(params, np.zeros(1), m, n_max=1)
            assert oracle.low_spectrum(ham, 1)[0] == pytest.approx(
                expect, abs=1e-12)
            assert root == pytest.approx(
                float(oracle.low_spectrum(ham, 1)[0]), abs=1e-12)


def test_criterion_05_matched_discretization():
    with Budget(5, 300, "oracle gap shrinks >= 16/1.5 per alpha halving"):
        params = make_params()
        m = grid_measure(3.0, 5, 3)
        comp = oracle.compare_ground(params, np.zeros(3), m, 0.9,
                                     alphas=(0.2, 0.1, 0.05),
                                     n_max=2, tol=1e-10)
        diffs = [r.diff for r in comp.rows]
        assert diffs[0] / diffs[1] >= 16.0 / 1.5
        assert diffs[1] / diffs[2] >= 16.0 / 1.5


def test_criterion_06_dispersion_monotone_solve():
    with Budget(6, 60, "dispersion residuals and free-energy bound"):
        params = make_params()
        rng = np.random.default_rng(20240901)
        kappa = br.kappa_from_rule(params, np.zeros(3), "fraction", 0.9)
        members = 0
        draws = 0
        while members < 100:
            draws += 1
            assert draws <= 400
            p = 0.3 * rng.normal(size=3)
            q = 0.5 * rng.normal(size=3)
            bp = br.dispersion_point(params, p, q, kappa, QUAD, 1e-10)
            if bp.status == "none":
                continue
            members += 1
            assert bp.residual <= 1e-9 * (1.0 + abs(bp.xi))
            e1 = 0.5 * float((p - q) @ (p - q)) + float(params.eps(q))
            assert bp.xi <= e1


def test_criterion_07_factorization():
    with Budget(7, 120, "gamma depends on p - q only"):
        params = make_params()
        rng = np.random.default_rng(7151)
        kappa = br.kappa_from_rule(params, np.zeros(3), "fraction", 0.9)
        checked = 0
        while checked < 50:
            p = 0.3 * rng.normal(size=3)
            q = 0.3 * rng.normal(size=3)
            shift = 0.2 * rng.normal(size=3)
            try:
                res = br.gamma_factor(params, p, q, kappa, QUAD, 1e-10,
                                      second_pair=(p + shift, q + shift))
            except Exception:
                continue
            if res.residual is None:
                continue
            assert res.residual <= 1e-7
            checked += 1


def test_criterion_08_cap_consistency():
    with Budget(8, 60, "branch values agree across caps; membership nested"):
        params = make_params()
        p = np.array([0.3, 0.0, 0.0])
        k1 = br.kappa_from_rule(params, p, "fraction", 0.7)
        k2 = br.kappa_from_rule(params, p, "fraction", 0.9)
        rng = np.random.default_rng(88)
        shared = 0
        for _ in range(40):
            q = 0.7 * rng.normal(size=3)
            a = br.dispersion_point(params, p, q, k1, QUAD, 1e-10)
            b = br.dispersion_point(params, p, q, k2, QUAD, 1e-10)
            if a.status != "none":
                assert b.status != "none"
                if a.status == "converged" and b.status == "converged":
                    shared += 1
                    assert abs(a.xi - b.xi) <= 1e-9
        assert shared >= 10


def test_criterion_09_boundary_merge():
    with Budget(9, 120, "gap ladder decreasing; free closed form to 1e-8"):
        params = make_params(alpha=0.0)
        res = br.g0_boundary(params, np.array([1.0, 0.0, 0.0]), QUAD, 1e-10,
                             deltas=(0.1, 0.03, 0.01))
        assert res.status == "converged"
        gaps = [gap for _, gap in res.ladder]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        for dlt, gap in res.ladder:
            expect = math.sqrt(2.0) * dlt - 0.5 * dlt * dlt
            assert gap == pytest.approx(expect, abs=1e-8)


def test_criterion_10_neumann_norm_ratio():
    with Budget(10, 120, "kernel probe norms decay geometrically"):
        params = make_params(alpha=0.1)
        p = np.zeros(3)
        xi = 0.5

        def a(pts):
            pts = np.asarray(pts, dtype=float)
            return 0.5 * np.sum(pts * pts, axis=-1) + params.eps(pts)

        def v(pts):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            return params.coupling.evaluate(p[None, :] - pts, pts)

        def dker(P, Q):
            P = np.atleast_2d(np.asarray(P, dtype=float))
            Q = np.atleast_2d(np.asarray(Q, dtype=float))
            diff = p[None, None, :] - P[:, None, :] - Q[None, :, :]
            num = (params.coupling.evaluate(diff, Q[None, :, :])
                   * params.coupling.evaluate(diff, P[:, None, :]))
            e2 = (0.5 * np.einsum("ijk,ijk->ij", diff, diff)
                  + params.eps(P)[:, None] + params.eps(Q)[None, :])
            return -num / (e2 - xi)

        solver = FriedrichsSolver.from_functions(0.0, params.alpha, v, a,
                                                 QUAD, 3, dker=dker)
        norms = [solver.neumann_kernel(xi, n, h=params.coupling.envelope).norm_sample
                 for n in (1, 2, 3)]
        r21 = norms[1] / norms[0]
        r32 = norms[2] / norms[1]
        assert max(r21 / r32, r32 / r21) < 3.0


def test_criterion_11_contraction_bounds(tmp_path):
    with Budget(11, 1, "alpha0 table reproduces the closed-form bounds"):
        config = tmp_path / "run.ini"
        config.write_text(
            "[model]\ndimension = 3\nalpha = 0.1\nc0 = 0.5\n"
            "[epsilon]\nkind = constant\neps0 = 1.0\n"
            "[coupling]\nkind = separable\namplitude = 1.0\nwidth = 1.0\n"
            "[run]\nkappa-fractions = 0.5 0.7 0.9\n"
        )
        out = tmp_path / "out"
        assert cli_main(["alpha0", "--config", str(config),
                         "--out", str(out)]) == 0
        import csv
        with open(out / "alpha0.csv") as fh:
            rows = list(csv.DictReader(fh))
        hsq = math.pi**1.5
        for row in rows:
            lam2 = float(row["lambda2_proxy"])
            gap = lam2 - float(row["kappa"])
            expect_g = 0.1 * (3.0 + hsq) / gap
            expect_q = 0.1 * math.sqrt(3.0 * hsq) * (1.0 / (0.5 + gap)
                                                     + 1.0 / gap)
            assert float(row["bound_Gamma"]) == pytest.approx(expect_g,
                                                              abs=1e-12)
            assert float(row["bound_Q"]) == pytest.approx(expect_q, abs=1e-12)
            assert float(row["alpha0_Gamma"]) == pytest.approx(
                0.05 / expect_g, abs=1e-12)
            assert float(row["alpha0_Q"]) == pytest.approx(
                0.05 / expect_q, abs=1e-12)


def test_criterion_12_determinism(tmp_path):
    with Budget(12, 60, "identical configs give byte-identical CSV"):
        config = tmp_path / "run.ini"
        config.write_text(
            "[model]\ndimension = 1\nalpha = 0.1\nc0 = 0.5\n"
            "[epsilon]\nkind = constant\neps0 = 1.0\n"
            "[coupling]\nkind = separable\namplitude = 1.0\nwidth = 1.0\n"
            "[quadrature]\nradial-nodes = 24\nangular-degree = 9\n"
            "[grid]\nlambda = 3.0\npoints-per-axis = 15\n"
            "[run]\np-values = 0.0 0.3 0.6\np = 0.0\nq-count = 9\n"
            "q-max = 1.0\ntol = 1e-9\n"
        )
        for command in ("thresholds", "dispersion-scan", "ground-scan"):
            outs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{command}-{tag}"
                assert cli_main([command, "--config", str(config),
                                 "--out", str(out)]) == 0
                outs.append((out / f"{command}.csv").read_bytes())
            assert outs[0] == outs[1]
