import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polaron import CouplingSpec, EpsilonSpec, InputError, ModelParams, grid_measure
from polaron import branches, oracle, roots
from polaron.errors import DomainError, NumericError, ResourceError

from references import oracle_blocks_per_pair, schur_per_sigma, sparse_matrix


def make_params(d=1, alpha=0.1, eps0=1.0, c0=0.5):
    return ModelParams(
        d=d,
        alpha=alpha,
        eps=EpsilonSpec.constant(eps0),
        coupling=CouplingSpec(amplitude=1.0, width=1.0),
        c0=c0,
    )


class TestBuild:
    def test_dimension_count(self):
        params = make_params()
        m = grid_measure(3.0, 9, 1)
        ham = oracle.build(params, np.zeros(1), m, n_max=2)
        assert ham.dim == 1 + 9 + 9 * 10 // 2

    def test_symmetric(self):
        params = make_params(d=2, alpha=0.3)
        m = grid_measure(2.0, 4, 2)
        ham = oracle.build(params, np.array([0.4, 0.1]), m, n_max=2)
        m = ham.matrix
        assert np.array_equal(m, m.T)

    def test_free_diagonal_at_alpha0(self):
        params = make_params(alpha=0.0)
        m = grid_measure(2.0, 5, 1)
        ham = oracle.build(params, np.array([0.3]), m, n_max=2)
        off = ham.matrix - np.diag(np.diag(ham.matrix))
        assert np.abs(off).max() == 0.0
        # diagonal entries are the free energies of the basis states
        assert ham.matrix[0, 0] == pytest.approx(0.045, abs=1e-15)
        e1 = 0.5 * (0.3 - m.points[:, 0]) ** 2 + 1.0
        assert np.diag(ham.matrix)[1:6] == pytest.approx(e1, abs=1e-14)

    def test_single_mode_2x2_closed_form(self):
        # one mode at q=0 with weight 2L: ground eigenvalue
        # (1 - sqrt(1 + 8 L alpha^2)) / 2
        half_width = 3.0
        m = grid_measure(half_width, 1, 1)
        for alpha in (0.1, 0.5):
            params = make_params(alpha=alpha)
            ham = oracle.build(params, np.zeros(1), m, n_max=1)
            vals = oracle.low_spectrum(ham, 2)
            expect = 0.5 * (1.0 - math.sqrt(1.0 + 8.0 * half_width * alpha**2))
            assert vals[0] == pytest.approx(expect, abs=1e-13)

    def test_nmax_variational_monotonicity(self):
        params = make_params(alpha=0.2)
        m = grid_measure(3.0, 11, 1)
        e1 = oracle.low_spectrum(oracle.build(params, np.zeros(1), m, 1), 1)[0]
        e2 = oracle.low_spectrum(oracle.build(params, np.zeros(1), m, 2), 1)[0]
        assert e2 <= e1 <= 0.0

    def test_parity_symmetry(self):
        params = make_params(alpha=0.15)
        m = grid_measure(3.0, 8, 1)
        a = oracle.low_spectrum(oracle.build(params, np.array([0.4]), m, 2), 1)[0]
        b = oracle.low_spectrum(oracle.build(params, np.array([-0.4]), m, 2), 1)[0]
        assert a == pytest.approx(b, abs=1e-13)

    def test_budget(self):
        # a 1-D lattice of 40,000 points needs an h11 of 12.8 GB; the byte
        # budget refuses it before any block is allocated
        params, m = make_params(), grid_measure(3.0, 40_000, 1)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError):
                oracle.build(params, np.zeros(1), m, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("coupling", ["separable", "p-modulated"])
    @pytest.mark.parametrize("d, n_pts", [(1, 300), (2, 12), (3, 5)])
    def test_budget_counts_the_peak(self, d, n_pts, coupling):
        # the bytes counted before the build cover its traced peak, and the
        # peak of one sigma's complement and linear solve on the blocks
        params = replace(make_params(d=d), coupling=CouplingSpec(
            kind=coupling, width=1.2, p_width=0.8 if coupling == "p-modulated" else None))
        p, m = np.full(d, 0.1), grid_measure(2.0, n_pts, d)
        tracemalloc.start()
        try:
            ham = oracle.build(params, p, m, 2)
            s = ham.schur(0.0)
            oracle._solve(s[1:, 1:], ham.h11[0, 1:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= oracle._bytes_needed(ham.h11.shape[0], ham.pair_diag.size)

    @pytest.mark.parametrize("n_max", [1, 2])
    def test_scaled_equals_build(self, n_max):
        # build assembles at unit coupling and scales, so a ladder scaled
        # from one unit-coupling matrix is each rung's build, bit for bit
        params = replace(make_params(d=2), eps=EpsilonSpec.relativistic(1.0, 0.5))
        p, m = np.array([0.3, -0.1]), grid_measure(2.0, 4, 2)
        unit = oracle.build(replace(params, alpha=1.0), p, m, n_max)
        for alpha in (0.0, 0.05, 0.2, 0.3):
            ham = oracle.build(replace(params, alpha=alpha), p, m, n_max)
            rung = unit.scaled(alpha)
            assert np.array_equal(rung.h11, ham.h11)
            assert np.array_equal(rung.pair_amps, ham.pair_amps)
            assert np.array_equal(rung.pair_diag, ham.pair_diag)
            assert np.array_equal(rung.pair_rows, ham.pair_rows)

    @pytest.mark.parametrize("n_max", [1, 2])
    @pytest.mark.parametrize("coupling", ["separable", "p-modulated"])
    @pytest.mark.parametrize("eps", ["constant", "relativistic", "tabulated"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_blocks_equal_per_pair_assembly(self, d, eps, coupling, n_max):
        # eps, |q|^2 and a separable c taken once per lattice point and
        # gathered per pair give the per-pair evaluation bit for bit; in
        # d = 3 the lattice reaches past the table's last knot
        params = replace(make_params(d=d, alpha=0.2), eps={
            "constant": EpsilonSpec.constant(1.0),
            "relativistic": EpsilonSpec.relativistic(1.0, 0.5),
            "tabulated": EpsilonSpec.tabulated([0.0, 1.0, 2.0, 3.0], [1.0, 1.2, 1.7, 2.6]),
        }[eps], coupling=CouplingSpec(kind=coupling, width=1.2, p_width=(
            0.8 if coupling == "p-modulated" else None)))
        p = np.array([0.3, -0.2, 0.1][:d])
        m = grid_measure(*{1: (3.0, 9), 2: (2.0, 5), 3: (2.5, 4)}[d], d)
        ham = oracle.build(params, p, m, n_max)
        blocks = (ham.h11, ham.pair_diag, ham.pair_rows, ham.pair_amps)
        for got, ref in zip(blocks, oracle_blocks_per_pair(params, p, m, n_max)):
            assert np.array_equal(got, ref)

    def test_scaled_to_zero_is_free(self):
        ham = oracle.build(make_params(d=3, alpha=0.2), np.array([0.1, 0.0, -0.2]),
                           grid_measure(3.0, 4, 3)).scaled(0.0)
        assert np.array_equal(ham.h11, np.diag(np.diag(ham.h11)))
        assert not ham.pair_amps.any()

    def test_bad_nmax(self):
        params = make_params()
        with pytest.raises(InputError):
            oracle.build(params, np.zeros(1), grid_measure(3.0, 5, 1), 3)


class TestComparisons:
    def test_ground_agreement_improves_with_alpha(self):
        params = make_params()
        m = grid_measure(3.0, 15, 1)
        comp = oracle.compare_ground(params, np.zeros(1), m, 0.9,
                                     alphas=(0.2, 0.1), tol=1e-10)
        diffs = [r.diff for r in comp.rows]
        assert diffs[1] < diffs[0]
        # fourth-order envelope: halving alpha shrinks the gap by >= 8x
        assert diffs[0] / diffs[1] >= 8.0

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("p", [[0.0, 0.0, 0.0], [0.0, 0.0, 0.4]])
    def test_neumann_order_law(self, order, p):
        # the order-n Neumann sum drops terms of order alpha^(2n+2) inside
        # an alpha^2 prefactor, so the matched solver-oracle gap is
        # O(alpha^(2n+4)): halving alpha shrinks it by about 2^(2n+4)
        params = make_params(d=3)
        m = grid_measure(3.0, 5, 3)
        comp = oracle.compare_ground(params, np.array(p), m, 0.9,
                                     alphas=(0.1, 0.05), neumann_order=order,
                                     tol=1e-10)
        diffs = [r.diff for r in comp.rows]
        assert diffs[0] / diffs[1] >= 2.0 ** (2 * order + 4) / 1.5
        scaled = [r.diff_scaled for r in comp.rows]
        assert max(scaled) / min(scaled) < 1.5

    def test_dispersion_match(self):
        params = make_params()
        m = grid_measure(3.0, 15, 1)
        kappa = 1.6
        q = m.points[9]
        comp = oracle.compare_dispersion(params, np.zeros(1), m, kappa, q,
                                         tol=1e-9)
        assert comp.matched
        assert comp.gap < 5e-3

    def test_dispersion_off_grid_rejected(self):
        params = make_params()
        m = grid_measure(3.0, 15, 1)
        with pytest.raises(InputError):
            oracle.compare_dispersion(params, np.zeros(1), m, 1.6,
                                      np.array([0.123]))


# p = 0 and p on an axis keep lattice symmetries with repeated
# eigenvalues; the generic p has none
SYMMETRY_CASES = [np.zeros(3), np.array([0.3, 0.0, 0.0]),
                  np.array([0.1, 0.2, 0.05])]


def lattice_4cubed_case():
    """A 4^3 dispersion comparison: q is a lattice point nearest the
    origin and p lies close enough to it for q to be a member."""
    params = make_params(d=3)
    m = grid_measure(3.0, 4, 3)
    q = m.points[np.argmin(np.linalg.norm(m.points, axis=1))]
    p = q + np.array([0.1, -0.05, 0.2])
    kappa = branches.kappa_from_rule(params, p, "fraction", 0.9)
    return params, p, m, kappa, q


# (half-width, points per axis) of a small lattice in each dimension
SMALL_LATTICES = {1: (3.0, 7), 2: (2.0, 4), 3: (2.0, 3)}


def small_params(d, eps, alpha):
    params = make_params(d=d, alpha=alpha)
    if eps == "relativistic":
        params = replace(params, eps=EpsilonSpec.relativistic(1.0, 0.5))
    return params


def schur_root_case(d, eps, alpha, p):
    """A small lattice Hamiltonian, its n_max = 1 spectrum and D_min."""
    ham = oracle.build(small_params(d, eps, alpha), np.array(p[:d]),
                       grid_measure(*SMALL_LATTICES[d], d), 2)
    return ham, np.linalg.eigvalsh(ham.h11), float(ham.pair_diag.min())


class TestSchurRoots:
    """The two facts `low_spectrum`'s root search rests on: Weyl's bound
    g_j(lambda_j(h11)) <= 0, and the slope bound dg_j/dsigma <= -1 below
    D_min.  Both hold up to rounding: 1e-13 at the scale of the matrix,
    which grows as (D_min - sigma)^-1."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([1, 2, 3]), eps=st.sampled_from(["constant", "relativistic"]),
           alpha=st.floats(0.0, 0.3), p=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    def test_free_spectrum_bounds_each_root(self, d, eps, alpha, p):
        ham, free, d_min = schur_root_case(d, eps, alpha, p)
        for j in np.flatnonzero(free < d_min):
            assert np.linalg.eigvalsh(ham.schur(free[j]))[j] <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([1, 2, 3]), eps=st.sampled_from(["constant", "relativistic"]),
           alpha=st.floats(0.0, 0.3), p=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
           u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
    def test_eigenvalues_fall_with_slope_at_least_one(self, d, eps, alpha, p, u, v):
        ham, free, d_min = schur_root_case(d, eps, alpha, p)
        # sigma < sigma' < D_min, sampled on [lambda_0(h11) - 1, D_min)
        lo = free[0] - 1.0
        sigma, sigma_p = sorted(d_min - (d_min - lo) * np.array([u, v]) ** 2)
        assume(sigma < sigma_p < d_min)
        s_p = ham.schur(sigma_p)
        g, g_p = np.linalg.eigvalsh(ham.schur(sigma)), np.linalg.eigvalsh(s_p)
        assert np.all(g - g_p >= sigma_p - sigma - 1e-13 * max(1.0, np.abs(s_p).max()))


    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([1, 2, 3]), eps=st.sampled_from(["constant", "relativistic"]),
           alpha=st.just(0.0) | st.floats(0.0, 0.3),
           p=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    def test_secular_start_is_the_least_free_eigenvalue(self, d, eps, alpha, p):
        # root 0 starts at the secular root of h11, or at its eigensolve
        # where a coupling is 0; there g_0 reads at most half the tolerance
        # under which `low_spectrum` counts it as zero
        ham, free, d_min = schur_root_case(d, eps, alpha, p)
        least = oracle._least_free(ham.h11)
        if alpha == 0.0:
            assert least is None
        start = free[0] if least is None else least
        assert abs(start - free[0]) <= 1e-14 * max(1.0, abs(free[0]))
        s = min(start, d_min - oracle._STANDOFF)
        tol = roots.XTOL + roots.RTOL * abs(s)
        assert np.linalg.eigvalsh(ham.schur(s))[0] <= 0.5 * tol

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([1, 2, 3]), eps=st.sampled_from(["constant", "relativistic"]),
           alpha=st.just(0.0) | st.floats(0.0, 0.3),
           p=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    def test_secular_ground_matches_dense(self, d, eps, alpha, p):
        # the ground level is the dense least eigenvalue; where the start
        # lies below D_min - _STANDOFF with M(s0) positive definite it comes
        # from the vacuum's secular Newton, whose iterates fall from s0 with
        # slope at most -1 and whose f(s0) is at most a root tolerance
        ham, free, d_min = schur_root_case(d, eps, alpha, p)
        runs, newton = [], roots.monotone_newton

        def traced(f, slope, x, tol):
            xs, fs, slopes = [], [], []

            def f_t(s):
                xs.append(s)
                fs.append(f(s))
                return fs[-1]

            def slope_t(s):
                slopes.append(slope(s))
                return slopes[-1]

            runs.append((xs, fs, slopes))
            return newton(f_t, slope_t, x, tol)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(roots, "monotone_newton", traced)
            e0 = oracle.low_spectrum(ham, 1)[0]
        assert abs(e0 - np.linalg.eigvalsh(ham.matrix)[0]) <= 1e-12
        s0 = oracle._least_free(ham.h11)
        secular = (s0 is not None and s0 < d_min - oracle._STANDOFF
                   and np.linalg.eigvalsh(ham.schur(s0)[1:, 1:])[0] > 0.0)
        # `_least_free` runs its Newton where every coupling is nonzero
        assert len(runs) == int(ham.h11[0, 1:].all()) + int(secular)
        if secular:
            xs, fs, slopes = runs[-1]
            assert xs[0] == s0 and xs[-1] == e0
            assert all(b < a for a, b in zip(xs, xs[1:]))
            assert all(g <= -1.0 for g in slopes)
            assert fs[0] <= roots.XTOL + roots.RTOL * abs(s0)

    def test_secular_fallbacks_match_dense(self):
        # a zero coupling, and a vacuum above the least one-boson energy at a
        # coupling too weak to pull the secular root _STANDOFF below it: the
        # start comes from the eigensolve of h11
        m = grid_measure(3.0, 7, 1)
        for ham in (oracle.build(make_params(alpha=0.2), np.array([0.3]), m).scaled(0.0),
                    oracle.build(make_params(alpha=1e-6), np.array([2.0]), m)):
            assert oracle._least_free(ham.h11) is None
            dense = np.linalg.eigvalsh(ham.matrix)[0]
            assert abs(oracle.low_spectrum(ham, 1)[0] - dense) <= 1e-12


# the oracle-matched 4^3 comparisons at two seeds of the benchmark, rounded:
# ground momentum, dispersion lattice momentum q, the offset p - q, the
# linear solves of the window's root, one per sigma, and the linear solves
# of each ground rung
MATCHED_CASES = [((0.053, 0.021, -0.085), (-0.75, -0.75, 0.75), (-0.078, 0.085, 0.053), 4,
                  (4, 3, 3)),
                 ((0.038, -0.035, -0.114), (-0.75, -0.75, -0.75), (0.011, 0.246, -0.090), 4,
                  (4, 3, 4))]


class TestSolveCounts:
    """Dense factorizations per call, counted by patching `_eigvalsh`,
    `_positive_definite` and `_solve`: as (eigensolves, Cholesky
    factorizations, linear solves).  An eigensolve of h11 where the
    secular equation does not give its least eigenvalue, then one of S at
    each sigma of the root search; the secular ground level instead takes
    one Cholesky at its start and one solve at each sigma, and a window's
    one eigenvalue one solve at each sigma.  Builds per comparison."""

    @staticmethod
    def record(monkeypatch):
        counts, calls = [0, 0, 0], []

        def counted(i, fn):
            def wrapped(*args):
                counts[i] += 1
                return fn(*args)
            return wrapped

        def recorded(name, fn):
            def wrapped(*args, **kwargs):
                counts[:] = [0, 0, 0]
                out = fn(*args, **kwargs)
                calls.append((name, *counts))
                return out
            monkeypatch.setattr(oracle, name, wrapped)

        for i, name in enumerate(("_eigvalsh", "_positive_definite", "_solve")):
            monkeypatch.setattr(oracle, name, counted(i, getattr(oracle, name)))
        for name in ("build", "low_spectrum", "_count_below", "_window_root"):
            recorded(name, getattr(oracle, name))
        return calls

    @pytest.mark.parametrize("p_ground, q, offset, window, ground", MATCHED_CASES,
                             ids=["seed1", "seed7"])
    def test_matched_4cubed_pass(self, monkeypatch, p_ground, q, offset, window, ground):
        params, m = make_params(d=3), grid_measure(3.0, 4, 3)
        p_disp = np.add(q, offset)
        kappa = branches.kappa_from_rule(params, p_disp, "fraction", 0.9)
        calls = self.record(monkeypatch)
        oracle.compare_ground(params, np.array(p_ground), m, 0.9, (0.2, 0.1, 0.05))
        comp = oracle.compare_dispersion(params, p_disp, m, kappa, np.array(q))
        # one build per ladder; each ground rung starts at the secular root
        # of h11, certifies it with one Cholesky and takes one solve per
        # sigma of the vacuum's secular Newton, with no eigensolve.  The
        # window's ends take one inertia count each; its one root, index 1,
        # takes one solve per sigma of the inverse-iteration Newton from the
        # top count's spectrum, with no eigensolve and no `low_spectrum`,
        # and the ground root below the window is not solved
        assert comp.window_count == 1
        assert calls == [("build", 0, 0, 0), *[("low_spectrum", 0, 1, n) for n in ground],
                         ("build", 0, 0, 0), ("_count_below", 1, 0, 0),
                         ("_count_below", 1, 0, 0), ("_window_root", 0, 0, window)]

    @pytest.mark.parametrize("k", [1, 4])
    def test_free_start_is_the_root(self, monkeypatch, k):
        # at alpha = 0, g_j(lambda_j(h11)) = 0: each root is its start, one
        # sigma after the eigensolve of h11, with no sample beyond it.  The
        # generic p leaves the one-boson energies distinct.
        ham = oracle.build(make_params(d=3, alpha=0.2), np.array([0.1, 0.03, -0.2]),
                           grid_measure(3.0, 4, 3)).scaled(0.0)
        calls = self.record(monkeypatch)
        vals = oracle.low_spectrum(ham, k)
        assert calls == [("low_spectrum", 1 + k, 0, 0)]
        assert np.array_equal(vals, np.sort(ham.h11.diagonal())[:k])

    @pytest.mark.parametrize("d, alpha, p, eigensolves", [
        (3, 2.0, (0.2, 0.2, 0.2), 8), (1, 3.0, (0.0,), 7)], ids=["4cubed", "d1"])
    def test_strong_coupling_falls_back(self, monkeypatch, d, alpha, p, eigensolves):
        # the secular start lies below D_min - _STANDOFF, but M(s0) is not
        # positive definite: the start's Cholesky fails, no solve is made,
        # and the ground level comes from the root search on g_0
        lattice = {1: (3.0, 7), 3: (3.0, 4)}[d]
        ham = oracle.build(make_params(d=d, alpha=alpha), np.array(p), grid_measure(*lattice, d))
        least = oracle._least_free(ham.h11)
        assert least is not None and least < ham.pair_diag.min() - oracle._STANDOFF
        calls = self.record(monkeypatch)
        e0 = oracle.low_spectrum(ham, 1)[0]
        assert calls == [("low_spectrum", eigensolves, 1, 0)]
        assert abs(e0 - np.linalg.eigvalsh(ham.matrix)[0]) <= 1e-12

    def test_ladder_builds_once(self, monkeypatch):
        params, m = make_params(d=3), grid_measure(3.0, 4, 3)
        p, alphas = np.array([0.1, 0.0, -0.2]), (0.2, 0.1, 0.05, 0.025)
        expect = [oracle.low_spectrum(oracle.build(replace(params, alpha=a), p, m), 1)[0]
                  for a in alphas]
        calls = self.record(monkeypatch)
        comp = oracle.compare_ground(params, p, m, 0.9, alphas)
        assert [name for name, *_ in calls].count("build") == 1
        assert [r.oracle_e0 for r in comp.rows] == expect


def window_case(d, eps, alpha, offset, on_axis):
    """A small lattice dispersion case: q is the lattice point nearest the
    origin and p = q + offset, or p on the first axis and q the lattice
    point nearest it."""
    m = grid_measure(*SMALL_LATTICES[d], d)
    if on_axis:
        p = np.zeros(d)
        p[0] = offset[0]
        q = m.points[np.argmin(np.linalg.norm(m.points - p, axis=1))]
    else:
        q = m.points[np.argmin(np.linalg.norm(m.points, axis=1))]
        p = q + np.array(offset[:d])
    return small_params(d, eps, alpha), p, m, q


class TestWindowRoot:
    """`compare_dispersion`'s eigenvalues in its window [lambda1 - tol,
    kappa).  Where the inertia counts put one there and kappa lies below
    D_min - _STANDOFF, `_window_root` solves it with no eigensolve beyond
    the two counts; otherwise, or where it certifies no root, it comes
    from `low_spectrum`.  Which path ran is read from counters patched
    onto `_eigvalsh`, `_window_root` and `low_spectrum`."""

    @staticmethod
    def compare(mp, params, p, m, kappa, q, n_max):
        """The comparison, the eigensolves it made, each `_window_root`
        result and the number of `low_spectrum` calls."""
        log = {"eigensolves": 0, "roots": [], "low_spectrum": 0}
        eigvalsh, window_root, low_spectrum = (
            oracle._eigvalsh, oracle._window_root, oracle.low_spectrum)

        def counted_eigvalsh(*args):
            log["eigensolves"] += 1
            return eigvalsh(*args)

        def recorded_root(*args):
            log["roots"].append(window_root(*args))
            return log["roots"][-1]

        def counted_low_spectrum(*args, **kwargs):
            log["low_spectrum"] += 1
            return low_spectrum(*args, **kwargs)

        mp.setattr(oracle, "_eigvalsh", counted_eigvalsh)
        mp.setattr(oracle, "_window_root", recorded_root)
        mp.setattr(oracle, "low_spectrum", counted_low_spectrum)
        comp = oracle.compare_dispersion(params, p, m, kappa, q, n_max=n_max, tol=1e-10)
        return comp, log

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([1, 2, 3]), eps=st.sampled_from(["constant", "relativistic"]),
           alpha=st.just(0.0) | st.floats(0.0, 0.3), n_max=st.sampled_from([1, 2]),
           offset=st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3),
           on_axis=st.booleans(), fraction=st.sampled_from([0.3, 0.5, 0.7, 0.9]))
    def test_window_matches_dense(self, d, eps, alpha, n_max, offset, on_axis, fraction):
        params, p, m, q = window_case(d, eps, alpha, offset, on_axis)
        try:
            kappa = branches.kappa_from_rule(params, p, "fraction", fraction)
            with pytest.MonkeyPatch.context() as mp:
                comp, log = self.compare(mp, params, p, m, kappa, q, n_max)
        except (DomainError, InputError):
            assume(False)
        ham = oracle.build(params, p, m, n_max)
        dense = np.linalg.eigvalsh(ham.matrix)
        lo, hi = comp.window
        inside = dense[(dense >= lo) & (dense < hi)]
        assert comp.window_count == inside.size
        if inside.size:
            nearest = inside[np.argmin(np.abs(inside - comp.solver_xi))]
            assert abs(comp.nearest_eigenvalue - nearest) <= 1e-12
        # `_window_root` runs on every one-eigenvalue window, and returns
        # None where kappa reaches D_min - _STANDOFF
        assert len(log["roots"]) == int(comp.window_count == 1)
        if ham.pair_diag.size and kappa >= ham.pair_diag.min() - oracle._STANDOFF:
            assert log["roots"] in ([], [None])
        solved = log["roots"] not in ([], [None])
        assert log["low_spectrum"] == int(comp.window_count > 0 and not solved)
        if solved:
            assert log["eigensolves"] == 2
            assert comp.nearest_eigenvalue == log["roots"][0]

    @pytest.mark.parametrize("d, eps, alpha, n_max, offset, on_axis, fraction, eigensolves", [
        (3, "constant", 0.1, 2, (0.1, -0.05, 0.2), False, 0.9, 2),
        (3, "relativistic", 0.1, 2, (0.3, 0.0, 0.0), True, 0.9, 2),
        (1, "relativistic", 0.2, 2, (0.2, 0.0, 0.0), True, 0.5, 2),
        (3, "constant", 0.1, 1, (0.2, 0.0, 0.0), True, 0.9, 2),
        (3, "constant", 0.0, 2, (0.2, 0.0, 0.0), True, 0.5, 4),
        (3, "relativistic", 0.0, 1, (0.2, 0.0, 0.0), True, 0.5, 3),
    ], ids=["generic", "axis-relativistic", "d1", "nmax1", "alpha0", "alpha0-nmax1"])
    def test_paths(self, d, eps, alpha, n_max, offset, on_axis, fraction, eigensolves):
        # one eigenvalue in each window.  At alpha = 0, S(sigma) is
        # diagonal and the bracket's lower end kappa + g_j(kappa) rounds to
        # the root, where S is singular: the solve fails, and `low_spectrum`
        # takes the eigensolve of h11 and, at n_max = 2, one of S at the
        # start, where g_j reads 0.  With n_max = 1, S(sigma) = h11 - sigma
        # and the lower end is the root up to rounding.
        params, p, m, q = window_case(d, eps, alpha, offset, on_axis)
        kappa = branches.kappa_from_rule(params, p, "fraction", fraction)
        with pytest.MonkeyPatch.context() as mp:
            comp, log = self.compare(mp, params, p, m, kappa, q, n_max)
        dense = np.linalg.eigvalsh(oracle.build(params, p, m, n_max).matrix)
        (nearest,) = dense[(dense >= comp.window[0]) & (dense < comp.window[1])]
        assert comp.window_count == 1 and len(log["roots"]) == 1
        assert (log["roots"][0] is not None) == (eigensolves == 2)
        assert log["eigensolves"] == eigensolves
        assert log["low_spectrum"] == int(eigensolves > 2)
        assert abs(comp.nearest_eigenvalue - nearest) <= 1e-12

    @pytest.mark.parametrize("change, solved", [
        (lambda u: u * (1e300 / np.abs(u).max()), True),
        (lambda u: np.full_like(u, np.nan), False)],
        ids=["huge", "nan"])
    def test_solve_out_of_range(self, change, solved):
        # near its root S(sigma) is nearly singular, so the inverse
        # iteration's solves grow large: one whose largest entry is 1e300
        # still normalizes without overflow, and a solve that is not finite, as
        # a subnormal pivot gives, leaves the eigenvalue to `low_spectrum`
        params, p, m, q = window_case(3, "constant", 0.1, (0.1, -0.05, 0.2), False)
        kappa = branches.kappa_from_rule(params, p, "fraction", 0.9)
        solve = oracle._solve
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_solve", lambda a, b: change(solve(a, b)))
            comp, log = self.compare(mp, params, p, m, kappa, q, 2)
        dense = np.linalg.eigvalsh(oracle.build(params, p, m).matrix)
        (nearest,) = dense[(dense >= comp.window[0]) & (dense < comp.window[1])]
        assert (log["roots"][0] is not None) == solved
        assert log["low_spectrum"] == int(not solved)
        assert abs(comp.nearest_eigenvalue - nearest) <= 1e-12


class TestSparse:
    @pytest.mark.parametrize("eps", ["constant", "relativistic"])
    def test_schur_equals_per_sigma_assembly(self, eps):
        # the index and amplitude products held once per matrix give the
        # complement assembled afresh at each sigma, bit for bit
        params = make_params(d=3, alpha=0.2)
        if eps == "relativistic":
            params = replace(params, eps=EpsilonSpec.relativistic(1.0, 0.5))
        ham = oracle.build(params, np.array([0.1, -0.05, 0.15]),
                           grid_measure(3.0, 4, 3), 2)
        d_min = float(ham.pair_diag.min())
        for sigma in (-1.0, 0.0, 0.5 * d_min, d_min - 1e-3, d_min + 0.05):
            assert np.array_equal(ham.schur(sigma), schur_per_sigma(ham, sigma))

    @pytest.mark.parametrize("p", SYMMETRY_CASES, ids=["zero", "axis", "generic"])
    def test_low_spectrum_matches_dense(self, p):
        params = make_params(d=3, alpha=0.1)
        ham = oracle.build(params, p, grid_measure(2.0, 3, 3), n_max=2)
        dense = np.linalg.eigvalsh(ham.matrix)
        for k in range(1, 9):
            assert np.abs(oracle.low_spectrum(ham, k) - dense[:k]).max() <= 1e-12

    @pytest.mark.parametrize("n_max", [1, 2])
    def test_inertia_count_matches_dense(self, n_max):
        params = make_params(d=2, alpha=0.3)
        ham = oracle.build(params, np.zeros(2), grid_measure(3.0, 5, 2), n_max)
        dense = np.linalg.eigvalsh(ham.matrix)
        for sigma in (-1.0, 0.5, 1.2, 1.6, 2.5, 3.5):
            count, spectrum = oracle._count_below(ham, sigma)
            assert count == np.count_nonzero(dense < sigma)
            assert np.array_equal(spectrum, np.linalg.eigvalsh(ham.schur(sigma)))

    def test_eigensolver_error_is_numeric_error(self, monkeypatch):
        # the ground level alone takes no eigensolve, so three levels
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        ham = oracle.build(make_params(), np.zeros(1), grid_measure(3.0, 9, 1), 2)
        with pytest.raises(NumericError):
            oracle.low_spectrum(ham, 3)

    def test_solver_error_is_numeric_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", fail)
        ham = oracle.build(make_params(), np.zeros(1), grid_measure(3.0, 9, 1), 2)
        with pytest.raises(NumericError):
            oracle.low_spectrum(ham, 1)

    def test_failed_start_factorization_falls_back(self, monkeypatch):
        # a Cholesky that fails is no error: the ground level comes from
        # the root search on g_0
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        ham = oracle.build(make_params(), np.zeros(1), grid_measure(3.0, 9, 1), 2)
        dense = np.linalg.eigvalsh(ham.matrix)[0]
        monkeypatch.setattr(np.linalg, "cholesky", fail)
        assert abs(oracle.low_spectrum(ham, 1)[0] - dense) <= 1e-12

    def test_three_lowest_match_dense_d1(self):
        ham = oracle.build(make_params(), np.zeros(1), grid_measure(3.0, 9, 1), 2)
        vals = oracle.low_spectrum(ham, 3)
        dense = np.linalg.eigvalsh(ham.matrix)[:3]
        assert np.abs(vals - dense).max() <= 1e-12

    @pytest.mark.parametrize("n_max", [1, 2])
    def test_schur_matches_dense_complement(self, n_max):
        # S(sigma) = H11 - sigma - B (D - sigma)^-1 B^T from the dense
        # matrix, below the least pair energy D_min and between pair energies
        ham = oracle.build(make_params(d=2, alpha=0.3), np.array([0.4, 0.1]),
                           grid_measure(2.0, 4, 2), n_max)
        h, n1 = ham.matrix, ham.h11.shape[0]
        b, pair = h[:n1, n1:], np.diag(h)[n1:]
        levels = np.unique(pair)
        sigmas = [-0.5, 0.9]
        if n_max == 2:
            sigmas += [levels[0] - 1e-3, 0.5 * (levels[3] + levels[4])]
            assert sigmas[-1] > ham.pair_diag.min()
        for sigma in sigmas:
            dense = h[:n1, :n1] - sigma * np.eye(n1) - (b / (pair - sigma)) @ b.T
            assert np.abs(ham.schur(sigma) - dense).max() <= 1e-13 * max(
                1.0, np.abs(dense).max())

    @pytest.mark.parametrize("p", SYMMETRY_CASES, ids=["zero", "axis", "generic"])
    @pytest.mark.parametrize("alpha", [0.05, 0.2])
    @pytest.mark.parametrize("eps", ["constant", "relativistic"])
    def test_every_root_matches_dense_4cubed(self, p, alpha, eps):
        # every eigenvalue below the stand-off from D_min is a Schur root;
        # with constant eps at alpha = 0.05 four lie within it, left out here
        params = replace(make_params(d=3, alpha=alpha), eps=(
            EpsilonSpec.constant(1.0) if eps == "constant"
            else EpsilonSpec.relativistic(1.0, 0.5)))
        ham = oracle.build(params, p, grid_measure(3.0, 4, 3), n_max=2)
        dense = np.linalg.eigvalsh(ham.matrix)
        k = int(np.count_nonzero(dense < ham.pair_diag.min() - oracle._STANDOFF))
        assert k >= 9
        assert np.abs(oracle.low_spectrum(ham, k) - dense[:k]).max() <= 1e-12

    def test_dense_fallback_size_guard(self, monkeypatch):
        # k = dim reaches D_min, so it needs the dense matrix: on the 5^3
        # lattice (dim 8001) that exceeds the byte budget
        def refuse(self):
            raise AssertionError("dense matrix requested")

        monkeypatch.setattr(oracle.TruncatedHamiltonian, "matrix", property(refuse))
        ham = oracle.build(make_params(d=3), np.zeros(3), grid_measure(3.0, 5, 3))
        assert ham.dim == 8001
        with pytest.raises(ResourceError):
            oracle.low_spectrum(ham, ham.dim)

    @pytest.mark.parametrize("case", ["d1", "4cubed"])
    def test_dispersion_window_matches_dense_recount(self, case):
        if case == "d1":
            params, p, m = make_params(), np.zeros(1), grid_measure(3.0, 15, 1)
            kappa, q = 1.6, m.points[9]
        else:
            params, p, m, kappa, q = lattice_4cubed_case()
        comp = oracle.compare_dispersion(params, p, m, kappa, q, tol=1e-9)
        dense = np.linalg.eigvalsh(oracle.build(params, p, m).matrix)
        lo, hi = comp.window
        inside = dense[(dense >= lo) & (dense <= hi)]
        assert comp.window_count == inside.size > 0
        nearest = inside[np.argmin(np.abs(inside - comp.solver_xi))]
        assert comp.nearest_eigenvalue == pytest.approx(nearest, abs=1e-12)

    def test_window_roots_match_lanczos_5cubed(self):
        # the roots n_lo, ..., n_hi - 1 between the window's inertia counts
        # are the eigenvalues in the window; on the 5^3 lattice (dim 8001)
        # the dense matrix alone would take 0.5 GB, so Lanczos on the
        # matrix's sparse form is the reference
        from scipy.sparse.linalg import eigsh

        params, m = make_params(d=3), grid_measure(2.5, 5, 3)
        q = m.points[np.argmin(np.linalg.norm(m.points, axis=1))]
        p = q + np.array([0.1, -0.05, 0.2])
        kappa = branches.kappa_from_rule(params, p, "fraction", 0.9)
        comp = oracle.compare_dispersion(params, p, m, kappa, q, tol=1e-9)
        ham = oracle.build(params, p, m)
        lo, hi = comp.window
        (n_lo, _), (n_hi, _) = oracle._count_below(ham, lo), oracle._count_below(ham, hi)
        window = oracle.low_spectrum(ham, n_hi, first=n_lo)
        ref = np.sort(eigsh(sparse_matrix(ham), k=n_hi + 2, which="SA",
                            v0=np.ones(ham.dim), tol=0.0)[0])
        inside = ref[(ref >= lo) & (ref <= hi)]
        assert comp.window_count == n_hi - n_lo == inside.size == 3
        assert np.abs(window - inside).max() <= 1e-12
        assert np.array_equal(window, oracle.low_spectrum(ham, n_hi)[n_lo:])
        assert comp.nearest_eigenvalue == window[np.argmin(np.abs(window - comp.solver_xi))]

    def test_empty_window_solves_no_root(self, monkeypatch):
        # kappa lies between the solved xi at q = 0 and the oracle level
        # above it, so the window holds no eigenvalue
        params, p, m = make_params(), np.zeros(1), grid_measure(3.0, 15, 1)
        q = m.points[7]
        assert q[0] == 0.0
        dense = np.linalg.eigvalsh(oracle.build(params, p, m).matrix)

        def refuse(*args, **kwargs):
            raise AssertionError("a root was solved")

        monkeypatch.setattr(oracle, "low_spectrum", refuse)
        comp = oracle.compare_dispersion(params, p, m, 0.9853, q, tol=1e-9)
        lo, hi = comp.window
        assert lo < comp.solver_xi < hi
        assert not np.any((dense >= lo) & (dense <= hi))
        assert (comp.window_count, comp.matched, comp.nearest_eigenvalue) == (0, False, None)

    def test_solvers_never_densify(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense matrix requested")

        monkeypatch.setattr(oracle.TruncatedHamiltonian, "matrix", property(refuse))
        params = make_params()
        m = grid_measure(3.0, 15, 1)
        comp = oracle.compare_ground(params, np.zeros(1), m, 0.9,
                                     alphas=(0.2, 0.1), tol=1e-10)
        assert len(comp.rows) == 2
        assert oracle.compare_dispersion(params, np.zeros(1), m, 1.6,
                                         m.points[9], tol=1e-9).matched
        assert oracle.compare_dispersion(*lattice_4cubed_case(), tol=1e-9).matched
