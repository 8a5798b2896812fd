"""The shared fixed-point kernel: transform count, best iterate, non-finite stops,
bit-identity with the allocating loop, the work-array contract of rhs, and
the preconditioned step for maps that declare a linear part at infinity."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from beltrami import (
    AutonomousMap,
    CCParams,
    FullMap,
    GridField,
    GridSpec,
    SolveReport,
    abs_map,
    cc_residual,
    derivative_pair,
    linear_map,
    lp_norm,
    random_trig_field,
    residual,
    smooth_saturating_map,
    solve_autonomous,
    solve_cc_changevar,
    solve_cc_neumann,
    solve_full,
    trig_field,
    z_grid,
)
from beltrami import autonomous, fullnonlinear
from beltrami.cli import parse_map
from beltrami.fixedpoint import picard_solve
from beltrami.operators import _multipliers

from _helpers import rel_l2

SPEC = GridSpec(16)
# built outside the counted solves: trig_field itself calls ifft2
FORCING = random_trig_field(SPEC, seed=1, amplitude=0.5)


def full_residual(H, f):
    """||f_zbar - H(z, f, f_z)||_2 recomputed from the spectral derivative pair."""
    fz, fzb = derivative_pair(f)
    r = fzb.values - H.eval(z_grid(f.spec), f.total_values(), fz.values)
    return float(np.sqrt(np.mean(np.abs(r) ** 2)))


class TestTransformCount:
    # Each step runs fft2(r) and an inverse transform of R * beurling for psi
    # (np.fft.ifftn, which fft_counts counts under "ifft2"); reading the
    # field f adds ifft2(R / dzbar).  After the loop one ifft2 builds the
    # returned field's periodic part from the best iterate's spectrum:
    #   gradient-only:  fft2 = I, ifft2 = I + 1   (2 I + 1 in all)
    #   full map:       fft2 = I, ifft2 = 2 I + 1 (3 I + 1 in all)
    # A preconditioned step transforms the right-hand side it just evaluated,
    # so the start's spectrum is one more fft2 before the loop:
    #   linear part:    fft2 = I + 1, ifft2 = I + 1 (2 I + 2 in all)

    def test_autonomous_two_per_step(self, fft_counts):
        _, rep = solve_autonomous(abs_map(0.5), FORCING, 1.0, tol=1e-10)
        it = rep.iterations
        assert it > 10
        assert fft_counts == {"fft2": it, "ifft2": it + 1}

    def test_neumann_two_per_step(self, fft_counts):
        _, rep = solve_cc_neumann(CCParams(0.3, 0.2j), FORCING, 1.0, tol=1e-10)
        assert rep.iterations == 2
        assert fft_counts == {"fft2": 3, "ifft2": 3}

    def test_smoothsat_two_per_step(self, fft_counts):
        A = smooth_saturating_map(0.5, 0.2j, 0.2)
        _, rep = solve_autonomous(A, FORCING, 1.0, tol=1e-13)
        it = rep.iterations
        assert it > 10 and rep.converged and not rep.notes
        assert fft_counts == {"fft2": it + 1, "ifft2": it + 1}

    @pytest.mark.parametrize("h", [None, FORCING], ids=["unforced", "forced"])
    def test_full_map_reads_field_every_step(self, h, fft_counts):
        H = FullMap(eval=lambda z, w, zeta: 0.3 * zeta + 0.05 * w / (1 + np.abs(w)),
                    k=0.3)
        _, rep = solve_full(H, 1.0, tol=1e-10, spec=SPEC, h=h)
        it = rep.iterations
        assert it > 10
        assert fft_counts == {"fft2": it, "ifft2": 2 * it + 1}


class TestBestIterate:
    def test_best_iterate_returned_on_nonconvergence(self):
        spec = GridSpec(32)
        H = parse_map("linear:0.9,0,0,0+wterm:50,0+zterm:5,0,1,0", spec.L)
        f, rep = solve_full(H, 1.0, max_iter=60, spec=spec)
        assert not rep.converged
        assert rep.iterations == 60
        best = min(rep.residual_history)
        # the residual is least at the first step and grows afterwards
        assert rep.residual_history[0] == best
        assert rep.residual_history[-1] > 10 * best
        assert rep.final_residual == best
        assert full_residual(H, f) == pytest.approx(best, rel=1e-8)

    def test_report_derives_from_its_history(self):
        # the best iterate need not be the last: final_residual is the least entry
        rep = SolveReport([1.0, 0.125, 0.25], converged=False)
        assert [f.name for f in dataclasses.fields(rep)] == [
            "residual_history", "converged", "notes"]
        assert (rep.iterations, rep.final_residual) == (3, 0.125)
        assert rep.contraction_ratio == pytest.approx(0.5)  # sqrt(0.125 * 2)
        with pytest.raises(AttributeError):
            rep.final_residual = 1.0
        with pytest.raises(ValueError, match="non-empty"):
            SolveReport([], converged=False)


class TestNonFinite:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stops_at_first_nonfinite_residual(self):
        H = FullMap(lambda z, w, zeta: 0.3 * zeta + 0.1 * w ** 2, k=0.3)
        f, rep = solve_full(H, 1.0, max_iter=200, spec=SPEC)
        assert not rep.converged
        assert rep.iterations < 200
        assert f"non-finite at iteration {rep.iterations + 1}" in rep.notes
        assert all(np.isfinite(rep.residual_history))
        assert rep.final_residual == min(rep.residual_history)
        assert np.all(np.isfinite(f.total_values().view(float)))
        assert full_residual(H, f) == pytest.approx(rep.final_residual, rel=1e-8)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_finite_iterate_raises(self):
        H = FullMap(lambda z, w, zeta: 0.3 * zeta * np.inf, k=0.3)
        with pytest.raises(ArithmeticError, match="iteration 1"):
            solve_full(H, 1.0, spec=SPEC)


def reference_solve(rhs, spec, c_mean, tol, max_iter, damping=1.0, linear=None):
    """The fixed-point loop as it was before the kernel reused its work
    arrays: every step allocates its spectrum, psi, the difference and the
    norm's temporaries.  It takes plain steps whatever linear part the
    solver declares.  Returns (field, history, notes, converged)."""
    n = spec.n
    _, _, beur, inv_dzbar = _multipliers(n, spec.L)
    Z = z_grid(spec)
    c_mean = complex(c_mean)
    affine_c = c_mean * Z

    def periodic_and_d(R):
        return np.fft.ifft2(R * inv_dzbar), complex(R[0, 0]) / (n * n)

    r_prev = rhs(affine_c.copy, np.full((n, n), c_mean, dtype=complex))
    history, converged, notes = [], False, ""
    best_R, best_res = None, np.inf
    R_beur = np.empty((n, n), dtype=complex)
    for it in range(1, max_iter + 1):
        R = np.fft.fft2(r_prev)
        psi = np.fft.ifft2(np.multiply(R, beur, out=R_beur))
        psi += c_mean

        def field(R=R):
            P, d = periodic_and_d(R)
            return affine_c + d * np.conj(Z) + P

        r = rhs(field, psi)
        res = float(np.sqrt(np.mean(np.abs(r - r_prev) ** 2)))
        if not math.isfinite(res):
            if not history:
                raise ArithmeticError("residual non-finite at iteration 1")
            notes = f"residual non-finite at iteration {it}; stopped"
            break
        history.append(res)
        if res < best_res:
            best_R, best_res = R, res
        if res <= tol:
            converged = True
            break
        if damping == 1.0:
            r_prev = r
        else:
            r_prev = (1.0 - damping) * r_prev + damping * r
    P, d = periodic_and_d(best_R)
    return GridField(spec, c_mean, d, P), history, notes, converged


def assert_same_solve(f, rep, ref):
    g, history, notes, converged = ref
    assert f.values.tobytes() == g.values.tobytes()
    assert (f.c, f.d) == (g.c, g.d)
    assert rep.residual_history == history
    assert rep.final_residual == min(history)
    assert rep.iterations == len(history)
    assert (rep.notes, rep.converged) == (notes, converged)


class TestReferenceOracle:
    """The kernel gives the allocating loop's results to the bit."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        """Records the arguments each solver hands to picard_solve."""
        calls = []

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return picard_solve(*args, **kwargs)

        for module in (autonomous, fullnonlinear):
            monkeypatch.setattr(module, "picard_solve", recording)
        return calls

    @staticmethod
    def check(recorded, solve):
        f, rep = solve()
        (args, kwargs), = recorded
        assert_same_solve(f, rep, reference_solve(*args, **kwargs))
        return rep

    def test_autonomous_kabs(self, recorded):
        rep = self.check(recorded, lambda: solve_autonomous(abs_map(0.5), FORCING, 1.0))
        assert rep.converged

    @staticmethod
    def check_close(recorded, solve):
        """A map with a linear part takes preconditioned steps: the same
        solution as the plain loop to 1e-8, in fewer iterations."""
        f, rep = solve()
        (args, kwargs), = recorded
        assert kwargs["linear"] is not None
        g, history, notes, converged = reference_solve(*args, **kwargs)
        assert rep.converged and converged and not rep.notes
        assert rel_l2(f.values, g.values) <= 1e-8
        assert f.c == g.c and abs(f.d - g.d) <= 1e-8 * max(1.0, abs(g.d))
        assert rep.iterations < len(history)
        return rep

    def test_neumann(self, recorded):
        rep = self.check_close(recorded,
                               lambda: solve_cc_neumann(CCParams(0.3, 0.2j), FORCING, 1.0))
        assert rep.iterations == 2

    def test_smoothsat(self, recorded):
        A = smooth_saturating_map(0.3, 0.1, 0.2)
        self.check_close(recorded, lambda: solve_autonomous(A, FORCING, 1.0 + 0.5j))

    def test_damped_full_map(self, recorded):
        H = parse_map("kabs:0.3+zterm:0.05,0,1,0+wterm:0.02,0", SPEC.L)
        rep = self.check(recorded, lambda: solve_full(H, 1.0, damping=0.7, spec=SPEC))
        assert rep.converged and rep.iterations > 10

    def test_divergent_full_map_best_iterate(self, recorded):
        spec = GridSpec(32)
        H = parse_map("linear:0.9,0,0,0+wterm:50,0+zterm:5,0,1,0", spec.L)
        rep = self.check(recorded, lambda: solve_full(H, 1.0, max_iter=60, spec=spec))
        assert not rep.converged and rep.residual_history[0] == rep.final_residual

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_stop(self, recorded):
        H = FullMap(lambda z, w, zeta: 0.3 * zeta + 0.1 * w ** 2, k=0.3)
        rep = self.check(recorded, lambda: solve_full(H, 1.0, max_iter=200, spec=SPEC))
        assert "non-finite" in rep.notes


class TestWorkArrayContract:
    """An rhs may return, view or overwrite psi: the result is unchanged."""

    HV = FORCING.values

    @classmethod
    def value(cls, psi):
        return 0.5 * np.abs(psi) + cls.HV

    @classmethod
    def solve(cls, rhs):
        return picard_solve(rhs, SPEC, 1.0, tol=1e-10, max_iter=200)

    def copying(self, _field, psi):
        return self.value(psi)

    def returns_psi(self, _field, psi):
        psi[...] = self.value(psi)
        return psi

    def returns_view(self, _field, psi):
        psi[...] = self.value(psi)
        return psi[::-1][::-1]

    def overwrites_psi(self, _field, psi):
        out = self.value(psi)
        psi.fill(np.nan)
        return out

    @pytest.mark.parametrize("variant", ["returns_psi", "returns_view", "overwrites_psi"])
    def test_same_as_copying_rhs(self, variant):
        f0, rep0 = self.solve(self.copying)
        f, rep = self.solve(getattr(self, variant))
        assert rep0.converged and rep0.iterations > 10
        assert f.values.tobytes() == f0.values.tobytes() and f.d == f0.d
        assert rep.residual_history == rep0.residual_history


class TestNumpyFFTOut:
    """The numpy behaviour the kernel's in-place transforms rely on."""

    X = random_trig_field(SPEC, seed=3, amplitude=1.0).values

    def test_ifftn_honours_out_and_matches_ifft2(self):
        out = np.empty_like(self.X)
        assert np.fft.ifftn(self.X, out=out) is out
        assert out.tobytes() == np.fft.ifft2(self.X).tobytes()
        inplace = self.X.copy()
        np.fft.ifftn(inplace, out=inplace)
        assert inplace.tobytes() == out.tobytes()

    def test_fft2_honours_out(self):
        out = np.empty_like(self.X)
        assert np.fft.fft2(self.X, out=out) is out
        assert out.tobytes() == np.fft.fft2(self.X).tobytes()


class TestPreconditioned:
    """Maps that declare a linear part at infinity: each step solves
    (I - a*S - b*conj∘S) exactly, and only the sublinear rest is iterated."""

    SPEC64 = GridSpec(64)

    @staticmethod
    def plain(A):
        """The same map with no declared linear part: plain steps."""
        return dataclasses.replace(A, linf=None)

    @pytest.mark.parametrize("A, most", [
        (linear_map(0.5, 0.3j), 2),
        (smooth_saturating_map(0.5, 0.2j, 0.2), 20),
    ], ids=["linear", "smoothsat"])
    def test_agrees_with_plain(self, A, most):
        h = random_trig_field(self.SPEC64, seed=4)
        f, rep = solve_autonomous(A, h, 1.0 - 0.5j, tol=1e-12)
        g, plain = solve_autonomous(self.plain(A), h, 1.0 - 0.5j, tol=1e-12)
        assert rep.converged and plain.converged and not rep.notes
        assert rep.iterations <= most < plain.iterations
        # both first measure the affine start, by Parseval and in samples
        assert rep.residual_history[0] == pytest.approx(plain.residual_history[0], rel=1e-12)
        assert rel_l2(f.values, g.values) <= 1e-8
        assert abs(f.d - g.d) <= 1e-8 * max(1.0, abs(g.d))

    def test_linear_matches_changevar_in_two_iterations(self):
        p = CCParams(0.55 * np.exp(0.4j), 0.35 * np.exp(2.1j))
        u = random_trig_field(self.SPEC64, seed=8, band=12, modes=10)
        fa, ra = solve_cc_neumann(p, u, 0.7 + 0.2j, tol=1e-12)
        fb, rb = solve_cc_changevar(p, u, 0.7 + 0.2j)
        assert ra.converged and rb.converged and ra.iterations <= 2
        assert rel_l2(fa.values, fb.values) <= 1e-12
        assert abs(fa.d - fb.d) <= 1e-12

    def test_nyquist_forcing_in_two_iterations(self):
        # the discrete 2x2 solve pairs the Nyquist rows with themselves, as
        # conj does on the grid, so it is exact where changevar gives up
        n = self.SPEC64.n
        U = np.zeros((n, n), dtype=complex)
        U[n // 2, 3], U[5, n // 2], U[n // 2, n // 2] = 1.0, 0.5j, 0.25
        u = GridField(self.SPEC64, 0, 0, np.fft.ifft2(U) * n * n)
        p = CCParams(0.6, 0.3j)
        with pytest.raises(ValueError, match="shear-resampling failure"):
            solve_cc_changevar(p, u, 1.0)
        f, rep = solve_cc_neumann(p, u, 1.0, tol=1e-12)
        assert rep.converged and rep.iterations <= 2
        assert cc_residual(p, f, u) <= 1e-12 * max(1.0, lp_norm(u, 2))

    @pytest.mark.parametrize("a, b, s", [(0.3, 0.1, 0.2), (0.5, 0.2j, 0.2),
                                         (0.6, 0.3, 0.05)])
    def test_rate_bound(self, a, b, s):
        # plain steps contract at about |a|+|b|+s, above this bound
        A = smooth_saturating_map(a, b, s)
        h = random_trig_field(self.SPEC64, seed=3)
        _, rep = solve_autonomous(A, h, 1.0, tol=1e-10)
        assert rep.converged and not rep.notes
        assert rep.contraction_ratio <= s / (1 - abs(a) - abs(b)) + 0.02

    def test_misdeclared_linear_part_falls_back(self):
        # the declared a = 0.95 is wrong for 0.3*zeta: the preconditioned step
        # expands by about 13, and the first such step switches to plain steps
        A = AutonomousMap(eval=lambda z: 0.3 * z, k=0.3, linf=CCParams(0.95, 0))
        h = random_trig_field(self.SPEC64, seed=3)
        f, rep = solve_autonomous(A, h, 1.0)
        _, plain = solve_autonomous(self.plain(A), h, 1.0)
        assert rep.converged
        assert "less than k = 0.3 at iteration 2; plain steps" in rep.notes
        assert rep.iterations <= plain.iterations + 5
        assert residual(A, f, h) <= 1e-10 * max(1.0, lp_norm(h, 2)) + 1e-14

    def test_step_contracting_by_more_than_k_falls_back(self):
        # the declared a = 0.5 is wrong for 0.3*zeta, but only mildly: the
        # second step contracts by about 0.36, between k and 1, and the
        # switch to plain steps is promised at k, not at 1
        A = AutonomousMap(eval=lambda z: 0.3 * z, k=0.3, linf=CCParams(0.5, 0))
        h = trig_field(GridSpec(32), [(1, 0, 0.2), (0, 1, 0.1j)])
        f, rep = solve_autonomous(A, h, 1.0)
        first, second = rep.residual_history[:2]
        assert 0.3 < second / first < 1.0
        assert "less than k = 0.3 at iteration 2; plain steps" in rep.notes
        assert rep.converged

    def test_rejects_bad_linear_part(self):
        def rhs(_field, psi):
            return 0.5 * psi

        with pytest.raises(ValueError, match="no damping"):
            picard_solve(rhs, SPEC, 1.0, 1e-10, 10, damping=0.5, linear=(0.5, 0, 0.5))
        with pytest.raises(ValueError, match="linear part"):
            picard_solve(rhs, SPEC, 1.0, 1e-10, 10, linear=(0.6, 0.4, 0.9))

    @pytest.mark.parametrize("linear", [None, (0.3, 0.1, 0.6)], ids=["plain", "linear"])
    def test_step_allocates_only_rhs_result(self, linear):
        # between two rhs calls the kernel allocates no n x n array: the
        # traced peak stays below one real n x n array above the memory in
        # use when the previous call returned
        n = self.SPEC64.n
        A = smooth_saturating_map(0.3, 0.1, 0.2)
        hv = random_trig_field(self.SPEC64, seed=3).values
        extra, base = [], [0]

        def rhs(_field, psi):
            extra.append(tracemalloc.get_traced_memory()[1] - base[0])
            out = A.eval(psi) + hv
            tracemalloc.reset_peak()
            base[0] = tracemalloc.get_traced_memory()[0]
            return out

        tracemalloc.start()
        try:
            _, rep = picard_solve(rhs, self.SPEC64, 1.0, 1e-12, 100, linear=linear)
        finally:
            tracemalloc.stop()
        assert rep.converged and rep.iterations > 5
        # the first windows hold the start: work arrays and multipliers
        assert max(extra[2:]) < n * n * 8
