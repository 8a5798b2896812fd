"""The shared fixed-point kernel: transform count, best iterate, non-finite stops,
bit-identity with the allocating loop, and the work-array contract of rhs."""

import math

import numpy as np
import pytest

from beltrami import (
    CCParams,
    FullMap,
    GridField,
    GridSpec,
    SolveReport,
    abs_map,
    derivative_pair,
    random_trig_field,
    smooth_saturating_map,
    solve_autonomous,
    solve_cc_neumann,
    solve_full,
    z_grid,
)
from beltrami import autonomous, fullnonlinear
from beltrami.cli import parse_map
from beltrami.fixedpoint import picard_solve
from beltrami.operators import _multipliers

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

    def test_autonomous_two_per_step(self, fft_counts):
        _, rep = solve_autonomous(abs_map(0.5), FORCING, 1.0, tol=1e-10)
        it = rep.iterations
        assert it > 10
        assert fft_counts == {"fft2": it, "ifft2": it + 1}

    def test_neumann_two_per_step(self, fft_counts):
        _, rep = solve_cc_neumann(CCParams(0.3, 0.2j), FORCING, 1.0, tol=1e-10)
        it = rep.iterations
        assert it > 10
        assert fft_counts == {"fft2": it, "ifft2": it + 1}

    def test_full_map_reads_field_every_step(self, fft_counts):
        H = FullMap(eval=lambda z, w, zeta: 0.3 * zeta + 0.05 * w / (1 + np.abs(w)),
                    k=0.3)
        _, rep = solve_full(H, 1.0, tol=1e-10, spec=SPEC)
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

    def test_report_invariant(self):
        with pytest.raises(ValueError, match="least history entry"):
            SolveReport(iterations=2, residual_history=[1.0, 2.0],
                        contraction_ratio=2.0, final_residual=2.0, converged=False)


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


def reference_solve(rhs, spec, c_mean, tol, max_iter, damping=1.0,
                    residual_scale=1.0, method="fixed-point"):
    """The fixed-point loop as it was before the kernel reused its work
    arrays: every step allocates its spectrum, psi, the difference and the
    norm's temporaries.  Returns (field, history, notes, converged)."""
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
    threshold = tol * residual_scale
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
                raise ArithmeticError(f"{method}: residual non-finite at iteration 1")
            notes = f"residual non-finite at iteration {it}; stopped"
            break
        history.append(res)
        if res < best_res:
            best_R, best_res = R, res
        if res <= threshold:
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

    def test_neumann(self, recorded):
        rep = self.check(recorded,
                         lambda: solve_cc_neumann(CCParams(0.3, 0.2j), FORCING, 1.0))
        assert rep.converged

    def test_smoothsat(self, recorded):
        A = smooth_saturating_map(0.3, 0.1, 0.2)
        rep = self.check(recorded, lambda: solve_autonomous(A, FORCING, 1.0 + 0.5j))
        assert rep.converged

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
