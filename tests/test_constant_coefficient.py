import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrami import (
    CCParams,
    ChangeOfVars,
    GridField,
    GridSpec,
    antiderivative_zbar,
    cc_residual,
    compute_mu_nu,
    derivative_pair,
    lp_norm,
    mu_nu_printed_formula,
    random_trig_field,
    reduction_residual,
    smooth_saturating_map,
    solve_autonomous,
    solve_cc_changevar,
    solve_cc_neumann,
    trig_field,
    verify_transform,
    zero_field,
)
from beltrami import constant_coefficient, grid
from beltrami.grid import values_l2
from _helpers import pair_rel_l2, rel_l2, wavevectors

SPEC = GridSpec(64)


def manufactured(spec, p, seed=0, c=1.0):
    """A smooth field and the forcing that makes it an exact solution."""
    fstar = random_trig_field(spec, seed=seed, band=3, modes=6, amplitude=0.1, c=c)
    fz, fzb = derivative_pair(fstar)
    u = GridField(spec, 0, 0,
                   fzb.values - p.a * fz.values - p.b * np.conj(fz.values))
    return fstar, u


class TestCCParams:
    def test_ellipticity_message(self):
        with pytest.raises(ValueError, match=r"ellipticity violated: \|a\|\+\|b\| = 2"):
            CCParams(2.0, 0.0)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            CCParams(0.5, 0.5)


class TestNeumannSolver:
    def test_trivial_single_iteration(self):
        f, rep = solve_cc_neumann(CCParams(0, 0), zero_field(SPEC), 1.0)
        assert rep.iterations == 1
        assert rep.converged
        assert f.c == 1.0 and f.d == 0.0
        assert not f.values.any()

    def test_manufactured_recovery(self):
        p = CCParams(0.5, 0)
        fstar, u = manufactured(SPEC, p, seed=1)
        f, rep = solve_cc_neumann(p, u, 1.0, tol=1e-12)
        assert rep.converged
        assert pair_rel_l2(f, fstar) < 1e-8

    def test_contraction_ratio_bounded(self):
        p = CCParams(0.45, 0.45)
        for seed in range(5):
            u = random_trig_field(SPEC, seed=seed)
            _, rep = solve_cc_neumann(p, u, 1.0, tol=1e-10, max_iter=600)
            assert rep.converged
            assert rep.contraction_ratio <= 0.9 + 0.02

    def test_rejects_affine_forcing(self):
        u = GridField(SPEC, 1.0, 0.0, np.zeros(SPEC.n ** 2))
        with pytest.raises(ValueError, match="affine"):
            solve_cc_neumann(CCParams(0.1, 0), u, 1.0)

    def test_max_iter_flag(self):
        u = random_trig_field(SPEC, seed=3)
        # the preconditioned start solves a linear map, whose first iteration
        # already converges; a small saturating term on the same linear part
        # still needs more steps than max_iter allows
        A = smooth_saturating_map(0.45, 0.45, 0.05)
        _, rep = solve_autonomous(A, u, 1.0, tol=1e-14, max_iter=3)
        assert not rep.converged
        assert rep.iterations == 3
        assert rep.final_residual == rep.residual_history[-1]

    def test_complex_linear_distortion_bound(self):
        # b = 0, u = 0: the solution satisfies f_zbar = a f_z exactly and
        # its distortion is the constant (1+|a|)/(1-|a|)
        from beltrami import distortion_stats

        for a in (0.3, 0.5 * np.exp(1.1j), 0.72):
            p = CCParams(a, 0)
            f, rep = solve_cc_neumann(p, zero_field(SPEC), 1.0, tol=1e-12)
            assert rep.converged
            st = distortion_stats(f)
            assert st.max <= (1 + abs(p.a)) / (1 - abs(p.a)) + 0.01
            assert st.degenerate_fraction == 0.0


class TestComputeMuNu:
    def test_zero_coefficients(self):
        cv = compute_mu_nu(CCParams(0, 0))
        assert cv.mu == 0 and cv.nu == 0

    def test_printed_formula_value(self):
        # the closed-form candidate at a=0.5, b=0 evaluates to
        # -1/(1.25 + sqrt(1.25)) ~ -0.42229 and fails the oracle
        cv = mu_nu_printed_formula(CCParams(0.5, 0))
        assert cv.mu == pytest.approx(-1 / (1.25 + math.sqrt(1.25)), rel=1e-12)
        assert cv.mu == pytest.approx(-0.42229, abs=5e-6)
        assert verify_transform(CCParams(0.5, 0), cv, trials=3) > 1e-3

    def test_numeric_root_replaces_printed(self):
        p = CCParams(0.5, 0)
        cv = compute_mu_nu(p)
        assert cv.path == "numeric-root"
        assert cv.mu == pytest.approx(-0.5, abs=1e-12)
        assert cv.nu == 0
        # with b = 0 the reduced equation has no conj(v) term at all, so
        # even the a*b-coefficient form of the check passes
        assert verify_transform(p, cv, trials=5) <= 1e-12

    def test_defining_conditions_hold(self):
        def small_root(lead, mid, const):
            roots = np.roots([lead, mid, const])
            return roots[np.argmin(np.abs(roots))]

        rng = np.random.default_rng(8)
        for _ in range(200):
            s = 0.999 * rng.uniform(0.1, 1.0)
            fa = rng.uniform(0.1, 0.9)
            a = s * fa * np.exp(2j * np.pi * rng.uniform())
            b = s * (1 - fa) * np.exp(2j * np.pi * rng.uniform())
            p = CCParams(a, b)
            cv = compute_mu_nu(p)
            # reference: the small-modulus roots of the defining quadratics
            mu_ref = small_root(np.conj(p.a), 1 + abs(p.a) ** 2 - abs(p.b) ** 2, p.a)
            nu_ref = small_root(np.conj(p.b), 1 + abs(p.b) ** 2 - abs(p.a) ** 2, p.b)
            assert abs(cv.mu - mu_ref) <= 1e-13
            assert abs(cv.nu - nu_ref) <= 1e-13
            c1 = cv.mu + p.a + cv.nu * cv.mu * np.conj(p.b)
            c2 = p.b + cv.nu + cv.nu * cv.mu * np.conj(p.a)
            assert max(abs(c1), abs(c2)) < 1e-12
            assert abs(cv.mu) < 1 and abs(cv.nu) < 1
            # provable modulus bounds (sharp exactly when a*b = 0)
            assert abs(cv.mu) * (1 - abs(p.b)) <= abs(p.a) + 1e-12
            assert abs(cv.nu) * (1 - abs(p.a)) <= abs(p.b) + 1e-12

    def test_squared_denominator_bounds_fail_off_axes(self):
        # the often-quoted bounds with (1-|b|^2), (1-|a|^2) denominators do
        # not hold for the correct roots once a*b != 0; pin that fact
        cv = compute_mu_nu(CCParams(0.475, 0.475))
        assert abs(cv.mu) * (1 - 0.475 ** 2) > 0.475 + 0.05


class TestVerifyTransform:
    def test_identity_case(self):
        assert verify_transform(CCParams(0, 0), ChangeOfVars(0, 0), trials=3) < 1e-14

    def test_oracle_accepts_correct_roots_b_zero(self):
        p = CCParams(0.5, 0)
        assert verify_transform(p, compute_mu_nu(p), trials=5) <= 1e-8

    def test_negative_control(self):
        p = CCParams(0.5, 0)
        assert verify_transform(p, ChangeOfVars(0.9, 0.0), trials=3) > 1e-2

    def test_reduction_exact_for_generic_pair(self):
        p = CCParams(0.3 + 0.1j, 0.2)
        cv = compute_mu_nu(p)
        assert reduction_residual(p, cv, trials=5) <= 1e-12
        # the a*b-coefficient form differs by exactly |mu*nu - a*b|
        vt = verify_transform(p, cv, trials=5)
        assert vt == pytest.approx(abs(cv.mu * cv.nu - p.a * p.b), rel=1e-6)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            verify_transform(CCParams(0, 0), ChangeOfVars(0, 0), trials=0)


class TestChangeVarSolver:
    def test_degenerates_to_antiderivative(self):
        u = random_trig_field(SPEC, seed=5)
        f, rep = solve_cc_changevar(CCParams(0, 0), u, 0.5)
        direct = antiderivative_zbar(u, c=0.5)
        assert rel_l2(f.values, direct.values) < 1e-13
        assert f.c == direct.c
        assert abs(f.d - direct.d) < 1e-14
        assert rep.iterations == 1

    def test_manufactured_recovery(self):
        p = CCParams(0.5, 0)
        fstar, u = manufactured(SPEC, p, seed=2)
        f, rep = solve_cc_changevar(p, u, 1.0)
        assert rep.converged
        assert pair_rel_l2(f, fstar) < 1e-8

    def test_agrees_with_neumann(self):
        p = CCParams(0.3, 0.2)
        u = random_trig_field(SPEC, seed=6)
        fa, _ = solve_cc_neumann(p, u, 1.0, tol=1e-12)
        fb, _ = solve_cc_changevar(p, u, 1.0)
        assert fa.c == fb.c
        assert abs(fa.d - fb.d) < 1e-12
        assert rel_l2(fb.values, fa.values) < 1e-7

    def test_residual_contract(self):
        p = CCParams(0.4 - 0.2j, 0.15 + 0.2j)
        u = random_trig_field(SPEC, seed=7, amplitude=2.0)
        f, rep = solve_cc_changevar(p, u, 1.0 - 1.0j)
        assert rep.final_residual <= 1e-8 * max(1.0, lp_norm(u, 2))
        assert cc_residual(p, f, u) == rep.final_residual

    def test_nyquist_forcing_rejected(self):
        # at the Nyquist rows the conjugate pairing aliases onto itself and
        # the mode-wise reduction cannot satisfy the grid equation; the
        # contraction solver handles such forcing, this route refuses it
        n = SPEC.n
        U = np.zeros((n, n), dtype=complex)
        U[n // 2, 3] = 1.0
        u = GridField(SPEC, 0, 0, np.fft.ifft2(U) * n * n)
        p = CCParams(0.3, 0.2)
        with pytest.raises(ValueError, match="shear-resampling failure"):
            solve_cc_changevar(p, u, 1.0)
        _, rep = solve_cc_neumann(p, u, 1.0, tol=1e-12, max_iter=2000)
        assert rep.converged


def conj_flip(A):
    """conj(A[-k]) on an fft2-layout spectrum: reversed on both axes, rolled by one."""
    return np.conj(np.roll(A[::-1, ::-1], 1, axis=(0, 1)))


class TestChangeVarBytes:
    """solve_cc_changevar and cc_residual against their formulas, to the bit,
    at n = 128: the smallest grid whose complex temporaries (256 KiB) numpy
    elides into a product with a scalar, which then takes the array as its
    first operand.  The two operand orders round apart, so each product
    below is written in the order the solver's expression runs in there."""

    SPEC128 = GridSpec(128)
    P = CCParams(0.45 * np.exp(0.7j), 0.35 * np.exp(-1.9j))

    def reference_changevar(self, p, u, c_mean):
        cv = compute_mu_nu(p)
        mu, nu = cv.mu, cv.nu
        n = u.spec.n
        KC = wavevectors(n, u.spec.L)
        U = np.fft.fft2(u.values) / (n * n)
        kappa = np.multiply(np.conj(KC), mu) + KC
        with np.errstate(divide="ignore", invalid="ignore"):
            W = 1.0 / np.multiply(0.5j, kappa)
        W[0, 0] = 0.0
        G = (np.multiply(conj_flip(U), mu * nu) + U) * W
        FT = (G - np.multiply(conj_flip(G), nu)) / (1.0 - abs(nu) ** 2)
        FT[0, 0] = 0.0
        d = p.a * c_mean + p.b * complex(c_mean).conjugate() + complex(U[0, 0])
        return np.fft.ifft2(FT * (n * n)), d

    @staticmethod
    def reference_residual(p, f, u):
        fz, fzb = derivative_pair(f)
        r = fzb.values - np.multiply(p.a, fz.values) - np.multiply(np.conj(fz.values), p.b)
        return values_l2(r - u.values)

    def dense_forcing(self, seed):
        """Every mode below the Nyquist lines, so that each product is read."""
        n = self.SPEC128.n
        rng = np.random.default_rng(seed)
        U = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / n
        U[n // 2, :] = U[:, n // 2] = U[0, 0] = 0.0
        return GridField(self.SPEC128, 0, 0, np.fft.ifft2(U))

    def test_changevar_bytes(self):
        u = self.dense_forcing(11)
        f, rep = solve_cc_changevar(self.P, u, 0.8 - 0.3j)
        values, d = self.reference_changevar(self.P, u, 0.8 - 0.3j)
        assert rep.converged
        assert f.values.tobytes() == values.tobytes()
        assert (f.c, f.d) == (0.8 - 0.3j, d)
        assert rep.final_residual == self.reference_residual(self.P, f, u)

    @pytest.mark.parametrize("n, ragged", [(64, False), (64, True), (256, False), (1024, False)])
    def test_blocked_pass_keeps_the_whole_array_float(self, monkeypatch, n, ragged):
        # cc_residual runs one row block at a time; at a solution, where each
        # product's rounding shows, it returns the float of the whole-array
        # formula.  Its b*conj(f_z) rounds as the grid's only in blocks that
        # numpy elides where the grid does: the default 2^14 samples, or any
        # block at n = 64, where neither is elided (ragged: 7 rows a block).
        spec = GridSpec(n)
        u = random_trig_field(spec, seed=12, band=n // 4, modes=200)
        f, _ = solve_cc_neumann(self.P, u, 1.0 + 0.5j, tol=1e-13)
        fz, fzb = derivative_pair(f)
        r = np.multiply(self.P.a, fz.values)
        np.subtract(fzb.values, r, out=r)
        r -= self.P.b * np.conj(fz.values)
        r -= u.values
        if ragged:
            monkeypatch.setattr(grid, "_BLOCK", 7 * n)
        assert cc_residual(self.P, f, u) == values_l2(r) < 1e-13

    def test_cc_residual_bytes(self):
        # at a solution the residual is roundoff, which the rounding of each
        # product sets: an off-solution residual would hide it in its sum
        u = self.dense_forcing(12)
        f, _ = solve_cc_neumann(self.P, u, 1.0 + 0.5j, tol=1e-13)
        res = cc_residual(self.P, f, u)
        assert res < 1e-13
        assert res == self.reference_residual(self.P, f, u)


class TestChangeVarBoundaries:
    """solve_cc_changevar's documented constants, each tested on both sides."""

    P = CCParams(0.3, 0.2)

    @pytest.mark.parametrize("eps, raises", [(4e-12, True), (2.5e-13, False)])
    def test_nyquist_energy_threshold_is_1e_12(self, eps, raises):
        # Nyquist energy eps against a total of 1: refused above 1e-12 of it
        n = SPEC.n
        U = np.zeros((n, n), dtype=complex)
        U[1, 2], U[n // 2, 3] = 1.0, eps
        u = GridField(SPEC, 0, 0, np.fft.ifft2(U) * n * n)
        if raises:
            with pytest.raises(ValueError, match="shear-resampling failure"):
                solve_cc_changevar(self.P, u, 1.0)
        else:
            _, rep = solve_cc_changevar(self.P, u, 1.0)
            assert rep.converged

    @pytest.mark.parametrize("cond, raises", [(2e-10, True), (5e-11, False)])
    def test_defining_conditions_threshold_is_1e_10(self, monkeypatch, cond, raises):
        monkeypatch.setattr(constant_coefficient, "_defining_conditions_residual",
                            lambda p, mu, nu: cond)
        u = random_trig_field(SPEC, seed=6)
        if raises:
            with pytest.raises(ArithmeticError, match="defining conditions"):
                solve_cc_changevar(self.P, u, 1.0)
        else:
            assert solve_cc_changevar(self.P, u, 1.0)[1].converged

    @pytest.mark.parametrize("factor, converged", [(2.0, False), (0.5, True)])
    def test_converged_threshold_is_1e_8(self, monkeypatch, factor, converged):
        # the threshold is 1e-8 * ||u||_2 for a forcing with ||u||_2 > 1
        u = random_trig_field(SPEC, seed=7, amplitude=2.0)
        scale = lp_norm(u, 2)
        assert scale > 1.5
        monkeypatch.setattr(constant_coefficient, "cc_residual",
                            lambda p, f, u: factor * 1e-8 * scale)
        _, rep = solve_cc_changevar(self.P, u, 1.0)
        assert rep.converged == converged
        assert rep.final_residual == factor * 1e-8 * scale


@settings(max_examples=25, derandomize=True, deadline=None)
@given(s=st.floats(0.0, 0.95), t=st.floats(0.0, 1.0),
       phase_a=st.floats(0.0, 2 * math.pi), phase_b=st.floats(0.0, 2 * math.pi),
       seed=st.integers(0, 2 ** 16))
def test_neumann_matches_changevar_property(s, t, phase_a, phase_b, seed):
    # |a| + |b| = s <= 0.95; the two solvers share no code past the forcing
    # and its band-limited spectrum (random_trig_field stays below Nyquist)
    spec = GridSpec(32)
    p = CCParams(s * t * np.exp(1j * phase_a), s * (1 - t) * np.exp(1j * phase_b))
    u = random_trig_field(spec, seed=seed)
    scale = max(1.0, lp_norm(u, 2))
    fa, ra = solve_cc_neumann(p, u, 1.0, tol=1e-10)
    fb, rb = solve_cc_changevar(p, u, 1.0)
    assert ra.converged and rb.converged
    assert cc_residual(p, fa, u) <= 1e-10 * scale + 1e-14  # + recomputation roundoff
    assert cc_residual(p, fb, u) <= 1e-8 * scale
    assert rel_l2(fa.values, fb.values) <= 1e-9
    assert abs(fa.d - fb.d) <= 1e-9 * max(1.0, abs(fb.d))
