import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrami import (
    AutonomousMap,
    GridField,
    GridSpec,
    abs_map,
    derivative_pair,
    estimate_lipschitz,
    linear_map,
    lp_norm,
    random_trig_field,
    residual,
    smooth_saturating_map,
    solve_autonomous,
    solve_cc_neumann,
    CCParams,
    trig_field,
    zero_field,
)
from beltrami.analysis import distortion_stats
from _helpers import pair_rel_l2

SPEC = GridSpec(64)


class TestBuiltinMaps:
    def test_linear_ellipticity_message(self):
        with pytest.raises(ValueError, match=r"ellipticity violated: \|a\|\+\|b\| = 2"):
            linear_map(2.0, 0.0)

    def test_abs_map_range(self):
        with pytest.raises(ValueError, match="Lipschitz"):
            abs_map(1.0)

    def test_declared_linf_envelopes_hold(self):
        # A - linf stays within s at every modulus, up to roundoff ~eps*|z|
        rng = np.random.default_rng(0)
        r = 10.0 ** rng.uniform(-3, 6, 512)
        z = r * np.exp(2j * np.pi * rng.uniform(0, 1, 512))
        for A, s in ((linear_map(0.3, 0.2), 0.0),
                     (linear_map(0.2 + 0.1j, -0.4j), 0.0),
                     (smooth_saturating_map(0.3, 0, 0.2), 0.2),
                     (smooth_saturating_map(0.1j, 0.25 - 0.2j, 0.05), 0.05)):
            assert isinstance(A.linf, CCParams)
            assert A.k == pytest.approx(abs(A.linf.a) + abs(A.linf.b) + s, abs=1e-15)
            rest = np.abs(A.eval(z) - A.linf.a * z - A.linf.b * np.conj(z))
            assert np.all(rest <= s + 1e-14 * r)
            assert rest.max() >= 0.99 * s  # the bound is reached at large |z|

    def test_abs_map_declares_no_linf(self):
        assert abs_map(0.3).linf is None

    @pytest.mark.parametrize("s", [-0.1, float("nan")])
    def test_smoothsat_rejects_negative_s(self, s):
        # s < 0 would declare k below the map's Lipschitz constant
        with pytest.raises(ValueError, match="smoothsat perturbation s must be >= 0"):
            smooth_saturating_map(0.3, 0, s)


class TestEstimateLipschitz:
    def test_pure_linear_exact(self):
        est = estimate_lipschitz(linear_map(0.5, 0), samples=500, radius=10.0)
        assert est == pytest.approx(0.5, abs=1e-9)

    def test_abs_map_tight(self):
        est = estimate_lipschitz(abs_map(0.3), samples=4000, radius=10.0)
        assert est <= 0.3 + 1e-9
        assert est >= 0.3 - 1e-3

    def test_mixed_linear_sup_over_directions(self):
        est = estimate_lipschitz(linear_map(0.3, 0.2), samples=4000, radius=10.0)
        assert est == pytest.approx(0.5, abs=1e-3)
        assert est <= 0.5 + 1e-12

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            estimate_lipschitz(abs_map(0.3), samples=1, radius=1.0)


class TestSolveAutonomous:
    def test_trivial(self):
        f, rep = solve_autonomous(linear_map(0, 0), zero_field(SPEC), 1.0)
        assert rep.iterations == 1 and rep.converged
        assert f.c == 1.0 and not f.values.any()

    def test_matches_neumann_bitwise(self):
        # the two solvers run the identical iteration for linear maps
        h = random_trig_field(SPEC, seed=11)
        fa, ra = solve_autonomous(linear_map(0.3, 0.2), h, 1.0, tol=1e-11)
        fb, rb = solve_cc_neumann(CCParams(0.3, 0.2), h, 1.0, tol=1e-11)
        assert np.array_equal(fa.values, fb.values)
        assert ra.residual_history == rb.residual_history

    def test_abs_map_contraction_and_distortion(self):
        A = abs_map(0.3)
        h = trig_field(SPEC, [(1, 0, 0.1)])
        f, rep = solve_autonomous(A, h, 1.0, tol=1e-10)
        assert rep.converged
        assert rep.contraction_ratio <= 0.32
        st = distortion_stats(f)
        # the forcing adds ~|h|/|f_z| to the gradient ratio, so the
        # homogeneous bound (1+k)/(1-k) = 1.857 does not apply; the
        # measured maximum at this forcing amplitude is 2.2657
        assert 2.0 < st.max < 2.30
        assert st.degenerate_fraction == 0.0

    def test_ellipticity_propagation_homogeneous(self):
        # with h = 0 the gradient bound |A| <= k|zeta| transfers exactly
        for A, k in ((abs_map(0.3), 0.3), (linear_map(0.2, 0.4), 0.6)):
            f, rep = solve_autonomous(A, zero_field(SPEC), 1.0 + 0.3j)
            assert rep.converged
            fz, fzb = derivative_pair(f)
            assert np.all(np.abs(fzb.values) <= (k + 0.01) * np.abs(fz.values))

    @pytest.mark.parametrize("make", [
        lambda: linear_map(0.3, 0.2),
        lambda: abs_map(0.3),
        lambda: smooth_saturating_map(0.3, 0, 0.2, ),
    ])
    def test_manufactured_recovery(self, make):
        A = make()
        fstar = random_trig_field(SPEC, seed=17, band=3, modes=6,
                                  amplitude=0.1, c=1.0)
        fz, fzb = derivative_pair(fstar)
        h = GridField(SPEC, 0, 0, fzb.values - A.eval(fz.values))
        f, rep = solve_autonomous(A, h, 1.0, tol=1e-11)
        assert rep.converged
        assert pair_rel_l2(f, fstar) < 1e-7

    def test_threshold_scales_with_the_forcing(self):
        # tol is relative to max(1, ||h||_2): with ||h||_2 near 10 the solve
        # stops at the first residual <= 10*tol, not at tol itself
        tol = 1e-8
        h = random_trig_field(SPEC, seed=3)
        h = h * (10.0 / lp_norm(h, 2))
        scale = max(1.0, lp_norm(h, 2))
        assert 9.9 < scale < 10.1
        _, rep = solve_autonomous(abs_map(0.5), h, 1.0, tol=tol)
        assert rep.converged
        history = rep.residual_history
        assert history[-1] <= scale * tol < history[-2]
        assert history[-1] > tol

    def test_declared_k_audited(self):
        lying = AutonomousMap(eval=lambda z: 0.5 * z, k=0.3)
        with pytest.raises(ValueError, match="Lipschitz"):
            solve_autonomous(lying, zero_field(SPEC), 1.0)

    def test_audit_samples_beyond_radius_two(self):
        # the map is 0.3-Lipschitz for |zeta| <= 2 and 0.8 along rays beyond,
        # so only an audit whose samples reach past |zeta| = 2 refuses it
        A = AutonomousMap(eval=lambda z: 0.3 * z + 0.5 * np.maximum(np.abs(z) - 2, 0),
                          k=0.3)
        with pytest.raises(ValueError, match="declared Lipschitz constant 0.3 exceeded"):
            solve_autonomous(A, zero_field(SPEC), 1.0)

    @pytest.mark.parametrize("excess", [1e-7, 1e-5], ids=["warns", "raises"])
    def test_audit_boundaries(self, excess):
        # a sampled constant above the declared k by 1e-9 to 1e-6 warns;
        # beyond 1e-6 it raises.  A linear map's every sampled ratio is its
        # constant, so the excess is known to roundoff.
        close = AutonomousMap(eval=lambda z: (0.5 + excess) * z, k=0.5)
        if excess < 1e-6:
            with pytest.warns(UserWarning, match="slightly exceeds declared 0.5"):
                _, rep = solve_autonomous(close, zero_field(SPEC), 1.0)
            assert rep.converged
        else:
            with pytest.raises(ValueError, match="declared Lipschitz constant 0.5 exceeded"):
                solve_autonomous(close, zero_field(SPEC), 1.0)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["linear", "smoothsat", "kabs"]),
       k=st.floats(0.0, 0.9), t=st.floats(0.0, 1.0), u=st.floats(0.0, 1.0),
       phase_a=st.floats(0.0, 2 * np.pi), phase_b=st.floats(0.0, 2 * np.pi),
       seed=st.integers(0, 2 ** 16))
def test_solve_meets_residual_contract_property(kind, k, t, u, phase_a, phase_b, seed):
    # k is the map's Lipschitz constant, split as |a| + |b| + s
    spec = GridSpec(32)
    if kind == "kabs":
        A = abs_map(k)
    else:
        lin = k * (u if kind == "smoothsat" else 1.0)
        a, b = lin * t * np.exp(1j * phase_a), lin * (1 - t) * np.exp(1j * phase_b)
        A = linear_map(a, b) if kind == "linear" else smooth_saturating_map(a, b, k - lin)
    h = random_trig_field(spec, seed=seed)
    f, rep = solve_autonomous(A, h, 1.0 - 0.5j, tol=1e-10)
    assert rep.converged
    # + recomputation roundoff, as in the Neumann/changevar property
    assert residual(A, f, h) <= 1e-10 * max(1.0, lp_norm(h, 2)) + 1e-14


class TestResidualOp:
    def test_trivial_zero(self):
        f = GridField(SPEC, 1.0, 0.0, np.zeros(SPEC.n ** 2))
        assert residual(linear_map(0, 0), f, zero_field(SPEC)) == 0.0

    def test_manufactured_pair(self):
        A = abs_map(0.3)
        fstar = random_trig_field(SPEC, seed=23, amplitude=0.2, c=1.0)
        fz, fzb = derivative_pair(fstar)
        h = GridField(SPEC, 0, 0, fzb.values - A.eval(fz.values))
        assert residual(A, fstar, h) < 1e-10

    def test_perturbation_lower_bound(self):
        A = abs_map(0.3)
        h = trig_field(SPEC, [(1, 0, 0.1)])
        f, _ = solve_autonomous(A, h, 1.0, tol=1e-11)
        pert = trig_field(SPEC, [(0, 1, 0.1)])
        pz, pzb = derivative_pair(pert)
        # |res(f + pert)| >= ||pert_zbar - A'(...)|| >= (1-k) * pair scale
        pert_scale = np.sqrt(np.mean(np.abs(pz.values) ** 2
                                     + np.abs(pzb.values) ** 2))
        r = residual(A, f + pert, h)
        assert r >= (1 - A.k) * pert_scale * 0.99

    def test_spec_mismatch(self):
        f = zero_field(GridSpec(32))
        with pytest.raises(ValueError, match="grids"):
            residual(abs_map(0.3), f, zero_field(SPEC))
