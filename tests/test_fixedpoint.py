"""The shared fixed-point kernel: transform count, best iterate, non-finite stops,
bit-identity with the allocating loop, the work-array contract of rhs, and
the preconditioned step for maps that declare a linear part at infinity."""

import dataclasses
import math
import sys
import tracemalloc
from functools import partial

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
    resample,
    residual,
    smooth_saturating_map,
    solve_autonomous,
    solve_cc_changevar,
    solve_cc_neumann,
    solve_full,
    trig_field,
    z_grid,
)
from beltrami import autonomous, fixedpoint, fullnonlinear, grid
from beltrami.cli import parse_map
from beltrami.fixedpoint import _chord, picard_solve
from beltrami.operators import _kernel_symbols, _second_derivatives

from _helpers import rel_l2, traced_peak, whole_kernel_symbols

SPEC = GridSpec(16)
# built outside the counted solves: trig_field itself calls ifft2
FORCING = random_trig_field(SPEC, seed=1, amplitude=0.5)
SMALL_FORCING = random_trig_field(SPEC, seed=1, amplitude=0.01)


def full_residual(H, f):
    """||f_zbar - H(z, f, f_z)||_2 recomputed from the spectral derivative pair."""
    fz, fzb = derivative_pair(f)
    r = fzb.values - H.eval(z_grid(f.spec), f.total_values(), fz.values)
    return float(np.sqrt(np.mean(np.abs(r) ** 2)))


@pytest.fixture
def plain_steps(monkeypatch):
    """The solvers hand picard_solve no linear part: plain steps, whatever
    linear part they declare or take from the map's derivative."""
    def plain(*args, **kwargs):
        return picard_solve(*args, **{**kwargs, "linear": None})

    for module in (autonomous, fullnonlinear):
        monkeypatch.setattr(module, "picard_solve", plain)


def plain_autonomous(A, h, c_mean, tol=1e-10, max_iter=1000):
    """solve_autonomous's solve in plain steps."""
    hv = h.values
    return picard_solve(lambda _field, psi: A.eval(psi) + hv, h.spec, c_mean,
                        tol * max(1.0, lp_norm(h, 2)), max_iter)


def band_forcing(spec, rms, seed, band=10):
    """Every mode of the band, with a 1/(1+|k|^2) spectrum and random phases."""
    rng = np.random.default_rng(seed)
    waves = [(k1, k2, np.exp(2j * np.pi * rng.uniform()) / (1 + k1 * k1 + k2 * k2))
             for k1 in range(-band, band + 1) for k2 in range(-band, band + 1)
             if (k1, k2) != (0, 0)]
    f = trig_field(spec, waves)
    return f * (rms / lp_norm(f, 2))


class TestTransformCount:
    # Each step runs an inverse transform of R * beurling for psi
    # (np.fft.ifftn, which fft_counts counts under "ifft2") and fft2 of the
    # right-hand side it just evaluated; reading the field f adds
    # ifft2(R / dzbar).  The start's right-hand side is one fft2 before the
    # loop, and after it one ifft2 builds the returned field's periodic part
    # from the best iterate's spectrum:
    #   gradient-only:  fft2 = I + 1, ifft2 = I + 1   (2 I + 2 in all)
    #   full map:       fft2 = I + 1, ifft2 = 2 I + 1 (3 I + 2 in all)
    # Plain, damped, declared-linear and chord steps (a map with no linear
    # part, stepped with its derivative at c) all count so, and an exactly
    # linear map is solved by its start: I = 1, four transforms.  A chord
    # that fails its first step restarts plain steps from the start's
    # right-hand side, one fft2 more; a later failure only drops T^-1.

    def test_autonomous_two_per_step(self, fft_counts, plain_steps):
        _, rep = solve_autonomous(abs_map(0.5), FORCING, 1.0, tol=1e-10)
        it = rep.iterations
        assert it > 10
        assert fft_counts == {"fft2": it + 1, "ifft2": it + 1}

    def test_chord_two_per_step(self, fft_counts):
        _, rep = solve_autonomous(abs_map(0.5), SMALL_FORCING, 1.0, tol=1e-10)
        it = rep.iterations
        assert rep.converged and not rep.notes and 1 < it < 10
        assert fft_counts == {"fft2": it + 1, "ifft2": it + 1}

    def test_chord_later_fallback_drops_its_inverse(self, fft_counts):
        _, rep = solve_autonomous(abs_map(0.5), FORCING, 1.0, tol=1e-10)
        it = rep.iterations
        assert rep.converged and "at iteration 3; plain steps from there" in rep.notes
        assert fft_counts == {"fft2": it + 1, "ifft2": it + 1}

    def test_chord_restart_from_the_start(self, fft_counts):
        _, rep = solve_autonomous(abs_map(0.9), FORCING, 1.0, tol=1e-10)
        it = rep.iterations
        assert rep.converged and "at iteration 2; plain steps from the start" in rep.notes
        assert fft_counts == {"fft2": it + 2, "ifft2": it + 1}

    def test_neumann_two_per_step(self, fft_counts):
        _, rep = solve_cc_neumann(CCParams(0.3, 0.2j), FORCING, 1.0, tol=1e-10)
        assert rep.iterations == 1
        assert fft_counts == {"fft2": 2, "ifft2": 2}

    def test_smoothsat_two_per_step(self, fft_counts):
        A = smooth_saturating_map(0.5, 0.2j, 0.2)
        _, rep = solve_autonomous(A, FORCING, 1.0, tol=1e-13)
        it = rep.iterations
        assert it > 10 and rep.converged and not rep.notes
        assert fft_counts == {"fft2": it + 1, "ifft2": it + 1}

    FULL = FullMap(eval=lambda z, w, zeta: 0.3 * zeta + 0.05 * w / (1 + np.abs(w)), k=0.3)

    @pytest.mark.parametrize("h", [None, FORCING], ids=["unforced", "forced"])
    def test_full_map_reads_field_every_step(self, h, fft_counts, plain_steps):
        _, rep = solve_full(self.FULL, 1.0, tol=1e-10, spec=SPEC, h=h)
        it = rep.iterations
        assert it > 10
        assert fft_counts == {"fft2": it + 1, "ifft2": 2 * it + 1}

    @pytest.mark.parametrize("h", [None, FORCING], ids=["unforced", "forced"])
    def test_full_map_chord_reads_field_every_step(self, h, fft_counts):
        _, rep = solve_full(self.FULL, 1.0, tol=1e-10, spec=SPEC, h=h)
        it = rep.iterations
        assert rep.converged and not rep.notes and 1 < it < 10
        assert fft_counts == {"fft2": it + 1, "ifft2": 2 * it + 1}


class TestBestIterate:
    def test_best_iterate_returned_on_nonconvergence(self, plain_steps):
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

    def test_chord_best_iterate_returned_on_nonconvergence(self):
        # the chord's second step fails, and the plain steps from the start
        # diverge: the least residual is the plain first step's
        spec = GridSpec(32)
        H = parse_map("linear:0.9,0,0,0+wterm:50,0+zterm:5,0,1,0", spec.L)
        f, rep = solve_full(H, 1.0, max_iter=60, spec=spec)
        assert not rep.converged and rep.iterations == 60
        assert "at iteration 2; plain steps from the start" in rep.notes
        best = min(rep.residual_history)
        assert rep.residual_history[2] == best < rep.residual_history[0]
        assert rep.residual_history[-1] > 10 * best
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


def whole_linear_inverse(beur, a, b):
    """T^-1's multipliers (m1, m2) on the whole grid, T^-1 E = m1*E +
    m2*conj(E[-k]), from the whole-grid beurling symbol B: the closed-form
    2x2 inverse with one real reciprocal in the bulk, and with F = conj(B[-k])
    as written on the Nyquist row and column."""
    n = beur.shape[0]
    m1 = np.multiply(beur, a)
    np.subtract(1.0, m1, out=m1)
    det = np.abs(m1)
    np.square(det, out=det)
    det -= abs(b) ** 2
    det[0, 0] = 1.0
    np.reciprocal(det, out=det)
    np.conjugate(m1, out=m1)
    m1 *= det
    m2 = np.conjugate(beur)
    m2 *= det
    m2 *= b
    h, flip = n // 2, -np.arange(n) % n
    for line, twin in (((h, slice(None)), (h, flip)), ((slice(None), h), (flip, h))):
        B, F = beur[line], np.conj(beur[twin])
        p1 = 1.0 - np.conj(a) * F
        det = (1.0 - a * B) * p1 - abs(b) ** 2 * (B * F)
        m1[line], m2[line] = p1 / det, b * F / det
    return m1, m2


def reference_field(spec, c_mean, R=None):
    """The candidate the kernel hands rhs, from allocating transforms:
    c*z + d*conj(z) + P with d = R[0, 0]/n^2 and P = ifft2(R / dzbar), and
    the start c*z (d = 0, P = 0) for R = None."""
    n = spec.n
    if R is None:
        return GridField(spec, c_mean, 0, np.zeros((n, n), dtype=complex))
    _, inv_dzbar = whole_kernel_symbols(n, spec.L)
    return GridField(spec, c_mean, complex(R[0, 0]) / (n * n), np.fft.ifft2(R * inv_dzbar))


def reference_solve(rhs, spec, c_mean, tol, max_iter, damping=1.0, linear=None):
    """The fixed-point loop as it was before the kernel reused its work
    arrays: every step allocates its spectra and psi.  One step for every
    solve, R <- R + damping * M(E) with E = fft2(rhs) - R, whose norm is the
    kernel's sum of squares over the float view.  M is T^-1, from
    whole-grid multipliers (whole_linear_inverse), while linear = (a, b, k)
    with (a, b) not both zero holds, and the identity otherwise; the guard
    drops T^-1 and, after a failed second step, restarts from the start.
    The symbols and multipliers cover the whole grid, built here from
    whole-grid expressions, not from the kernel's.  rhs is handed the
    candidate as the kernel hands it, a GridField.  Returns (field, history,
    notes, converged)."""
    n = spec.n
    beur, _ = whole_kernel_symbols(n, spec.L)
    c_mean = complex(c_mean)
    field = partial(reference_field, spec, c_mean)

    def from_start():
        return np.fft.fft2(rhs(field, np.full((n, n), c_mean, dtype=complex)))

    def norm(x):
        x = x.reshape(-1).view(float)
        return math.sqrt(np.einsum("i,i->", x, x))

    R, inverse = from_start(), None
    if linear is not None and (linear[0], linear[1]) != (0, 0):
        a, b, k = linear
        m1, m2 = whole_linear_inverse(beur, a, b)

        def inverse(E):  # conj(E[-k]) is conj of E reversed on both axes, rolled by one
            return np.conj(np.roll(E[::-1, ::-1], 1, axis=(0, 1))) * m2 + E * m1

        R = inverse(R)
    history, converged, notes = [], False, []
    best_R, best_res = None, np.inf
    R_beur = np.empty((n, n), dtype=complex)
    for it in range(1, max_iter + 1):
        psi = np.fft.ifft2(np.multiply(R, beur, out=R_beur))
        psi += c_mean
        E = np.fft.fft2(rhs(partial(field, R), psi)) - R
        res = norm(E) / (n * n)
        if not math.isfinite(res):
            if not history:
                raise ArithmeticError("residual non-finite at iteration 1")
            notes.append(f"residual non-finite at iteration {it}; stopped")
            break
        history.append(res)
        if res < best_res:
            best_R, best_res = R, res
        if res <= tol:
            converged = True
            break
        if inverse is not None and len(history) > 1 and res > k * history[-2]:
            inverse = None
            notes.append(f"preconditioned step contracted by less than k = {k:g} at "
                         f"iteration {it}; plain steps from "
                         f"{'the start' if it == 2 else 'there'}")
            if it == 2:
                R = from_start()
                continue
        R = R + (damping * E if inverse is None else inverse(E))
    return field(best_R), history, "; ".join(notes), converged


def real_space_solve(rhs, spec, c_mean, tol, max_iter, damping=1.0, linear=None):
    """The plain loop in real space, as the kernel stepped before every step
    took one form: fft2(r_prev) each step, the residual ||r - r_prev||_2 of
    consecutive right-hand sides, a damped step blending them, and a chord
    that fails its second step restarting it from the start.  Steps of the
    same map in another rounding: the kernel must agree with it to 1e-13,
    with the same iterations, notes and best iterate."""
    n = spec.n
    beur, _ = whole_kernel_symbols(n, spec.L)
    c_mean = complex(c_mean)
    field = partial(reference_field, spec, c_mean)

    def start():
        return rhs(field, np.full((n, n), c_mean, dtype=complex))

    def norm(x):
        return math.sqrt(np.sum(np.abs(x) ** 2))

    chord = linear is not None and (linear[0], linear[1]) != (0, 0)
    r_prev = start()
    history, converged, notes = [], False, []
    best_R, best_res = None, np.inf
    if chord:
        a, b, k = linear
        m1, m2 = whole_linear_inverse(beur, a, b)

        def inverse(E):
            return np.conj(np.roll(E[::-1, ::-1], 1, axis=(0, 1))) * m2 + E * m1

        R = inverse(np.fft.fft2(r_prev))
    for it in range(1, max_iter + 1):
        if not chord:
            R = np.fft.fft2(r_prev)
        psi = np.fft.ifft2(R * beur) + c_mean
        r = rhs(partial(field, R), psi)
        if chord:
            E = np.fft.fft2(r) - R
            res = norm(E) / (n * n)
        else:
            res = norm(r - r_prev) / n
        if not math.isfinite(res):
            notes.append(f"residual non-finite at iteration {it}; stopped")
            break
        history.append(res)
        if res < best_res:
            best_R, best_res = R, res
        if res <= tol:
            converged = True
            break
        if chord and len(history) > 1 and res > k * history[-2]:
            assert it == 2, "only the restart is modelled"
            chord, r_prev = False, start()
            notes.append(f"preconditioned step contracted by less than k = {k:g} at "
                         f"iteration {it}; plain steps from the start")
        elif chord:
            R = R + inverse(E)
        else:
            r_prev = (1.0 - damping) * r_prev + damping * r
    return field(best_R), history, "; ".join(notes), converged


def assert_same_solve(f, rep, ref):
    g, history, notes, converged = ref
    assert f.values.tobytes() == g.values.tobytes()
    assert (f.c, f.d) == (g.c, g.d)
    assert rep.residual_history == history
    assert rep.final_residual == min(history)
    assert rep.iterations == len(history)
    assert (rep.notes, rep.converged) == (notes, converged)


def _record(monkeypatch, plain):
    """Records the arguments each solver hands to picard_solve; plain=True
    drops the linear part first, so the solve takes plain steps."""
    calls = []

    def recording(*args, **kwargs):
        if plain:
            kwargs["linear"] = None
        calls.append((args, kwargs))
        return picard_solve(*args, **kwargs)

    for module in (autonomous, fullnonlinear):
        monkeypatch.setattr(module, "picard_solve", recording)
    return calls


class TestReferenceOracle:
    """The kernel gives the allocating loop's results to the bit."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        return _record(monkeypatch, plain=False)

    @pytest.fixture
    def recorded_plain(self, monkeypatch):
        return _record(monkeypatch, plain=True)

    @staticmethod
    def check(recorded, solve, chord=False):
        f, rep = solve()
        (args, kwargs), = recorded
        assert (kwargs.get("linear") is not None) == chord
        assert_same_solve(f, rep, reference_solve(*args, **kwargs))
        return rep

    def test_autonomous_kabs(self, recorded_plain):
        rep = self.check(recorded_plain, lambda: solve_autonomous(abs_map(0.5), FORCING, 1.0))
        assert rep.converged

    # kabs(0.5) on FORCING fails its third chord step and kabs(0.9) its
    # second; the small forcing converges in chord steps throughout
    @pytest.mark.parametrize("k, h, note", [
        (0.5, SMALL_FORCING, ""),
        (0.5, FORCING, "at iteration 3; plain steps from there"),
        (0.9, FORCING, "at iteration 2; plain steps from the start")],
        ids=["chord", "later-fallback", "restart"])
    def test_chord_kabs(self, recorded, k, h, note):
        rep = self.check(recorded, lambda: solve_autonomous(abs_map(k), h, 1.0),
                         chord=True)
        assert rep.converged and note in rep.notes and bool(note) == bool(rep.notes)

    def test_chord_kabs_at_elision_size(self, recorded):
        spec = GridSpec(128)
        h = random_trig_field(spec, seed=2, amplitude=0.05)
        rep = self.check(recorded, lambda: solve_autonomous(abs_map(0.3), h, 1.0), chord=True)
        assert rep.converged and rep.iterations > 2

    def test_chord_full_map_at_elision_size(self, recorded):
        spec = GridSpec(128)
        H = parse_map("kabs:0.3+zterm:0.05,0,1,0+wterm:0.02,0", spec.L)
        rep = self.check(recorded, lambda: solve_full(H, 1.0, spec=spec), chord=True)
        assert rep.converged and rep.iterations > 2

    # at negative and imaginary means the start's samples carry other signed
    # zeros on the axes than c*z does: the kernel and the loop still agree
    @pytest.mark.parametrize("damping", [1.0, 0.7], ids=["chord", "damped"])
    @pytest.mark.parametrize("c", [-2.5, -1j])
    def test_full_map_off_the_positive_axis_at_elision_size(self, recorded, c, damping):
        spec = GridSpec(128)
        H = parse_map("kabs:0.3+zterm:0.05,0,1,0+wterm:0.02,0", spec.L)
        rep = self.check(recorded, lambda: solve_full(H, c, damping=damping, spec=spec),
                         chord=damping == 1.0)
        assert rep.converged and rep.iterations > 2

    # from n = 128 the kernel's psi has padded rows: its transforms, its
    # residual's sum of squares and the answer's copy keep the loop's bits
    def test_chord_kabs_restart_on_padded_rows(self, recorded):
        h = random_trig_field(GridSpec(256), seed=1, amplitude=0.5)
        rep = self.check(recorded, lambda: solve_autonomous(abs_map(0.9), h, 1.0), chord=True)
        assert rep.converged and "at iteration 2; plain steps from the start" in rep.notes

    def test_smoothsat_preconditioned_on_padded_rows(self, recorded):
        h = random_trig_field(GridSpec(256), seed=1, amplitude=0.5)
        A = smooth_saturating_map(0.3, 0.1, 0.2)
        rep = self.check(recorded, lambda: solve_autonomous(A, h, 1.0 + 0.5j), chord=True)
        assert rep.converged and not rep.notes and rep.iterations > 5

    @staticmethod
    def check_close(recorded, solve):
        """A map with a linear part takes preconditioned steps: the same
        solution as the plain loop to 1e-8, in fewer iterations."""
        f, rep = solve()
        (args, kwargs), = recorded
        assert kwargs["linear"] is not None
        g, history, notes, converged = reference_solve(*args, **{**kwargs, "linear": None})
        assert rep.converged and converged and not rep.notes
        assert rel_l2(f.values, g.values) <= 1e-8
        assert f.c == g.c and abs(f.d - g.d) <= 1e-8 * max(1.0, abs(g.d))
        assert rep.iterations < len(history)
        return rep

    def test_neumann(self, recorded):
        rep = self.check_close(recorded,
                               lambda: solve_cc_neumann(CCParams(0.3, 0.2j), FORCING, 1.0))
        assert rep.iterations == 1

    def test_smoothsat(self, recorded):
        A = smooth_saturating_map(0.3, 0.1, 0.2)
        self.check_close(recorded, lambda: solve_autonomous(A, FORCING, 1.0 + 0.5j))

    def test_damped_full_map(self, recorded):
        H = parse_map("kabs:0.3+zterm:0.05,0,1,0+wterm:0.02,0", SPEC.L)
        rep = self.check(recorded, lambda: solve_full(H, 1.0, damping=0.7, spec=SPEC))
        assert rep.converged and rep.iterations > 10

    def test_damped_full_map_at_elision_size(self, recorded):
        # n = 128 is the smallest grid whose complex temporaries (256 KiB)
        # numpy elides into a product, which then takes its operands in the
        # other order; the kernel's full-map field must round as the
        # reference does on both sides of that size
        spec = GridSpec(128)
        H = parse_map("kabs:0.3+zterm:0.05,0,1,0+wterm:0.02,0", spec.L)
        rep = self.check(recorded, lambda: solve_full(H, 1.0, damping=0.7, spec=spec))
        assert rep.converged and rep.iterations > 10

    def test_divergent_full_map_best_iterate(self, recorded_plain):
        spec = GridSpec(32)
        H = parse_map("linear:0.9,0,0,0+wterm:50,0+zterm:5,0,1,0", spec.L)
        rep = self.check(recorded_plain, lambda: solve_full(H, 1.0, max_iter=60, spec=spec))
        assert not rep.converged and rep.residual_history[0] == rep.final_residual

    def test_chord_divergent_full_map_best_iterate(self, recorded):
        spec = GridSpec(32)
        H = parse_map("linear:0.9,0,0,0+wterm:50,0+zterm:5,0,1,0", spec.L)
        rep = self.check(recorded, lambda: solve_full(H, 1.0, max_iter=60, spec=spec),
                         chord=True)
        assert not rep.converged and rep.residual_history[2] == rep.final_residual

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_stop(self, recorded_plain):
        H = FullMap(lambda z, w, zeta: 0.3 * zeta + 0.1 * w ** 2, k=0.3)
        rep = self.check(recorded_plain, lambda: solve_full(H, 1.0, max_iter=200, spec=SPEC))
        assert "non-finite" in rep.notes

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_chord_nonfinite_stop(self, recorded):
        H = FullMap(lambda z, w, zeta: 0.3 * zeta + 0.1 * w ** 2, k=0.3)
        rep = self.check(recorded, lambda: solve_full(H, 1.0, max_iter=200, spec=SPEC),
                         chord=True)
        assert "plain steps from the start; residual non-finite" in rep.notes

    # plain, damped, restarted and rising-above-the-best solves, which take
    # E's update where the real-space loop took consecutive right-hand sides
    @pytest.mark.parametrize("plain, solve", [
        (False, lambda: solve_autonomous(abs_map(0.3), FORCING, 0.0)),
        (False, lambda: solve_full(parse_map("kabs:0.3+zterm:0.05,0,1,0+wterm:0.02,0", SPEC.L),
                                   1.0, damping=0.7, spec=SPEC)),
        (False, lambda: solve_autonomous(abs_map(0.9), FORCING, 1.0)),
        (True, lambda: solve_full(parse_map("linear:0.9,0,0,0+wterm:50,0+zterm:5,0,1,0", SPEC.L),
                                  1.0, max_iter=60, spec=GridSpec(32))),
    ], ids=["kabs-c0", "damped-full-map", "kabs0.9-restart", "divergent-full-map"])
    def test_real_space_loop(self, monkeypatch, plain, solve):
        recorded = _record(monkeypatch, plain=plain)
        f, rep = solve()
        (args, kwargs), = recorded
        g, history, notes, converged = real_space_solve(*args, **kwargs)
        assert (rep.iterations, rep.notes, rep.converged) == (len(history), notes, converged)
        assert np.argmin(rep.residual_history) == np.argmin(history)
        assert rep.residual_history == pytest.approx(history, rel=1e-12, abs=1e-14)
        assert rel_l2(f.values, g.values) <= 1e-13
        assert f.c == g.c and abs(f.d - g.d) <= 1e-13 * max(1.0, abs(g.d))


class TestChord:
    """A map that declares no linear part is stepped with its derivative at
    the mean gradient c, (a, b) = DA(c) by central differences: Newton's
    chord method, under the same guard as a declared linear part."""

    @pytest.mark.parametrize("c", [1.0, 1.0 + 0.5j, -0.3j, 40.0 - 7.0j, 1e-3])
    @pytest.mark.parametrize("k", [0.3, 0.9])
    def test_kabs_closed_form(self, c, k):
        a, b, kk = _chord(abs_map(k).eval, c, k)
        assert kk == k
        assert abs(a - k * np.conj(c) / (2 * abs(c))) <= 1e-9
        assert abs(b - k * c / (2 * abs(c))) <= 1e-9

    @pytest.mark.parametrize("a, b", [(0.3, 0.1), (0.5, 0.3j),
                                      (0.55 * np.exp(0.4j), 0.35 * np.exp(2.1j))])
    @pytest.mark.parametrize("c", [1.0, 0.7 + 0.2j, 0.0])
    def test_linear_map_closed_form(self, a, b, c):
        aa, bb, _ = _chord(linear_map(a, b).eval, c, 0.9)
        assert abs(aa - a) <= 1e-9 and abs(bb - b) <= 1e-9

    def test_no_chord_at_or_past_ellipticity_or_when_not_finite(self):
        assert _chord(lambda z: 0.6 * z + 0.4 * np.conj(z), 1.0, 0.9) is None
        assert _chord(lambda z: 1.2 * z, 1.0, 0.9) is None
        with np.errstate(invalid="ignore"):
            assert _chord(lambda z: z * np.inf, 1.0, 0.3) is None
            assert _chord(lambda z: z * np.nan, 1.0, 0.3) is None

    def test_declared_linear_part_wins(self, monkeypatch):
        # a map's linf goes to the kernel as declared; a damped full map
        # gets no linear part, an undamped one its chord
        calls = _record(monkeypatch, plain=False)
        A = smooth_saturating_map(0.5, 0.2j, 0.2)
        solve_autonomous(A, FORCING, 1.0)
        H = parse_map("kabs:0.3+wterm:0.05,0", SPEC.L)
        solve_full(H, 1.0, damping=0.7, spec=SPEC)
        solve_full(H, 1.0, spec=SPEC)
        assert [kwargs["linear"] for _, kwargs in calls] == [
            (0.5, 0.2j, A.k), None, _chord(abs_map(0.3).eval, 1.0, 0.3)]

    def test_kabs_at_zero_mean_takes_plain_steps(self):
        # k|z| at c = 0 differences to (0, 0): no chord, today's plain bytes
        assert _chord(abs_map(0.3).eval, 0.0, 0.3) == (0, 0, 0.3)
        f, rep = solve_autonomous(abs_map(0.3), FORCING, 0.0)
        g, plain = plain_autonomous(abs_map(0.3), FORCING, 0.0)
        assert rep.converged and not rep.notes
        assert rep.residual_history == plain.residual_history
        assert f.values.tobytes() == g.values.tobytes() and f.d == g.d

    def test_setup_ladder_in_at_most_4(self):
        # the probe benchmark's set-up: kabs:0.3 under small smooth forcing
        rng = np.random.default_rng(23)
        phases = np.exp(2j * np.pi * rng.uniform(size=3))
        waves = [(1, 0, 2e-3 * phases[0]), (0, 1, 2e-3 * phases[1]), (1, 1, 1e-3 * phases[2])]
        for n in (128, 256, 512):
            h = trig_field(GridSpec(n), waves)
            f, rep = solve_autonomous(abs_map(0.3), h, 1.0, tol=1e-12)
            g, plain = plain_autonomous(abs_map(0.3), h, 1.0, tol=1e-12)
            assert rep.converged and not rep.notes and rep.iterations <= 4
            assert plain.converged and plain.iterations == 18
            assert rel_l2(f.values, g.values) <= 1e-9

    def test_linear_base_full_map_in_at_most_12(self):
        # a linear base with a position and an unknown term: 84 plain steps
        spec = GridSpec(256)
        H = parse_map("linear:0.5,0,0.3,0+zterm:0.1,0,2,1+wterm:0.05,0", spec.L)
        f, rep = solve_full(H, 1.0, tol=1e-10, spec=spec)
        assert rep.converged and not rep.notes and rep.iterations <= 12
        assert full_residual(H, f) <= 1.5e-10
        Z = z_grid(spec)

        def rhs(field, psi):
            g = field()
            return H.eval(Z, g.c * Z + g.d * np.conj(Z) + g.values, psi)

        _, plain = picard_solve(rhs, spec, 1.0, 1e-10, 200)
        assert plain.converged and plain.iterations == 84

    def test_rough_kabs_09_restarts_to_the_plain_bytes(self):
        # the chord's first step fails under rough forcing: plain steps from
        # the start, two iterations after the plain solve's own
        h = band_forcing(GridSpec(64), rms=0.5, seed=5)
        f, rep = solve_autonomous(abs_map(0.9), h, 1.0)
        g, plain = plain_autonomous(abs_map(0.9), h, 1.0)
        assert rep.converged and plain.converged
        assert "at iteration 2; plain steps from the start" in rep.notes
        assert rep.iterations == plain.iterations + 2
        assert rep.residual_history[2:] == plain.residual_history
        assert f.values.tobytes() == g.values.tobytes() and f.d == g.d


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


class TestPaddedRows:
    """The numpy behaviour the kernel's padded work rows rely on: in-place
    transforms of a row-padded view, and a sum of squares over one, give
    the bits of the contiguous array's."""

    @staticmethod
    def padded(x):
        """x copied into the [:, :n] view of an n x (n + 8) buffer."""
        n = x.shape[1]
        v = np.empty((x.shape[0], n + 8), dtype=complex)[:, :n]
        v[...] = x
        return v

    @pytest.mark.parametrize("n", [128, 256, 512, 1024])
    def test_in_place_transforms_keep_the_contiguous_bits(self, n):
        x = np.random.default_rng(n).standard_normal((n, 2 * n)).view(complex)
        for transform, want in ((np.fft.fft2, np.fft.fft2(x)), (np.fft.ifftn, np.fft.ifft2(x))):
            v = self.padded(x)
            assert transform(v, out=v) is v
            assert np.ascontiguousarray(v).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [16, 64, 128, 256, 512, 1024, 2048])
    @pytest.mark.parametrize("scale", ["spread", 1e-8, 1e3])
    def test_sum_squares_keeps_the_flat_einsum_bits(self, n, scale):
        # magnitudes spread over 1e-8..1e3 within one array, or all near one
        for seed in range(3 if n < 2048 else 1):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((n, 2 * n)).view(complex)
            x *= 10.0 ** rng.uniform(-8, 3, (n, n)) if scale == "spread" else scale
            flat = x.reshape(-1).view(float)
            want = float(np.einsum("i,i->", flat, flat))
            v = self.padded(x)
            assert grid._sum_squares(v) == want
            with fixedpoint._ufunc_buffer(n):  # as the kernel calls it
                assert grid._sum_squares(v) == want


class TestTolerance:
    """The solvers refuse a stopping threshold that no residual meets, or
    that every residual meets."""

    SOLVES = {
        "autonomous": lambda tol: solve_autonomous(abs_map(0.3), FORCING, 1.0, tol, 50),
        "full": lambda tol: solve_full(parse_map("kabs:0.3+wterm:0.05,0", SPEC.L), 1.0,
                                       tol=tol, max_iter=50, spec=SPEC),
        "neumann": lambda tol: solve_cc_neumann(CCParams(0.3, 0.2j), FORCING, 1.0, tol, 50),
    }

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300, math.inf])
    @pytest.mark.parametrize("kind", SOLVES)
    def test_rejects_nan_negative_or_infinite(self, kind, tol):
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            self.SOLVES[kind](tol)

    @pytest.mark.parametrize("kind", SOLVES)
    def test_zero_runs_to_max_iter_or_an_exact_zero(self, kind):
        _, rep = self.SOLVES[kind](0.0)
        assert rep.converged == (rep.final_residual == 0.0)


class TestUfuncBuffer:
    """The kernel runs its own passes with numpy's ufunc buffer at one row
    (at most the caller's), and rhs with the caller's, which it restores
    however the solve ends."""

    @pytest.fixture
    def caller_size(self, request):
        outer = np.setbufsize(request.param)
        yield request.param
        np.setbufsize(outer)

    @pytest.mark.parametrize("caller_size, n", [(2048, 16), (2048, 128), (64, 128)],
                             indirect=["caller_size"])
    def test_kernel_and_rhs_sizes(self, monkeypatch, caller_size, n):
        seen = {"kernel": set(), "rhs": set()}
        sum_squares = fixedpoint._sum_squares

        def recorded(values):
            seen["kernel"].add(np.getbufsize())
            return sum_squares(values)

        def rhs(_field, psi):
            seen["rhs"].add(np.getbufsize())
            return psi

        monkeypatch.setattr(fixedpoint, "_sum_squares", recorded)
        picard_solve(rhs, GridSpec(n), 1.0, 0.0, 2)
        assert seen == {"kernel": {min(n, caller_size)}, "rhs": {caller_size}}
        assert np.getbufsize() == caller_size

    @pytest.mark.parametrize("caller_size", [2048], indirect=True)
    def test_restored_when_the_solve_raises(self, caller_size):
        def rhs(_field, psi):
            raise KeyError("rhs")

        with pytest.raises(KeyError):
            picard_solve(rhs, GridSpec(128), 1.0, 1e-10, 10)
        assert np.getbufsize() == caller_size
        with pytest.raises(ArithmeticError):
            picard_solve(lambda _field, psi: psi * np.nan, SPEC, 1.0, 1e-10, 10)
        assert np.getbufsize() == caller_size


class TestPreconditioned:
    """Maps that declare a linear part at infinity: each step solves
    (I - a*S - b*conj∘S) exactly, and only the sublinear rest is iterated."""

    SPEC64 = GridSpec(64)

    @pytest.mark.parametrize("A, most", [
        (linear_map(0.5, 0.3j), 2),
        (smooth_saturating_map(0.5, 0.2j, 0.2), 20),
    ], ids=["linear", "smoothsat"])
    def test_agrees_with_plain(self, A, most):
        h = random_trig_field(self.SPEC64, seed=4)
        f, rep = solve_autonomous(A, h, 1.0 - 0.5j, tol=1e-12)
        g, plain = plain_autonomous(A, h, 1.0 - 0.5j, tol=1e-12)
        assert rep.converged and plain.converged and not rep.notes
        assert rep.iterations <= most < plain.iterations
        # the preconditioned start solves the linear part of the affine start
        assert rep.residual_history[0] <= plain.residual_history[0]
        assert rel_l2(f.values, g.values) <= 1e-8
        assert abs(f.d - g.d) <= 1e-8 * max(1.0, abs(g.d))

    def test_linear_matches_changevar_in_two_iterations(self, fft_counts):
        p = CCParams(0.55 * np.exp(0.4j), 0.35 * np.exp(2.1j))
        u = random_trig_field(self.SPEC64, seed=8, band=12, modes=10)
        before = dict(fft_counts)
        fa, ra = solve_cc_neumann(p, u, 0.7 + 0.2j, tol=1e-12)
        # the start solves the linear map; one iteration measures it: 4 transforms
        assert {key: fft_counts[key] - before[key] for key in before} == {"fft2": 2, "ifft2": 2}
        fb, rb = solve_cc_changevar(p, u, 0.7 + 0.2j)
        assert ra.converged and rb.converged and ra.iterations == 1
        assert rel_l2(fa.values, fb.values) <= 1e-12
        assert abs(fa.d - fb.d) <= 1e-12

    def test_nyquist_forcing_in_two_iterations(self, fft_counts):
        # the discrete 2x2 solve pairs the Nyquist rows with themselves, as
        # conj does on the grid, so it is exact where changevar gives up
        n = self.SPEC64.n
        U = np.zeros((n, n), dtype=complex)
        U[n // 2, 3], U[5, n // 2], U[n // 2, n // 2] = 1.0, 0.5j, 0.25
        u = GridField(self.SPEC64, 0, 0, np.fft.ifft2(U) * n * n)
        p = CCParams(0.6, 0.3j)
        with pytest.raises(ValueError, match="shear-resampling failure"):
            solve_cc_changevar(p, u, 1.0)
        before = dict(fft_counts)
        f, rep = solve_cc_neumann(p, u, 1.0, tol=1e-12)
        assert {key: fft_counts[key] - before[key] for key in before} == {"fft2": 2, "ifft2": 2}
        assert rep.converged and rep.iterations == 1
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
        # expands by about 13, and the first such step restarts plain steps
        # from the start, which then give the plain solve's field to the bit
        A = AutonomousMap(eval=lambda z: 0.3 * z, k=0.3, linf=CCParams(0.95, 0))
        h = random_trig_field(self.SPEC64, seed=3)
        f, rep = solve_autonomous(A, h, 1.0)
        g, plain = plain_autonomous(A, h, 1.0)
        assert rep.converged
        assert "less than k = 0.3 at iteration 2; plain steps from the start" in rep.notes
        assert rep.iterations == plain.iterations + 2
        assert rep.residual_history[2:] == plain.residual_history
        assert f.values.tobytes() == g.values.tobytes() and f.d == g.d
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

    @pytest.mark.parametrize("linear, n", [
        (None, 64), ((0.3, 0.1, 0.6), 64), (None, 256), ((0.3, 0.1, 0.6), 256)],
        ids=["plain", "linear", "plain-n256", "linear-n256"])
    def test_step_allocates_only_rhs_result(self, linear, n):
        # between two rhs calls the kernel allocates no n x n array: the
        # traced peak stays below one real n x n array above the memory in
        # use when the previous call returned.  At n = 256 psi has padded
        # rows, and the residual's chunk scratch counts too.
        spec = GridSpec(n)
        A = smooth_saturating_map(0.3, 0.1, 0.2)
        hv = random_trig_field(spec, seed=3).values
        extra, base = [], [0]

        def rhs(_field, psi):
            extra.append(tracemalloc.get_traced_memory()[1] - base[0])
            out = A.eval(psi) + hv
            tracemalloc.reset_peak()
            base[0] = tracemalloc.get_traced_memory()[0]
            return out

        (_, rep), _, _ = traced_peak(partial(picard_solve, linear=linear),
                                     rhs, spec, 1.0, 1e-12, 100)
        assert rep.converged and rep.iterations > 5
        # the first windows hold the start: work arrays and multipliers
        assert max(extra[2:]) < n * n * 8


class TestSolveHoldsOnlyWhatItsStepReads:
    """A solve calls no BLAS, builds z only in solve_full, once, frees its
    work arrays before it builds the answer and keeps nothing else."""

    SPEC64 = GridSpec(64)
    SOLVES = {
        "neumann": lambda h: solve_cc_neumann(CCParams(0.5, 0.2j), h, 1.0),
        "smoothsat": lambda h: solve_autonomous(smooth_saturating_map(0.5, 0.2j, 0.2), h, 1.0),
        "kabs": lambda h: solve_autonomous(abs_map(0.3), h, 1.0),
        # its chord's second step fails: T^-1 is freed, plain steps from the start
        "kabs0.9-restart": lambda h: solve_autonomous(abs_map(0.9), h, 1.0),
        "full": lambda h: solve_full(parse_map("kabs:0.3+wterm:0.05,0", h.spec.L), 1.0,
                                     spec=h.spec, h=h),
        "changevar": lambda h: solve_cc_changevar(CCParams(0.5, 0.2j), h, 1.0),
        # k|z| at c = 0 has no chord, and a damped full map none: plain steps
        "kabs-c0": lambda h: solve_autonomous(abs_map(0.3), h, 0.0),
        "full-damped": lambda h: solve_full(parse_map("kabs:0.3+wterm:0.05,0", h.spec.L), 1.0,
                                            damping=0.7, spec=h.spec, h=h),
    }

    @pytest.mark.parametrize("kind", SOLVES)
    def test_no_blas(self, kind, no_blas):
        _, rep = self.SOLVES[kind](FORCING)
        assert rep.converged

    def test_only_a_full_map_builds_z(self, monkeypatch):
        # the kernel deals only in spectra and GridFields and builds no z;
        # solve_full builds each step's z one row block at a time, never
        # more than a block, and gives the bytes of whole-grid blocks with
        # 3 rows a block (a ragged last block of 1 row at n = 16)
        assert not hasattr(fixedpoint, "z_grid")
        kinds = ("neumann", "smoothsat", "kabs", "full", "full-damped")
        whole = {kind: self.SOLVES[kind](FORCING) for kind in kinds}
        monkeypatch.setattr(grid, "_BLOCK", 3 * SPEC.n)
        rows_built = []

        def counted(spec, rows=slice(None)):
            z = z_grid(spec, rows)
            rows_built.append(z.shape[0])
            return z

        for name, module in list(sys.modules.items()):
            if name.startswith("beltrami") and hasattr(module, "z_grid"):
                monkeypatch.setattr(module, "z_grid", counted)
        for kind in kinds:
            rows_built.clear()
            f, rep = self.SOLVES[kind](FORCING)
            g, ref = whole[kind]
            assert rep.converged and rep.residual_history == ref.residual_history, kind
            assert f.values.tobytes() == g.values.tobytes() and f.d == g.d, kind
            # one pass over the grid per right-hand side: the start's and each step's
            calls = rep.iterations + 1 if kind.startswith("full") else 0
            assert sum(rows_built) == SPEC.n * calls and max(rows_built, default=0) <= 3, kind

    @pytest.mark.parametrize("c", [1.0, -2.5, -1j, 0.8 - 0.3j])
    def test_start_is_the_affine_field(self, c):
        # the first candidate handed to rhs is f = c*z: no d, no periodic part
        starts = []

        def rhs(field, psi):
            if not starts:
                starts.append(field())
            return 0.5 * np.abs(psi) + FORCING.values

        picard_solve(rhs, SPEC, c, 1e-10, 3)
        g, = starts
        assert isinstance(g, GridField) and (g.spec, g.c, g.d) == (SPEC, c, 0)
        assert not g.values.any()
        # equal in value: the signed zeros on the axes may differ from c*z's
        assert np.array_equal(g.total_values(), c * z_grid(SPEC))

    # Traced peak above entry, in n x n complex arrays, at n = 64 with the
    # kernel's symbols warm.  Before the work arrays were freed for the answer
    # and z was built lazily: kabs 10.6, smoothsat 14.1, neumann 12.6, and
    # derivative_pair 5.0 before it reused its buffers.  Before the Neumann
    # solve built T^-1 without temporaries and changevar ran in place:
    # neumann 9.55, changevar 12.04, cc_residual 5.02 (now 8.05, 5.03, 4.01).
    # kabs takes chord steps (6.56, as in plain steps), and kabs0.9 restarts
    # plain steps after its chord's second step (6.56; 7.60 had the restart
    # kept T^-1).  Plain and damped steps hold one array less since they
    # update the spectrum in place of keeping the previous right-hand side:
    # kabs at c = 0 5.56 -> 4.56, the damped full map 13.09 -> 12.09.  Since
    # the kernel builds no z and solve_full frees each candidate's periodic
    # part before H runs, a full map holds two arrays less: 14.09 -> 12.09
    # undamped (chord steps), 12.09 -> 10.08 damped.  derivative_pair builds
    # its symbols per call from one wavevector block, the whole grid at
    # n = 64: 2.03 -> 3.03 (changevar 5.03 -> 5.04, cc_residual 4.01).
    # T^-1's multipliers are kept on half the spectrum, one array where
    # there were two: kabs 6.56 -> 5.64, smoothsat 9.58 -> 8.65, neumann
    # 8.06 -> 7.13, full 12.09 -> 11.15, kabs0.9-restart 6.56 -> 5.64.
    # residual frees f_z before it forms the difference: 4.53 -> 3.53.
    # A plain or damped step holds three n x n arrays (two spectra and psi),
    # a chord or declared-linear step four (T^-1's two multipliers besides,
    # on half the spectrum); the right-hand side's temporaries come on top.
    # At n = 64 one row block is the whole grid, so the full map's blocked
    # right-hand side shows at n = 256 only, where H is evaluated a block
    # at a time: 9.15 -> 6.15 in chord steps, 8.13 -> 5.13 damped.  From
    # n = 128 psi has padded rows: kabs at n = 256 peaks at 4.43, against
    # 4.27 with contiguous rows (0.03 is the padding, 0.125 numpy's 128 KiB
    # buffer for the map's ufunc over a padded row block).
    @pytest.mark.parametrize("kind, bound", [
        ("kabs", 6.0), ("smoothsat", 9.0), ("neumann", 7.5), ("derivative_pair", 3.5),
        ("changevar", 5.5), ("cc_residual", 4.5), ("kabs0.9-restart", 6.0),
        ("kabs-c0", 5.0), ("full", 11.5), ("full-damped", 10.5), ("residual", 4.0),
        ("full-n256", 6.5), ("full-damped-n256", 5.5), ("kabs-n256", 4.5)])
    def test_traced_peak(self, kind, bound):
        spec = GridSpec(256) if kind.endswith("-n256") else self.SPEC64
        kind = kind.removesuffix("-n256")
        h = random_trig_field(spec, seed=3)
        if kind == "derivative_pair":
            call, arg = derivative_pair, self.SOLVES["kabs"](h)[0]
        elif kind == "cc_residual":
            f = self.SOLVES["changevar"](h)[0]
            call, arg = partial(cc_residual, CCParams(0.5, 0.2j), f), h
        elif kind == "residual":
            f = self.SOLVES["kabs"](h)[0]
            call, arg = partial(residual, abs_map(0.3), f), h
        else:
            call, arg = self.SOLVES[kind], h
        out = call(arg)
        if kind == "kabs0.9-restart":
            assert "at iteration 2; plain steps from the start" in out[1].notes
        _, peak, _ = traced_peak(call, arg)
        assert peak / (spec.n ** 2 * 16) < bound

    @pytest.mark.parametrize("kind", SOLVES)
    def test_solve_keeps_only_its_answer(self, kind):
        # Traced from the first solve on a grid of its own, with only the
        # kernel's two symbols warm: operators caches the beurling and
        # 1/dzbar multipliers by design, since every step reads them.  Once
        # the solve returns, what it still holds besides the answer's
        # samples is less than one n x n array, so no other per-grid cache
        # of one is kept.
        spec = GridSpec(64, L=3.0 + list(self.SOLVES).index(kind))
        h = random_trig_field(spec, seed=3)
        _kernel_symbols(spec.n, spec.L)
        (f, rep), _, kept = traced_peak(self.SOLVES[kind], h)
        assert rep.converged
        assert kept - f.values.nbytes < spec.n ** 2 * 16

    CALLS = {
        "derivative_pair": lambda f, h: [g.values for g in derivative_pair(f)],
        "second_derivatives": lambda f, h: list(_second_derivatives(f)),
        "resample": lambda f, h: [resample(f, 128).values],
        "changevar": lambda f, h: [solve_cc_changevar(CCParams(0.5, 0.2j), h, 1.0)[0].values],
        "cc_residual": lambda f, h: [cc_residual(CCParams(0.5, 0.2j), f, h)],
    }

    @pytest.mark.parametrize("kind", CALLS)
    def test_call_keeps_only_its_outputs(self, kind):
        # The first call on a grid of its own, with nothing warm: the
        # derivative symbols and the wavevectors are built per call, so what
        # it still holds besides its outputs' arrays is less than one n x n
        # array.  Only the fixed-point kernel's two symbols are cached.
        spec = GridSpec(64, L=20.0 + list(self.CALLS).index(kind))
        f = random_trig_field(spec, seed=4, c=0.7 - 0.2j, d=0.1 + 0.3j)
        h = random_trig_field(spec, seed=3)
        out, _, kept = traced_peak(self.CALLS[kind], f, h)
        assert kept - sum(np.asarray(a).nbytes for a in out) < spec.n ** 2 * 16

    @pytest.mark.parametrize("kind", ["preconditioned", "plain", "damped"])
    def test_residual_is_the_equation_residual(self, kind):
        # stopped early, the reported residual is the recomputed equation
        # residual of the returned field: the Parseval sum's 1/n^2 and root
        h = random_trig_field(self.SPEC64, seed=3)
        if kind == "damped":
            H = parse_map("kabs:0.3+wterm:0.05,0", h.spec.L)
            solve = partial(solve_full, H, 1.0, damping=0.7, spec=h.spec)
            recomputed = partial(full_residual, H)
        else:
            A, c = ((smooth_saturating_map(0.5, 0.2j, 0.2), 1.0) if kind == "preconditioned"
                    else (abs_map(0.3), 0.0))
            solve = partial(solve_autonomous, A, h, c)
            recomputed = partial(residual, A, h=h)
        # the first iterate is the start, with any linear part solved
        for max_iter in (3, 1):
            f, rep = solve(max_iter=max_iter)
            assert not rep.converged and rep.iterations == max_iter
            assert rep.final_residual == pytest.approx(recomputed(f), rel=1e-10)
