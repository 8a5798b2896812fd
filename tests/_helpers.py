"""Shared numeric helpers for the test suite."""

import tracemalloc

import numpy as np

from beltrami import GridField, derivative_pair


def rel_l2(x: np.ndarray, y: np.ndarray) -> float:
    """Relative l2 distance between sample arrays."""
    denom = np.sqrt(np.mean(np.abs(y) ** 2))
    return float(np.sqrt(np.mean(np.abs(x - y) ** 2)) / max(denom, 1e-300))


def spectrum(values: np.ndarray) -> np.ndarray:
    """Fourier coefficients of periodic samples, fft2 layout: entry
    [k2 % n, k1 % n] multiplies exp(i*(k1*x + k2*y)*2*pi/L)."""
    return np.fft.fft2(values) / values.shape[0] ** 2


def wavevectors(n: int, L: float) -> np.ndarray:
    """The whole wavevector grid KC = (2*pi/L)*(k1 + i*k2) in fft2 layout,
    as one meshgrid expression."""
    k = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    K1, K2 = np.meshgrid(k, k)
    return (2.0 * np.pi / L) * (K1 + 1j * K2)


def traced_peak(call, *args):
    """call(*args) under tracemalloc: its result, the traced peak and the
    memory it still holds on return, both in bytes above the memory in use
    on entry."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        out = call(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - entry, held - entry


def field_rel_l2(f: GridField, g: GridField) -> float:
    return rel_l2(f.total_values(), g.total_values())


def pair_rel_l2(f: GridField, g: GridField) -> float:
    """Relative l2 distance between the derivative pairs of two fields."""
    fz, fzb = derivative_pair(f)
    gz, gzb = derivative_pair(g)
    num = np.sqrt(np.mean(np.abs(fz.values - gz.values) ** 2
                          + np.abs(fzb.values - gzb.values) ** 2))
    den = np.sqrt(np.mean(np.abs(gz.values) ** 2 + np.abs(gzb.values) ** 2))
    return float(num / max(den, 1e-300))


def centered_dx(values: np.ndarray, h: float) -> np.ndarray:
    return (np.roll(values, -1, axis=1) - np.roll(values, 1, axis=1)) / (2 * h)


def centered_dy(values: np.ndarray, h: float) -> np.ndarray:
    return (np.roll(values, -1, axis=0) - np.roll(values, 1, axis=0)) / (2 * h)


def fd_dz(values: np.ndarray, h: float) -> np.ndarray:
    """Centered-difference d/dz, the independent derivative oracle."""
    return 0.5 * (centered_dx(values, h) - 1j * centered_dy(values, h))


def fd_dzbar(values: np.ndarray, h: float) -> np.ndarray:
    return 0.5 * (centered_dx(values, h) + 1j * centered_dy(values, h))
