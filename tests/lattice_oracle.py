"""Test oracle for the sweep's sampler: the exact law of a geometric sum of
Rademacher(sqrt 2) summands.

With N ~ Geometric(p) on {1, 2, ...} and X_i = +-sqrt 2, the scaled sum
W = sqrt(p) S_N has E[W^2] = 2 (b = 1) and lies on the lattice delta Z,
delta = sqrt(2p): W = delta J with J = S_N / sqrt 2 a sum of N signs.  J has
characteristic function E[cos(theta)^N] = p cos(theta) / (1 - q cos(theta)),
q = 1 - p, so its pmf is that function's inverse FFT, on a window wide
enough that the mass it folds over is below rounding.
"""

import math

import numpy as np

from laplace_stein.laplace import LaplaceParams, cdf

# the window holds |W| <= 45 b, where the Laplace(0, 1) tail is e^-45
HALF_WIDTH = 45.0


def lattice_step(p: float) -> float:
    """delta = sqrt(2p), the spacing of W's atoms."""
    return math.sqrt(2.0 * p)


def exact_pmf(p: float):
    """(j, P{J = j}) on the window j = -L/2 .. L/2 - 1, L the least power of
    two at least 2 ceil(45 / delta) + 2.  Entries may dip below 0 by FFT
    rounding."""
    need = 2 * math.ceil(HALF_WIDTH / lattice_step(p)) + 2
    size = 1 << (need - 1).bit_length()
    cos = np.cos(2.0 * np.pi * np.arange(size // 2 + 1) / size)
    phi = p * cos / (1.0 - (1.0 - p) * cos)
    pmf = np.fft.fftshift(np.fft.irfft(phi, n=size))
    return np.arange(-size // 2, size // 2), pmf


def exact_kolmogorov(p: float) -> float:
    """sup_x |P{W <= x} - F(x)|, F the Laplace(0, 1) CDF: the largest of
    |F_W(x) - F(x)| and |F_W(x-) - F(x)| over the atoms x of W."""
    j, pmf = exact_pmf(p)
    at = cdf(lattice_step(p) * j, LaplaceParams(0.0, 1.0))
    upper = np.cumsum(pmf)
    return float(max(np.max(np.abs(upper - at)),
                     np.max(np.abs(upper - pmf - at))))


def sample_kolmogorov(values, p: float) -> float:
    """sup_x |F_n(x) - P{W <= x}| for a sample of W, each value taken to its
    nearest atom rint(x / delta), so atoms are compared and not floats.  Both
    CDFs are steps on the same atoms, so the sup is taken on them."""
    j, pmf = exact_pmf(p)
    atoms = np.rint(np.asarray(values, float) / lattice_step(p))
    atoms = np.clip(atoms, j[0], j[-1]).astype(np.int64) - j[0]
    counts = np.bincount(atoms, minlength=j.size)
    empirical = np.cumsum(counts) / counts.sum()
    return float(np.max(np.abs(empirical - np.cumsum(pmf))))
