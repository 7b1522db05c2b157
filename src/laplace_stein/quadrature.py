"""Quadrature helpers tuned to exponential-tail integrands.

Two tools live here:

``laplace_expectation``
    E[f(W)] for W ~ Laplace(0, b), computed with adaptive Gauss-Kronrod on the
    two half-lines folded together, split at the integrand's kink points.  The
    integral is truncated where the exponential weight drops below double
    precision against O(1) integrands.

``exp_weighted_right_tail``
    Batch evaluation of the weighted tail transform

        T(x) = (1/(2b)) * integral_0^inf exp(-u/b) f(x+u) du

    on a sorted array of points.  A composite fixed-order Gauss-Legendre rule
    runs over a partition refined at f's kinks; with nodes x_0 < ... < x_K and
    panel integrals I_j = int_{x_j}^{x_{j+1}} exp(-(y-x_j)/b) f(y) dy the
    suffix recursion

        S_j = I_j + exp(-(x_{j+1} - x_j)/b) * S_{j+1},   T(x_j) = S_j / (2b)

    yields every point in one sweep.  Panels are kink-free and at most b/2
    wide.  The 10-point rule's error on a panel shrinks with the distance
    from the panel to the integrand's nearest complex singularity, measured
    in panel widths.  The linear pieces and sin and cos have none, and the
    rule is at rounding level there.  tanh has poles at distance pi/2 from
    the real axis, so wide panels resolve it less well: at b = 3.88 (panels
    1.94 wide) the Stein solution g(-10.58) differs by 3.5e-13 between a
    call on that point alone and one beside -2.95, which lays other nodes;
    that was the worst of 600 random (b, points) draws with b in [0.25, 4].
    It is far below the 1e-6 residual tolerance, but not below 1e-15.

SciPy is imported inside ``laplace_expectation``, the one function that calls
it, so that importing the package, and commands that never integrate, load
numpy alone.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)

# exp(-40) ~ 4e-18: tail weight below double-precision resolution.
TAIL_SPAN = 40.0


def laplace_expectation(f, b: float, kinks=(), tol: float = 1e-8) -> float:
    """E[f(W)], W ~ Laplace(0, b), by adaptive quadrature on [0, 80b].

    ``kinks`` lists points where f or f' jumps; the rule is split there.
    Raises QuadratureError when the error estimate exceeds ``tol``.
    """
    from scipy import integrate

    hi = 80.0 * b

    def folded(u):
        return (f(u) + f(-u)) * np.exp(-u / b)

    points = sorted({abs(k) for k in kinks if 0.0 < abs(k) < hi})
    val, err = integrate.quad(folded, 0.0, hi, points=points or None,
                              limit=300, epsabs=1e-12, epsrel=1e-12)
    if err / (2.0 * b) > tol:
        raise QuadratureError("expectation quadrature did not converge",
                              residual=err / (2.0 * b))
    return val / (2.0 * b)


def _gl_panels(nodes):
    """Per-panel left ends, widths, 10-point Gauss-Legendre nodes, weights."""
    left = nodes[:-1]
    width = np.diff(nodes)
    y = left[:, None] + (0.5 * (_GL_NODES + 1.0))[None, :] * width[:, None]
    wts = (0.5 * width)[:, None] * _GL_WEIGHTS[None, :]
    return left, width, y, wts


def exp_weighted_right_tail(f, b: float, xs, kinks=()) -> np.ndarray:
    """T(x) = (1/(2b)) int_0^inf exp(-u/b) f(x+u) du on sorted points xs.

    ``f`` must accept ndarray input.  Panels end at the points xs, at the
    ``kinks`` (where f is not smooth) and on a b/2 grid up to the truncation
    point xs[-1] + TAIL_SPAN*b, so each panel integrand is analytic; a panel
    wider than b/2, as between two far-apart points, is split into equal
    parts, so T(x) does not depend on the other points.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("xs must be a nonempty 1-d array")
    if np.any(np.diff(xs) < 0):
        raise ValueError("xs must be sorted ascending")
    top = xs[-1] + TAIL_SPAN * b
    pieces = [xs, np.arange(xs[-1], top, 0.5 * b), np.asarray([top])]
    interior = [k for k in kinks if xs[0] < k < top]
    if interior:
        pieces.append(np.asarray(interior, dtype=float))
    nodes = np.unique(np.concatenate(pieces))
    # the b/2 grid's panels are b/2 up to rounding and stay whole
    gap = np.diff(nodes)
    parts = np.ceil(gap / (0.5 * b) - 1e-9).astype(int).clip(1)
    if parts.max() > 1:
        step = np.repeat(gap / parts, parts)
        k = np.arange(step.size) - np.repeat(np.cumsum(parts) - parts, parts)
        nodes = np.append(np.repeat(nodes[:-1], parts) + k * step, nodes[-1])

    left, width, y, wts = _gl_panels(nodes)
    panel = np.sum(wts * np.exp(-(y - left[:, None]) / b) * f(y), axis=1)

    decay = np.exp(-width / b)
    suffix = np.zeros(nodes.size)
    acc = 0.0
    for j in range(nodes.size - 2, -1, -1):
        acc = panel[j] + decay[j] * acc
        suffix[j] = acc
    return suffix[np.searchsorted(nodes, xs)] / (2.0 * b)


def cumulative_integral(f, nodes) -> np.ndarray:
    """int_{nodes[0]}^{nodes[i]} f for every i, by panel-wise Gauss-Legendre.

    ``nodes`` must be sorted and f smooth on each panel; used to tabulate
    CDFs of reweighted densities on a fixed grid.
    """
    _, _, y, wts = _gl_panels(np.asarray(nodes, dtype=float))
    panel = np.sum(wts * f(y), axis=1)
    return np.concatenate([[0.0], np.cumsum(panel)])
