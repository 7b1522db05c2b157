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

    yields every point in one sweep.  Panels are kink-free and at most
    min(b/2, 1) wide.  The 10-point rule's error on a panel shrinks with the
    distance from the panel to the integrand's nearest complex singularity,
    measured in panel widths, and grows with the number of oscillations the
    panel holds.  The linear pieces have no singularity, tanh has poles at
    distance pi/2 from the real axis, and sin and cos turn once in 2 pi; a
    panel at most 1 wide keeps all of them at rounding level whatever b is.
    The cost is one panel per unit length beyond b = 2, so a call that would
    need more than ``MAX_PANELS`` panels raises QuadratureError up front, and
    the panels are integrated and summed in blocks of ``_PANEL_BLOCK``.

``laplace_expectation`` calls QUADPACK (Piessens et al., 1983) through SciPy's
compiled extension ``scipy.integrate._quadpack``, loaded from its file at the
first call.  ``scipy.integrate``'s package import, which loads
``scipy.special``, ``scipy.optimize`` and more (about half a second and 50 MB),
never runs, and importing the package, or a command that never integrates,
loads numpy alone.  The extension goes into ``sys.modules`` under its own
name, so a later ``from scipy import integrate`` finds the same module.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading

import numpy as np

from .errors import QuadratureError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
_GL_UNIT = 0.5 * (_GL_NODES + 1.0)  # the nodes mapped onto [0, 1]

# exp(-40) ~ 4e-18: tail weight below double-precision resolution.
TAIL_SPAN = 40.0

# laplace_expectation integrates over [-EXPECTATION_SPAN b, EXPECTATION_SPAN b]
# and accepts its value when QUADPACK's error estimate, over 2b, is at most
# EXPECTATION_TOL; stein.wh_enclosure's radius is built on the same two.
EXPECTATION_SPAN = 80.0
EXPECTATION_TOL = 1e-8

# A call needing more panels is refused before any array is built: at this
# many, one call takes about half a second and its node arrays tens of MB.
MAX_PANELS = 2 ** 20
# Panels integrated at once: 2^14 x 10 nodes, 1.3 MB an array.
_PANEL_BLOCK = 2 ** 14

_QUADPACK = "scipy.integrate._quadpack"
_QUADPACK_LOCK = threading.Lock()  # sweep points may integrate on threads
# QUADPACK's complaints, ier = 1..5, after scipy.integrate.quad's messages
_QUADPACK_REASONS = {
    1: "subdivision limit reached", 2: "roundoff error detected",
    3: "bad integrand behavior", 4: "roundoff error in the extrapolation",
    5: "probably divergent"}


def _quadpack():
    """SciPy's QUADPACK extension, from ``sys.modules`` or else loaded from
    its file in the installed ``scipy`` package.  Raises ImportError, naming
    SciPy's version, when the file or its _qagse or _qagpe is missing."""
    import scipy  # its own __init__ loads no subpackage

    with _QUADPACK_LOCK:
        module = sys.modules.get(_QUADPACK)
        if module is None:
            folder = os.path.join(os.path.dirname(scipy.__file__),
                                  "integrate")
            for suffix in importlib.machinery.EXTENSION_SUFFIXES:
                path = os.path.join(folder, "_quadpack" + suffix)
                if os.path.isfile(path):
                    spec = importlib.util.spec_from_file_location(
                        _QUADPACK, path)
                    module = importlib.util.module_from_spec(spec)
                    spec.loader.exec_module(module)
                    sys.modules[_QUADPACK] = module
                    break
    if not (hasattr(module, "_qagse") and hasattr(module, "_qagpe")):
        raise ImportError(f"scipy {scipy.__version__} has no QUADPACK "
                          f"extension {_QUADPACK} with _qagse and _qagpe")
    return module


def laplace_expectation(f, b: float, kinks=()) -> float:
    """E[f(W)], W ~ Laplace(0, b), by adaptive quadrature on [0, 80b].

    ``kinks`` lists points where f or f' jumps; the rule is split there,
    except at a kink within 80b * 2^-52 of 0, which is dropped.
    QUADPACK may take max(300, ceil(80b)) subintervals, to an absolute error
    of 1e-12 min(1, 2b), which over 2b meets ``EXPECTATION_TOL`` at any b:
    _qagse without breakpoints, _qagpe with them.
    Raises QuadratureError when the error estimate over 2b exceeds
    ``EXPECTATION_TOL``, or up front when 80b exceeds MAX_PANELS.
    QUADPACK's own complaint (roundoff, the subdivision limit) is logged at
    DEBUG: the error estimate alone decides.  Its refusal of the input
    (ier = 6) raises ValueError.
    """
    hi = EXPECTATION_SPAN * b
    # the subinterval limit grows with the span: Wh of cos takes 3735
    # subintervals at b = 1e3 and 21189 at 5e3; past MAX_PANELS it is
    # refused before any work, as the tail rule is
    if not hi <= MAX_PANELS:
        raise QuadratureError(
            f"expectation quadrature at b={b:g} needs up to {hi:.3g} "
            f"subintervals, more than {MAX_PANELS}")
    quadpack = _quadpack()

    def folded(u):
        return (f(u) + f(-u)) * np.exp(-u / b)

    # a kink within hi * eps of 0 cannot move the integral, and QUADPACK
    # given it as a breakpoint reports bad integrand behaviour
    points = sorted({abs(k) for k in kinks if hi * 2.0 ** -52 < abs(k) < hi})
    limit = max(300, math.ceil(hi))
    epsabs, epsrel = 1e-12 * min(1.0, 2.0 * b), 1e-12
    # the calls and arguments of integrate.quad(folded, 0.0, hi, points=
    # points or None, ..., full_output=1): its breakpoints, unique and
    # inside (0, hi) as these are, end with two zeros
    if points:
        out = quadpack._qagpe(folded, 0.0, hi, np.array(points + [0.0, 0.0]),
                              (), 1, epsabs, epsrel, limit)
    else:
        out = quadpack._qagse(folded, 0.0, hi, (), 1, epsabs, epsrel, limit)
    val, err, ier = out[0], out[1], out[-1]
    if ier == 6:
        raise ValueError(f"QUADPACK refused its input at b={b:g}")
    if ier:
        import logging  # on a complaint only: nothing else needs it

        logging.getLogger(__name__).debug(
            "QUADPACK at b=%g: %d subintervals, error estimate %.3e: %s",
            b, out[2]["last"], err, _QUADPACK_REASONS.get(ier, f"ier={ier}"))
    if err / (2.0 * b) > EXPECTATION_TOL:
        raise QuadratureError(f"expectation quadrature did not converge "
                              f"(error estimate {err / (2.0 * b):.3e})")
    return val / (2.0 * b)


def check_tail_panels(b: float, xs, kinks=()) -> None:
    """Raise QuadratureError when ``exp_weighted_right_tail`` on the sorted
    points xs would need more than MAX_PANELS panels."""
    top = xs[-1] + TAIL_SPAN * b
    # each gap g takes ceil(g / width_cap) <= g / width_cap + 1 panels
    most = (top - xs[0]) / min(0.5 * b, 1.0) + len(xs) + len(kinks)
    if not most <= MAX_PANELS:
        raise QuadratureError(
            f"tail quadrature at b={b:g} over [{xs[0]:g}, {xs[-1]:g}] needs "
            f"up to {most:.3g} panels, more than {MAX_PANELS}")


def exp_weighted_right_tail(f, b: float, xs, kinks=()) -> np.ndarray:
    """T(x) = (1/(2b)) int_0^inf exp(-u/b) f(x+u) du on sorted points xs.

    ``f`` must accept ndarray input.  Panels end at the points xs, at the
    ``kinks`` (where f is not smooth) and on a min(b/2, 1) grid up to the
    truncation point xs[-1] + TAIL_SPAN*b, so each panel integrand is
    analytic; a wider panel, as between two far-apart points, is split into
    equal parts, so T(x) does not depend on the other points.  Raises
    QuadratureError when that takes more than MAX_PANELS panels.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("xs must be a nonempty 1-d array")
    if np.any(np.diff(xs) < 0):
        raise ValueError("xs must be sorted ascending")
    check_tail_panels(b, xs, kinks)
    width_cap = min(0.5 * b, 1.0)
    top = xs[-1] + TAIL_SPAN * b
    pieces = [xs, np.arange(xs[-1], top, width_cap), np.asarray([top])]
    interior = [k for k in kinks if xs[0] < k < top]
    if interior:
        pieces.append(np.asarray(interior, dtype=float))
    nodes = np.unique(np.concatenate(pieces))
    # the width_cap grid's panels are width_cap up to rounding and stay whole
    gap = np.diff(nodes)
    parts = np.ceil(gap / width_cap - 1e-9).astype(int).clip(1)
    if parts.max() > 1:
        step = np.repeat(gap / parts, parts)
        k = np.arange(step.size) - np.repeat(np.cumsum(parts) - parts, parts)
        nodes = np.append(np.repeat(nodes[:-1], parts) + k * step, nodes[-1])

    # panel integrals and the suffix recursion, one block at a time from
    # the right; S_j = I_j + decay_j * S_{j+1} runs on Python floats, the
    # same IEEE product and sum as on numpy scalars at a fraction of the cost
    left = nodes[:-1]
    width = np.diff(nodes)
    suffix = np.zeros(nodes.size)
    acc = 0.0
    for lo in reversed(range(0, width.size, _PANEL_BLOCK)):
        x0 = left[lo:lo + _PANEL_BLOCK, None]
        w = width[lo:lo + _PANEL_BLOCK, None]
        y = x0 + _GL_UNIT[None, :] * w
        wts = (0.5 * w) * _GL_WEIGHTS[None, :]
        panel = np.sum(wts * np.exp(-(y - x0) / b) * f(y), axis=1).tolist()
        decay = np.exp(-w[:, 0] / b).tolist()
        block = [0.0] * len(panel)
        for j in range(len(panel) - 1, -1, -1):
            acc = panel[j] + decay[j] * acc
            block[j] = acc
        suffix[lo:lo + len(block)] = block
    return suffix[np.searchsorted(nodes, xs)] / (2.0 * b)
