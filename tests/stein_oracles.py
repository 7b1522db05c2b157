"""Test oracles for the Stein solver: the two identities every admissible g
satisfies under W ~ Laplace(0, b), each expectation taken by
``laplace_expectation``."""

import numpy as np

from laplace_stein.quadrature import laplace_expectation


def verify_characterization(g, g_dd, b: float, kinks=()) -> float:
    """E[g(W)] - g(0) - b^2 E[g''(W)]; zero for any admissible g."""
    eg = laplace_expectation(g, b, kinks=kinks)
    egdd = laplace_expectation(g_dd, b, kinks=kinks)
    return eg - float(g(np.asarray(0.0))) - b ** 2 * egdd


def verify_first_order(g, g_d, b: float, kinks=()) -> float:
    """E[g'(W)] - (1/b) E[sgn(W) g(W)]; zero for any admissible g."""
    egd = laplace_expectation(g_d, b, kinks=kinks)
    esg = laplace_expectation(lambda w: np.sign(w) * g(w), b,
                              kinks=tuple(kinks) + (0.0,))
    return egd - esg / b
