"""Adaptive-quadrature references for the line integrals.

These are slow, one-callback-per-point integrals kept only to check the
vectorised rules in gaugekit against an independent method.
"""
import numpy as np
from scipy.integrate import quad

from gaugekit.errors import LineHitsObstacle

_QUAD_OPTS = dict(limit=200, epsabs=1e-13, epsrel=1e-12)


def adaptive_line_integral(evaluate, line, envelope, tail_tol=1e-9):
    """int f(x0 + s w) ds by adaptive quad on the same core |s| <= s_core as
    the library rule, plus QUADPACK's infinite-range tails. A vector-valued
    evaluate is projected on the line direction."""
    S = max(envelope.truncation_radius(tail_tol), 1.0)
    s_core = min(S, max(8.0 * (line.distance + 2.0), 48.0))

    def f(s):
        v = np.asarray(evaluate(line.points(s)), dtype=float)
        return float(v[0] @ line.omega) if v.ndim == 2 else float(v[0])

    total = quad(f, -s_core, s_core, **_QUAD_OPTS)[0]
    if S > s_core:
        total += quad(f, s_core, np.inf, **_QUAD_OPTS)[0] + quad(f, -np.inf, -s_core, **_QUAD_OPTS)[0]
    return total


def line_integral_vector_quadrature(config, line) -> float:
    """Brute-force quadrature of the full field A . w along the line.

    Independent check of the split evaluation: integrates transversal plus
    short-range together through the tangent substitution s = d tan(t).
    """
    if line.distance <= config.obstacle_radius:
        raise LineHitsObstacle("line meets the obstacle")
    d = line.distance
    w = line.omega

    def integrand(t):
        s = d * np.tan(t)
        x = line.points(s)[0]
        return float(config.vector_potential(x) @ w) * d / np.cos(t) ** 2

    val, _ = quad(integrand, -np.pi / 2 + 1e-10, np.pi / 2 - 1e-10,
                  limit=400, epsabs=1e-12, epsrel=1e-11)
    return val
