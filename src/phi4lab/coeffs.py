"""Time-dependent reaction coefficients for the cubic equation.

The equation solved elsewhere in the package carries a quadratic coefficient
``f2(t)`` and a linear coefficient ``a(t)``, both spatially constant
polynomials in time.  This module provides

* exact time integrals of ``a`` (the scalar part of the damped propagator),
* exact extrema of polynomial coefficients on the time horizon, used to
  check the sign of the leading cubic coefficient,
* reduction of a general cubic reaction to leading coefficient -1,
* recentring of the equation around a spatially flat reference path, and
* the reference ODE itself.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import Polynomial

__all__ = [
    "as_poly",
    "poly_extrema",
    "CoefficientSet",
    "NormalizedCubic",
    "normalize_cubic",
    "recentre",
    "equilibrium_ode",
]

_MAX_ODE_STEPS = 1_000_000


def as_poly(x) -> Polynomial:
    """Coerce a scalar, coefficient sequence or Polynomial to a Polynomial."""
    if isinstance(x, Polynomial):
        return x
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if arr.ndim != 1:
        raise ValueError(f"cannot interpret shape {arr.shape} as polynomial coefficients")
    return Polynomial(arr)


def poly_extrema(p: Polynomial, lo: float, hi: float) -> tuple[float, float]:
    """Exact (min, max) of a polynomial on ``[lo, hi]`` via critical points."""
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    candidates = [lo, hi]
    if p.degree() >= 2:
        roots = p.deriv().roots()
        for r in roots:
            if abs(r.imag) < 1e-9 and lo <= r.real <= hi:
                candidates.append(float(r.real))
    vals = [float(p(c)) for c in candidates]
    return min(vals), max(vals)


class CoefficientSet:
    """Quadratic and linear coefficients of the recentred cubic equation.

    Parameters
    ----------
    f2, a : scalar, coefficient sequence or Polynomial
        Spatially constant polynomials in time.
    T : float
        Time horizon; extrema and stability margins refer to ``[0, T]``.
    """

    def __init__(self, f2, a, T: float):
        if T <= 0:
            raise ValueError(f"horizon must be positive, got {T}")
        self.f2 = as_poly(f2)
        self.a = as_poly(a)
        self.T = float(T)
        self._A = self.a.integ()

    def alpha(self, t: float, u: float) -> float:
        """Exact integral of ``a`` over ``[u, t]``."""
        return float(self._A(t) - self._A(u))

    def __repr__(self):
        return (
            f"CoefficientSet(f2={self.f2.coef.tolist()}, "
            f"a={self.a.coef.tolist()}, T={self.T})"
        )


class NormalizedCubic:
    """Coefficients after rescaling a cubic reaction to leading term ``-u^3``.

    Produced by :func:`normalize_cubic`; all attributes are callables of
    time.  ``lam`` is the field rescaling, ``noise_scale`` the factor applied
    to the noise amplitude.
    """

    def __init__(self, lam, b2, b1, b0, noise_scale):
        self.lam = lam
        self.b2 = b2
        self.b1 = b1
        self.b0 = b0
        self.noise_scale = noise_scale


def normalize_cubic(a3, a2, a1, a0, T: float) -> NormalizedCubic:
    """Reduce ``a3 u^3 + a2 u^2 + a1 u + a0`` with ``a3 < 0`` to leading -1.

    Substituting ``u = lam(t) v`` with ``lam = (-a3)**(-1/2)`` turns the
    reaction into ``-v^3 + b2 v^2 + b1 v + b0`` at the price of the exact
    correction ``a3'/(2 a3)`` to the linear coefficient and a time-dependent
    noise rescaling.  Coefficients are returned as exact callables because
    the square roots leave the polynomial class.
    """
    a3, a2, a1, a0 = (as_poly(c) for c in (a3, a2, a1, a0))
    hi = poly_extrema(a3, 0.0, T)[1]
    if hi >= 0:
        raise ValueError(f"leading coefficient must stay negative on [0, {T}], max={hi}")
    da3 = a3.deriv()

    def lam(t):
        return (-a3(t)) ** -0.5

    def b2(t):
        return a2(t) * lam(t)

    def b1(t):
        # the field rescaling contributes -lam'/lam = a3'/(2 a3)
        return a1(t) + da3(t) / (2.0 * a3(t))

    def b0(t):
        return a0(t) / lam(t)

    def noise_scale(t):
        return 1.0 / lam(t)

    return NormalizedCubic(lam, b2, b1, b0, noise_scale)


def recentre(b2, b1, b0, phibar, T: float, degree: int = 6):
    """Recentre the cubic equation around a spatially flat reference path.

    Writing the solution as ``phibar(t) + psi`` turns the reaction
    ``-x^3 + b2 x^2 + b1 x + b0`` into ``-psi^3 + f2 psi^2 + a psi`` with

    ``f2 = b2 - 3 phibar``,  ``a = b1 + 2 b2 phibar - 3 phibar**2``,

    plus the scalar residual ``-phibar^3 + b2 phibar^2 + b1 phibar + b0 -
    phibar'`` which vanishes exactly when the reference solves the flat ODE.

    ``phibar`` may be a scalar, a Polynomial, or a sampled path given as a
    ``(times, values)`` pair, which is least-squares fitted by a polynomial
    of the given degree first.

    Returns
    -------
    (CoefficientSet, Polynomial)
        The recentred coefficients and the residual polynomial.
    """
    b2, b1, b0 = as_poly(b2), as_poly(b1), as_poly(b0)
    if isinstance(phibar, tuple):
        ts, vals = (np.asarray(v, dtype=np.float64) for v in phibar)
        if ts.shape != vals.shape or ts.ndim != 1:
            raise ValueError("sampled path must be a pair of equal-length 1d arrays")
        deg = min(degree, len(ts) - 1)
        m = Polynomial.fit(ts, vals, deg).convert()
    else:
        m = as_poly(phibar)
    f2 = b2 - 3.0 * m
    a = b1 + 2.0 * b2 * m - 3.0 * m**2
    residual = -(m**3) + b2 * m**2 + b1 * m + b0 - m.deriv()
    return CoefficientSet(f2, a, T), residual


def equilibrium_ode(b2, b1, b0, phibar0: float, T: float, M: int):
    """Integrate the spatially flat cubic ODE ``x' = -x^3 + b2 x^2 + b1 x + b0``.

    Classical fourth-order Runge-Kutta with ``M`` uniform steps on ``[0, T]``;
    returns ``(times, values)``.
    """
    M = int(M)
    if M < 1:
        raise ValueError(f"need at least one step, got {M}")
    if M > _MAX_ODE_STEPS:
        raise ValueError(f"step budget exceeded: {M} > {_MAX_ODE_STEPS}")
    b2, b1, b0 = as_poly(b2), as_poly(b1), as_poly(b0)

    def rhs(t, x):
        return -(x**3) + b2(t) * x**2 + b1(t) * x + b0(t)

    dt = T / M
    ts = np.linspace(0.0, T, M + 1)
    vals = np.empty(M + 1)
    vals[0] = x = float(phibar0)
    for j in range(M):
        t = ts[j]
        k1 = rhs(t, x)
        k2 = rhs(t + dt / 2, x + dt * k1 / 2)
        k3 = rhs(t + dt / 2, x + dt * k2 / 2)
        k4 = rhs(t + dt, x + dt * k3)
        x = x + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        vals[j + 1] = x
    return ts, vals
