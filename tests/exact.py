"""Exact rational reference for the per-bin law, shared by the tests.

Each function converts its double inputs to ``Fraction`` exactly and
evaluates the direct closed forms of the herald probability S and the
single-photon fidelity F (not the coefficient rows the package
evaluates), so a test can hold any output to a number of ulps.
"""

from __future__ import annotations

import decimal
import math
import sys
from decimal import Decimal
from fractions import Fraction

from loopsource import DetectorKind


def bin_law(nbar, eta_d, tau, kind: DetectorKind) -> tuple[Fraction, Fraction, Fraction]:
    """``(S, F, S F)`` of one bin at pump level ``nbar`` whose herald is
    seen through ``eta_d`` and whose photon survives ``tau``."""
    n, eta, tau = Fraction(nbar), Fraction(eta_d), Fraction(tau)
    x = eta * n
    if kind is DetectorKind.NUMBER_RESOLVED:
        shrink = n * (1 - eta) * (1 - tau)
        single = x / (1 + x) ** 2
        fidelity = tau * (1 + x) ** 2 * (1 + n + shrink) / (1 + n - shrink) ** 3
    else:
        single = x / (1 + x)
        fidelity = (
            tau * (1 + x) * (1 + 2 * n + n**2 * eta + n**2 * tau * (1 - eta) * (2 - tau))
            / ((1 + n * tau) ** 2 * (1 + n * ((1 - eta) * tau + eta)) ** 2)
        )
    return single, fidelity, single * fidelity


def herald_given_n(eta_d, n: int, kind: DetectorKind) -> Fraction:
    """Herald probability given ``n`` photons on a detector of efficiency
    ``eta_d``: exactly one count, ``n eta (1 - eta)**(n-1)``, on a
    number-resolved detector, any click, ``1 - (1 - eta)**n``, on a bucket."""
    eta = Fraction(eta_d)
    if kind is DetectorKind.NUMBER_RESOLVED:
        return n * eta * (1 - eta) ** (n - 1) if n else Fraction(0)
    return 1 - none_given_n(eta_d, n)


def none_given_n(eta_d, n: int) -> Fraction:
    """Probability that a detector of efficiency ``eta_d`` counts none of
    ``n`` photons, ``(1 - eta)**n``: a resolved zero or a bucket no-click."""
    return (1 - Fraction(eta_d)) ** n


def thermal_pmf(nbar, n: int) -> Fraction:
    """Probability of ``n`` photons from a thermal source of mean ``nbar``,
    ``nbar**n / (1 + nbar)**(n + 1)``."""
    mean = Fraction(nbar)
    return mean**n / (1 + mean) ** (n + 1)


def thermal_quotient(nbar, u) -> Decimal:
    """``log(1 - u) / log(nbar / (1 + nbar))`` to 60 digits, whose floor is
    the thermal photon number at quantile ``u`` (0 for a vacuum source)."""
    if nbar == 0:
        return Decimal(0)
    with decimal.localcontext() as context:
        context.prec = 60
        mean = Decimal(nbar)
        return (1 - Decimal(u)).ln() / (mean / (1 + mean)).ln()


def prep_pmf(nbar, eta_d, n: int, kind: DetectorKind) -> Fraction:
    """Photon-number distribution given a herald, by Bayes' rule:
    ``P(herald | n) p_thermal(n) / S``."""
    return herald_given_n(eta_d, n, kind) * thermal_pmf(nbar, n) / bin_law(nbar, eta_d, 1, kind)[0]


def log1p(y) -> Fraction:
    """``log(1 + y)`` of a rational ``y > -1`` to about 60 significant
    digits, by its series where ``1 + y`` would round at 80 digits."""
    y = Fraction(y)
    with decimal.localcontext() as context:
        context.prec = 80
        d = Decimal(y.numerator) / Decimal(y.denominator)
        value = d - d * d / 2 + d * d * d / 3 if abs(d) < Decimal("1e-20") else (1 + d).ln()
    return Fraction(value)


def herald_logs(nbar, eta_d, kind: DetectorKind) -> tuple:
    """``(log(1 - S), log r, log x)`` of one bin, with ``p = n/(1 + n)``,
    ``x = p (1 - eta_d)`` and r = p (bucket) or x (resolved), as Fractions
    to about 60 digits; a log of 0 is ``-math.inf``."""
    n, eta = Fraction(nbar), Fraction(eta_d)
    log_miss = log1p(-bin_law(nbar, eta_d, 1, kind)[0])
    log_p = -log1p(1 / n) if n else -math.inf
    log_x = log_p + log1p(-eta) if n and eta < 1 else -math.inf
    return log_miss, log_x if kind is DetectorKind.NUMBER_RESOLVED else log_p, log_x


def binomial_pmf(n: int, p, k: int) -> Fraction:
    """Probability of ``k`` successes in ``n`` trials of probability ``p``."""
    p = Fraction(p)
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


def outcome_distribution(singles) -> list[Fraction]:
    """Freshest-herald weights ``S_l prod_{k<l}(1 - S_k)`` of bins whose
    herald probabilities are ``singles`` (exact), then the no-herald mass."""
    masses, survival = [], Fraction(1)
    for single in singles:
        masses.append(survival * single)
        survival *= 1 - single
    return masses + [survival]


def train(nbars, eta_d, taus, kind: DetectorKind) -> tuple[list[Fraction], Fraction, Fraction]:
    """``(per_loop, herald, unconditional)`` of a train whose bin l (l
    loops before output) has pump level ``nbars[l]`` and transmission
    ``taus[l]``: the freshest herald wins with weight
    ``S_l prod_{k<l}(1 - S_k)``."""
    per_loop, herald, unconditional, survival = [], Fraction(0), Fraction(0), Fraction(1)
    for nbar, tau in zip(nbars, taus):
        single, fidelity, _ = bin_law(nbar, eta_d, tau, kind)
        per_loop.append(fidelity)
        herald += survival * single
        unconditional += survival * single * fidelity
        survival *= 1 - single
    return per_loop, herald, unconditional


def is_normal(exact: Fraction) -> bool:
    """Whether ``exact`` rounds to a normal double (or to zero exactly)."""
    return exact == 0 or sys.float_info.min <= abs(exact) <= sys.float_info.max


def within_ulps(value: float, exact: Fraction, ulps: int = 16) -> bool:
    """Whether ``value`` is within ``ulps`` units in the last place of the
    exact value."""
    return abs(Fraction(value) - exact) <= ulps * Fraction(math.ulp(float(exact)))


def within_rel(value: float, exact: Fraction, rel: float) -> bool:
    return abs(Fraction(value) - exact) <= Fraction(rel) * abs(exact)
