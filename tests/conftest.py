"""Shared fixtures and independent oracles.

Oracles here are written against textbook formulas, not against the
package internals: quantum integers as sine ratios, factorials as
explicit products, the classical 6j as an exact-rational Racah sum.
Tests compare package output to these, never to itself.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def trig_qint(n, theta):
    """[n]_q = sin(n theta) / sin(theta) at q = e^{i theta} (float)."""
    return math.sin(n * theta) / math.sin(theta)


def trig_qint_mp(n, theta):
    from mpmath import mp
    return mp.sin(n * theta) / mp.sin(theta)


def trig_qfact_mp(n, theta):
    from mpmath import mp
    out = mp.mpf(1)
    for m in range(2, n + 1):
        out *= trig_qint_mp(m, theta)
    return out


def qracah_sixj_mp(tjs, theta):
    """Quantum 6j symbol at q = e^{i theta} by the q-Racah single sum over
    trig_qint_mp quantum integers, in plain mpmath at the ambient
    precision.  The prefactor is the principal square root of the whole
    radicand, the product of the four triangle coefficients; it is
    imaginary where that product is negative."""
    from mpmath import mp
    t = tjs
    triads = ((t[0], t[1], t[2]), (t[0], t[4], t[5]),
              (t[1], t[3], t[5]), (t[2], t[3], t[4]))
    radicand = mp.mpf(1)
    for ta, tb, tc in triads:
        s = (ta + tb + tc) // 2
        radicand *= (trig_qfact_mp(s - tc, theta) * trig_qfact_mp(s - tb, theta)
                     * trig_qfact_mp(s - ta, theta) / trig_qfact_mp(s + 1, theta))
    a = [sum(tr) // 2 for tr in triads]
    b = [(t[0] + t[1] + t[3] + t[4]) // 2,
         (t[0] + t[2] + t[3] + t[5]) // 2,
         (t[1] + t[2] + t[4] + t[5]) // 2]
    series = mp.mpf(0)
    for z in range(max(a), min(b) + 1):
        den = mp.mpf(1)
        for ai in a:
            den *= trig_qfact_mp(z - ai, theta)
        for by in b:
            den *= trig_qfact_mp(by - z, theta)
        series += (-1) ** z * trig_qfact_mp(z + 1, theta) / den
    return mp.sqrt(radicand) * series


def frac_fact(n):
    out = Fraction(1)
    for m in range(2, n + 1):
        out *= m
    return out


def racah_sixj_squared(tjs):
    """Exact rational ((6j)^2, sign) of the classical 6j symbol, by the
    Racah single-sum formula over ordinary factorials.

    Returns (square: Fraction, sign: -1/0/+1).
    """
    t = tjs

    def adm(ta, tb, tc):
        return ((ta + tb + tc) % 2 == 0 and abs(ta - tb) <= tc <= ta + tb)

    triads = ((t[0], t[1], t[2]), (t[0], t[4], t[5]),
              (t[1], t[3], t[5]), (t[2], t[3], t[4]))
    if not all(adm(*tr) for tr in triads):
        raise ValueError("inadmissible labels")
    delta_sq = Fraction(1)
    for ta, tb, tc in triads:
        s = (ta + tb + tc) // 2
        delta_sq *= (frac_fact(s - tc) * frac_fact(s - tb) * frac_fact(s - ta)
                     / frac_fact(s + 1))
    a = [sum(tr) // 2 for tr in triads]
    b = [(t[0] + t[1] + t[3] + t[4]) // 2,
         (t[0] + t[2] + t[3] + t[5]) // 2,
         (t[1] + t[2] + t[4] + t[5]) // 2]
    series = Fraction(0)
    for z in range(max(a), min(b) + 1):
        den = Fraction(1)
        for ai in a:
            den *= frac_fact(z - ai)
        for by in b:
            den *= frac_fact(by - z)
        series += Fraction((-1) ** z) * frac_fact(z + 1) / den
    sign = 0 if series == 0 else (1 if series > 0 else -1)
    return delta_sq * series * series, sign


def all_admissible_sixj(max_tj, level=None):
    import itertools
    from qcyclo import triangle_admissible
    out = []
    for t in itertools.product(range(max_tj + 1), repeat=6):
        if (triangle_admissible(t[0], t[1], t[2], level)
                and triangle_admissible(t[0], t[4], t[5], level)
                and triangle_admissible(t[1], t[3], t[5], level)
                and triangle_admissible(t[2], t[3], t[4], level)):
            out.append(t)
    return out


@pytest.fixture(scope="session")
def small_admissible():
    return all_admissible_sixj(6)


def count_compiles(monkeypatch, module):
    """Wrap module.compile_sixj for one test; the returned list collects
    the labels of every compile made through it."""
    compiled = []
    real = module.compile_sixj

    def counting(labels):
        compiled.append(labels)
        return real(labels)

    monkeypatch.setattr(module, "compile_sixj", counting)
    return compiled
