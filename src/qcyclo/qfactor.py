"""Cyclotomic factorization of quantum integers and quantum factorials.

    [n]_q  = q^(1-n) * prod_{d | n, d > 1} Phi_d(q^2)
    [n]_q! = q^(n(1-n)/2) * prod_{d=2}^{n} Phi_d(q^2)^{floor(n/d)}

Both are returned as CycloMonomial values; nothing here ever touches a
field element.  Factorials are memoized since triangle coefficients reuse
the same arguments heavily (cache fills are idempotent, so a racing fill
is harmless).  fold() runs the other way: it rewrites any monomial over
the quantum-integer basis s_n = q^n - q^{-n}, by integer work alone, and
unfold() turns such a row back into its monomial.
"""

import functools

from .monomial import CycloMonomial


def divisors(n):
    """All divisors of n, ascending. Trial division; n stays small here."""
    if n < 1:
        raise ValueError("divisors requires n >= 1, got %d" % n)
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


@functools.cache
def qint_monomial(n):
    if n < 1:
        raise ValueError("quantum integer argument must be positive, got %d" % n)
    return CycloMonomial(1, 1 - n, {d: 1 for d in divisors(n) if d > 1})


@functools.cache
def qfact_monomial(n):
    if n < 0:
        raise ValueError("quantum factorial argument must be >= 0, got %d" % n)
    # floor(n/d) counts the multiples of d among 1..n, each contributing
    # one copy of Phi_d; the q-power telescopes to n(1-n)/2
    return CycloMonomial(1, n * (1 - n) // 2,
                         {d: n // d for d in range(2, n + 1)})


def clear_caches():
    qint_monomial.cache_clear()
    qfact_monomial.cache_clear()


@functools.cache
def _fold_row(d):
    """(totient(d), ((n, mu(d/n)), ...)) over the n | d with d/n square-free."""
    primes, rest, p = [], d, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    row, totient = [(d, 1)], d
    for p in primes:
        row += [(n // p, -mu) for n, mu in row]
        totient = totient // p * (p - 1)
    return totient, tuple(row)


def fold(m):
    """The row (sigma, P', groups) with m = sigma * q^P' * prod_n s_n^F[n]
    over s_n = q^n - q^{-n}, the n with F[n] = f != 0 grouped as
    (f, (n, ...)) in the canonical order of grouped(): groups by their
    smallest n, each group's n ascending.

    Moebius inversion of q^{2n} - 1 = prod_{d | n} Phi_d(q^2) gives
    Phi_d(q^2) = q^totient(d) * prod_{n | d} s_n^mu(d/n), so
    F[n] = sum over multiples d of n of mu(d/n) e_d and
    P' = P + sum_d e_d totient(d).  The F[n] sum to zero, and
    [n] = s_n / s_1 folds to P' = 0."""
    P, F = m.P, {}
    for d, e in m.exps.items():
        totient, row = _fold_row(d)
        P += e * totient
        for n, mu in row:
            F[n] = F.get(n, 0) + mu * e
    return grouped(m.sigma, P, F)


def unfold(row):
    """The monomial m with fold(m) == row, the inverse of fold.

    The F[n] sum to zero, so prod_n s_n^F[n] = prod_n [n]^F[n] with
    [n] = s_n / s_1, and m = sigma q^P' prod_n [n]^F[n]: e_d is the sum
    of F[n] over the multiples n of d (d >= 2), and
    P = P' + sum_n F[n] (1 - n) = P' - sum_d e_d totient(d).  The Phi_d
    exponents are thus a view derived from the row; the monomial checks
    every entry as it is built."""
    sigma, P, groups = row
    exps = {}
    for f, g in groups:
        for n in g:
            qn = qint_monomial(n)
            P += f * qn.P
            for d in qn.exps.indices():
                exps[d] = exps.get(d, 0) + f
    return CycloMonomial(sigma, P, exps)


def grouped(sigma, P, F):
    """The row (sigma, P, groups) of the exponents F = {n: F[n]}: the n
    with F[n] = f != 0 grouped as (f, (n, ...)), the groups ordered by
    their smallest n and each group's n ascending.  Projections multiply
    in this order; fold and the compiler's ratio rows both end here, so
    a row has one form whoever builds it."""
    groups = {}
    for n in sorted(F):
        if F[n]:
            groups.setdefault(F[n], []).append(n)
    return sigma, P, tuple((f, tuple(g)) for f, g in groups.items())
