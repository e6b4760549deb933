"""Sparse integer exponent vectors over the basis {q, Phi_d(q^2)} and the
free abelian monomial algebra on them.

A CycloMonomial (sigma, P, e) stands for the formal expression

    sigma * q^P * prod_d Phi_d(q^2)^{e_d},    sigma in {-1,+1},

with d ranging over the cyclotomic indices d >= 2 stored in the sparse
exponent vector e.  Multiplication and division are entrywise integer
adds/subtracts, so all cancellation happens here, at the integer level,
before any field value is ever assigned.

Exponents and q-powers are held to a signed 64-bit envelope with explicit
checks: Python ints never wrap, but anything outside that envelope means
the calling series is far beyond desk scale and almost certainly a bug.
"""

import re
from dataclasses import dataclass

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def _json_int(v):
    """Whether a parsed JSON value is an integer: true and false are
    not, although Python's bool subclasses int."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check64(v, what):
    if v < _I64_MIN or v > _I64_MAX:
        raise OverflowError("%s exceeds the signed 64-bit envelope: %d" % (what, v))
    return v


class ExponentVector:
    """Sparse map d -> e_d with d >= 2; zero entries are never stored."""

    __slots__ = ("_e",)

    def __init__(self, entries=None):
        e = {}
        if entries:
            for d, v in dict(entries).items():
                d = int(d)
                v = int(v)
                if d < 2:
                    raise ValueError("cyclotomic index must be >= 2, got %d" % d)
                if v == 0:
                    continue
                _check64(v, "exponent e_%d" % d)
                e[d] = v
        self._e = e

    def get(self, d, default=0):
        return self._e.get(d, default)

    def items(self):
        """Entries in ascending d (deterministic serialization order)."""
        return sorted(self._e.items())

    def indices(self):
        return sorted(self._e)

    def max_index(self, default=1):
        return max(self._e, default=default)

    def merge(self, other, scale):
        """Return self + scale*other as a new vector (scale = +1, -1, or any int)."""
        e = dict(self._e)
        for d, v in other._e.items():
            w = e.get(d, 0) + _check64(scale * v, "exponent e_%d" % d)
            _check64(w, "exponent e_%d" % d)
            if w == 0:
                e.pop(d, None)
            else:
                e[d] = w
        out = ExponentVector.__new__(ExponentVector)
        out._e = e
        return out

    def __eq__(self, other):
        return isinstance(other, ExponentVector) and self._e == other._e

    def __hash__(self):
        return hash(tuple(self.items()))

    def __bool__(self):
        return bool(self._e)

    def __repr__(self):
        return "ExponentVector(%r)" % dict(self.items())


class CycloMonomial:
    __slots__ = ("sigma", "P", "exps")

    def __init__(self, sigma=1, P=0, exps=None):
        if sigma not in (1, -1):
            raise ValueError("sigma must be +1 or -1, got %r" % (sigma,))
        self.sigma = sigma
        self.P = _check64(int(P), "q-power P")
        if exps is None:
            exps = ExponentVector()
        elif not isinstance(exps, ExponentVector):
            exps = ExponentVector(exps)
        self.exps = exps

    def max_index(self, default=1):
        return self.exps.max_index(default)

    def __eq__(self, other):
        return (isinstance(other, CycloMonomial) and self.sigma == other.sigma
                and self.P == other.P and self.exps == other.exps)

    def __hash__(self):
        return hash((self.sigma, self.P, self.exps))

    def __repr__(self):
        return "CycloMonomial(sigma=%+d, P=%d, e=%r)" % (
            self.sigma, self.P, dict(self.exps.items()))

    def to_json_dict(self):
        return {"sigma": self.sigma, "P": self.P,
                "e": {str(d): v for d, v in self.exps.items()}}

    @staticmethod
    def from_json_dict(obj):
        """Inverse of to_json_dict; a malformed object raises ValueError
        naming the field."""
        if not isinstance(obj, dict):
            raise ValueError("malformed monomial object: not a JSON object")
        try:
            sigma = obj["sigma"]
            P = obj["P"]
            raw = obj["e"]
        except KeyError as exc:
            raise ValueError("malformed monomial object: missing %s" % exc) from None
        if not (_json_int(sigma) and sigma in (1, -1)):
            raise ValueError("malformed monomial object: sigma must be +1 or -1")
        if not _json_int(P):
            raise ValueError("malformed monomial object: P must be an integer")
        if not (isinstance(raw, dict)
                and all(_json_int(v) for v in raw.values())):
            raise ValueError("malformed monomial object: e must be an object "
                             "from index to integer exponent")
        for d in raw:
            # canonical decimal only, str(int(d)) == d: int() would also
            # take " 3", "+3" and "03", so two keys could name one index
            if not re.fullmatch("0|-?[1-9][0-9]*", d):
                raise ValueError("malformed monomial object: e has the key "
                                 "%r, not a decimal index" % d)
        return CycloMonomial(sigma, P, {int(d): v for d, v in raw.items()})


IDENTITY = CycloMonomial()


def mul(a, b):
    return CycloMonomial(a.sigma * b.sigma,
                         _check64(a.P + b.P, "q-power P"),
                         a.exps.merge(b.exps, +1))


def div(a, b):
    return CycloMonomial(a.sigma * b.sigma,
                         _check64(a.P - b.P, "q-power P"),
                         a.exps.merge(b.exps, -1))


@dataclass(frozen=True)
class SquareSplit:
    root: CycloMonomial
    rad: CycloMonomial


def sqrt_split(g):
    """Split g = root^2 * rad with rad square-free.

    Every exponent (and the q-power) decomposes as e = 2*floor(e/2) + (e mod 2)
    with remainder in {0,1}; Python's floor division gives exactly that for
    negatives too (-3 = 2*(-2) + 1).  The sign of g rides on rad, root is
    always positive, so no square root of a sign is ever needed.
    """
    root_e, rad_e = {}, {}
    for d, v in g.exps.items():
        half, rem = v // 2, v % 2
        if half:
            root_e[d] = half
        if rem:
            rad_e[d] = rem
    p_half, p_rem = g.P // 2, g.P % 2
    return SquareSplit(root=CycloMonomial(1, p_half, root_e),
                       rad=CycloMonomial(g.sigma, p_rem, rad_e))
