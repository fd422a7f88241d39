"""Exact arithmetic in the Hurwitz order Z[i, j, (1+i+j+k)/2].

A Hurwitz integer is stored in doubled coordinates: ``HurwitzInt(A, B, C, D)``
is the quaternion (A + Bi + Cj + Dk)/2, with A, B, C, D all congruent mod 2
(all even = integer components, all odd = half-integer components). This keeps
every operation in exact integer arithmetic. A ``HurwitzInt`` holds only the
tuple ``coeffs = (A, B, C, D)``, the format every kernel takes and returns.

Primes of a given norm p are classified up to left multiplication by the 24
units; ``PrimeClass`` names one class by its canonical (lexicographically
least) representative.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Iterator

from metacommute import _kernels
from metacommute.errors import (
    DivideByZero,
    DomainError,
    InternalInvariantViolation,
    NonPrimeNorm,
    ParityError,
    ScaleLimit,
    UnsupportedPrime,
    ZeroInput,
)

# primes_of_norm and elements_of_norm share one walk of the canonical-rep
# cone, about 2n loop steps: at n = 4999 it indexes 7,892 (C, D) pairs and
# looks up 2,899 (A, B). Cold at n = 4999 (Python 3.11, one core)
# primes_of_norm takes about 0.008 s, and elements_of_norm, which multiplies
# each rep by the 24 units and sorts, 0.22 s; at n = 50,021 it would keep
# 1.2 million elements, about 290 MB, in its cache
_PRIMES_MAX_P = 5000

# the largest p of any per-p build outside primes_of_norm, held by the O(p)
# tables modp.sqrt_table and inv_table: near it, a cold conic_points,
# meta_permutation or projective-group count takes under 2 s (Python 3.11, one core)
_P_MAX = 100_000

# the most tables each per-p or per-n cache keeps (primes_of_norm,
# elements_of_norm and the O(p) tables of modp and geometry): the sweeps
# visit q in runs and list each norm's elements once, so a sweep over at
# most 16 odd p rebuilds no table, and a loop over many p or n keeps only
# the latest
_CACHED_TABLES = 16


class HurwitzInt:
    """An element of the Hurwitz order, held as the doubled-coordinate tuple
    coeffs = (A, B, C, D) that every kernel takes and returns."""

    __slots__ = ("coeffs",)

    def __init__(self, A: int, B: int, C: int, D: int):
        t = (A, B, C, D)
        for v in t:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ParityError(f"doubled coordinates must be integers, got {v!r}")
        if ((A ^ B) | (A ^ C) | (A ^ D)) & 1:
            raise ParityError(
                f"doubled coordinates {t} must all be congruent mod 2 "
                "(all-integer or all-half-integer components)"
            )
        _set_coeffs(self, t)

    def __setattr__(self, *_):
        raise AttributeError("HurwitzInt is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # pickle and copy rebuild through __init__, as __setattr__ bars slot state
        return (HurwitzInt, self.coeffs)

    @classmethod
    def _wrap(cls, t: tuple[int, int, int, int]) -> "HurwitzInt":
        # internal fast path for kernel outputs, which are parity-safe
        h = object.__new__(cls)
        _set_coeffs(h, t)
        return h

    @classmethod
    def scalar(cls, n: int) -> "HurwitzInt":
        return cls(2 * n, 0, 0, 0)

    def conjugate(self) -> "HurwitzInt":
        A, B, C, D = self.coeffs
        return HurwitzInt._wrap((A, -B, -C, -D))

    def norm(self) -> int:
        return _kernels.norm(self.coeffs)

    def trace(self) -> int:
        return self.coeffs[0]

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return HurwitzInt._wrap(tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return HurwitzInt._wrap(tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self) -> "HurwitzInt":
        return HurwitzInt._wrap(tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return HurwitzInt._wrap(_kernels.mul(self.coeffs, other.coeffs))

    def __rmul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return HurwitzInt._wrap(_kernels.mul(other.coeffs, self.coeffs))

    def __eq__(self, other) -> bool:
        return isinstance(other, HurwitzInt) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"HurwitzInt{self.coeffs}"

    def __str__(self) -> str:
        if not self:
            return "0"
        half = self.coeffs[0] & 1  # all four coordinates share this parity
        parts = []
        for v, sym in zip(self.coeffs, ("", "i", "j", "k")):
            v = v if half else v // 2
            if v == 0:  # never a half-integer coordinate, which is odd
                continue
            sign = "-" if v < 0 else ("+" if parts else "")
            mag = abs(v)
            body = sym if (mag == 1 and sym) else f"{mag}{sym}"
            parts.append(f"{sign}{body}")
        text = "".join(parts)
        return f"({text})/2" if half else text


def _slot_setters(cls) -> tuple:
    """The __set__ of each of cls's slot descriptors, in slot order. They
    bypass an immutable __setattr__, a frozen dataclass's too, at half the
    cost of object.__setattr__ by name."""
    return tuple(cls.__dict__[s].__set__ for s in cls.__slots__)


(_set_coeffs,) = _slot_setters(HurwitzInt)


def _coerce(value):
    if isinstance(value, HurwitzInt):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return HurwitzInt.scalar(value)
    return NotImplemented


ONE = HurwitzInt(2, 0, 0, 0)
I = HurwitzInt(0, 2, 0, 0)
J = HurwitzInt(0, 0, 2, 0)
K = HurwitzInt(0, 0, 0, 2)
OMEGA = HurwitzInt(1, 1, 1, 1)  # (1+i+j+k)/2


def make(A: int, B: int, C: int, D: int) -> HurwitzInt:
    """Construct (A + Bi + Cj + Dk)/2; raises ParityError on mixed parity."""
    return HurwitzInt(A, B, C, D)


@lru_cache(maxsize=1)
def units() -> tuple[HurwitzInt, ...]:
    """The 24 norm-1 elements, lexicographically sorted by doubled coordinates."""
    return tuple(HurwitzInt._wrap(t) for t in _kernels._UNITS)


def right_divmod(a: HurwitzInt, b: HurwitzInt) -> tuple[HurwitzInt, HurwitzInt]:
    """Division with remainder: a = q*b + r with N(r) < N(b).

    The quotient is the nearest Hurwitz point to a * conj(b) / N(b); exact
    ties go to the lexicographically least doubled coordinates, so the
    result is deterministic.
    """
    if not b:
        raise DivideByZero("right_divmod by the zero quaternion")
    q, r = _kernels.right_divmod(a.coeffs, b.coeffs)
    return HurwitzInt._wrap(q), HurwitzInt._wrap(r)


def gcrd(a: HurwitzInt, b: HurwitzInt) -> HurwitzInt:
    """Greatest common right divisor, canonicalized via canonical_rep.

    Both arguments factor as x * gcrd(a, b); unique up to a left unit, and
    the canonical representative pins the choice.
    """
    if not a and not b:
        raise ZeroInput("gcrd(0, 0) is undefined")
    d = _kernels.gcrd(a.coeffs, b.coeffs)
    return HurwitzInt._wrap(_kernels.canonical_min(d))


def canonical_rep(h: HurwitzInt) -> HurwitzInt:
    """The lexicographically least of the 24 left-associates u*h."""
    if not h:
        raise ZeroInput("the zero quaternion has no canonical associate")
    return HurwitzInt._wrap(_kernels.canonical_min(h.coeffs))


# below this bound primality is decided by trial division, above it by
# Miller-Rabin; every p and q of the supported sweeps lies below it
_TRIAL_DIVISION_BOUND = 10**6
# the first 13 primes: Miller-Rabin to these bases is exact for
# n < 3.3 * 10^24 (Sorenson & Webster 2015)
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_rational_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    if n >= _TRIAL_DIVISION_BOUND:
        return _miller_rabin(n)
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _miller_rabin(n: int) -> bool:
    """Strong-probable-prime test of an odd n > 41 to _MILLER_RABIN_BASES."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_odd_prime(p: int) -> None:
    """The package's one odd-prime guard: the mod-p machinery needs p odd and
    prime, because 2 must be invertible and the conic must not degenerate."""
    if not isinstance(p, int) or p == 2 or not _is_rational_prime(p):
        raise UnsupportedPrime(f"expected an odd rational prime, got {p!r}")


def _norm_p_factor(h: tuple[int, int, int, int], p: int) -> tuple[int, int, int, int]:
    """The canonical rep of gcrd(h, p), in doubled coordinates, checked to
    have norm p: the prime of norm p that right-divides h."""
    d, n = _kernels.gcrd_p(h, p)
    if n != p:
        raise InternalInvariantViolation(
            f"gcrd({HurwitzInt._wrap(h)!r}, {p}) has norm {n}, expected {p}"
        )
    return _kernels.canonical_min(d)


def is_prime(h: HurwitzInt) -> bool:
    """True iff h is a Hurwitz prime, i.e. N(h) is a rational prime."""
    return _is_rational_prime(h.norm())


@dataclass(frozen=True, slots=True, init=False)
class PrimeClass:
    """A left-associate class of Hurwitz primes, named by its canonical rep."""

    rep: HurwitzInt
    p: int

    def __init__(self, rep: HurwitzInt, p: int):
        if not isinstance(p, int) or not _is_rational_prime(p):
            raise NonPrimeNorm(f"norm {p} is not a rational prime")
        if not isinstance(rep, HurwitzInt) or rep.norm() != p or canonical_rep(rep) != rep:
            raise DomainError(f"{rep!r} is not the canonical rep of a prime of norm {p}")
        # the dataclass __init__ would set the frozen fields through
        # object.__setattr__; the slot setters do the same for less
        _set_class_rep(self, rep)
        _set_class_p(self, p)

    @classmethod
    def _unchecked(cls, rep: HurwitzInt, p: int) -> "PrimeClass":
        """PrimeClass(rep, p) without its check, for a class that holds by construction."""
        c = object.__new__(cls)
        _set_class_rep(c, rep)
        _set_class_p(c, p)
        return c

    @classmethod
    def of(cls, h: HurwitzInt) -> "PrimeClass":
        n = h.norm()
        if not _is_rational_prime(n):
            raise NonPrimeNorm(f"norm {n} is not a rational prime")
        return cls._unchecked(canonical_rep(h), n)

    @classmethod
    def dividing(cls, h: HurwitzInt, p: int) -> "PrimeClass":
        """The class of gcrd(h, p), which must have norm p: the prime of norm
        p that right-divides h."""
        return cls._unchecked(HurwitzInt._wrap(_norm_p_factor(h.coeffs, p)), p)

    def __repr__(self) -> str:
        return f"PrimeClass({self.rep!r}, p={self.p})"


_set_class_rep, _set_class_p = _slot_setters(PrimeClass)


def _canonical_reps(n: int) -> Iterator[tuple[int, int, int, int]]:
    """The canonical rep of each left-unit orbit of norm n >= 1, in
    doubled coordinates and lexicographic order.

    The first doubled coordinate of u * t runs, over the 24 units u, through
    +-A, +-B, +-C, +-D and (+-A +-B +-C +-D)/2. So t is the least of its
    left orbit only if -A >= |B| + |C| + |D|; that cone forces A < 0 and
    A^2 >= 4n - A^2, i.e. A^2 >= 2n. Strictly inside the cone, A is the
    strict least of the 24 first coordinates, which only u = 1 attains, so
    the point is canonical; only a point on the boundary needs canonical_min,
    which keeps exactly one member of each orbit there, ties included.

    The walk meets in the middle: it indexes the (C, D >= 0) pairs of each
    parity by C^2 + D^2 once, and for each (A, B) reads the pairs with
    C^2 + D^2 = 4n - A^2 - B^2 from the index of A's parity. Each bucket
    lists its pairs in ascending C, so the reps come out in lexicographic
    order.
    """
    target = 4 * n
    # the least |A| with A^2 >= 2n; 2n is a square when n = 2k^2
    a_min = isqrt(2 * n - 1) + 1
    # C^2 + D^2 = 4n - A^2 - B^2 is at most 4n - a_min^2
    top = target - a_min * a_min
    # pairs[e][s]: the (C, D) with C = D = e mod 2, D >= 0 and C^2 + D^2 = s
    pairs = ({}, {})
    lc = isqrt(top)
    for C in range(-lc, lc + 1):
        index = pairs[C & 1]
        for D in range(C & 1, isqrt(top - C * C) + 1, 2):
            index.setdefault(C * C + D * D, []).append((C, D))
    for A in range(-isqrt(target), -a_min + 1):
        ra = target - A * A
        lb = min(isqrt(ra), -A)
        index = pairs[A & 1]
        # B steps by 2 from the first value with A's parity
        for B in range(-lb + ((A ^ lb) & 1), lb + 1, 2):
            slack_b = -A - abs(B)
            for C, D in index.get(ra - B * B, ()):
                slack = slack_b - abs(C)
                if D > slack:
                    continue
                for t in ((A, B, C, -D), (A, B, C, D)) if D else ((A, B, C, 0),):
                    if D < slack or _kernels.canonical_min(t) == t:
                        yield t


@lru_cache(maxsize=_CACHED_TABLES)
def elements_of_norm(n: int) -> tuple[HurwitzInt, ...]:
    """All Hurwitz integers of norm n, lexicographically sorted."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"norm is a non-negative int, got {n!r}")
    if n > _PRIMES_MAX_P:
        raise ScaleLimit(f"elements of norm n are enumerated only for n <= {_PRIMES_MAX_P}")
    if n == 0:
        return (HurwitzInt._wrap((0, 0, 0, 0)),)
    # the units act freely on the nonzero elements: each is u * t for one
    # unit u and one canonical rep t
    mul = _kernels.mul
    return tuple(
        HurwitzInt._wrap(h)
        for h in sorted(mul(u, t) for t in _canonical_reps(n) for u in _kernels._UNITS)
    )


@lru_cache(maxsize=_CACHED_TABLES)
def primes_of_norm(p: int) -> tuple[PrimeClass, ...]:
    """The p+1 left-associate classes of Hurwitz primes of odd prime norm p,
    sorted lexicographically by canonical representative."""
    # the size bound runs before the primality test, which is slow far above
    # it; a p that is not an int falls through to the guard
    if isinstance(p, int) and p > _PRIMES_MAX_P:
        raise ScaleLimit(f"prime classes are enumerated only for p <= {_PRIMES_MAX_P}")
    _require_odd_prime(p)
    return tuple(PrimeClass._unchecked(HurwitzInt._wrap(t), p) for t in _canonical_reps(p))
