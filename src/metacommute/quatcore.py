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

# primes_of_norm walks the norm-p solutions in a cone, O(p^1.5) loop steps,
# and runs canonical_min only on those on its boundary: about 0.035 s cold
# at p = 4999 (Python 3.11, one core). elements_of_norm, O(n^1.5) steps with
# no cone, stops at the same bound: 0.5 s at n = 4999, 14 s at n = 50,021
_PRIMES_MAX_P = 5000

# the largest p of any per-p build outside primes_of_norm, held by the O(p)
# tables modp.sqrt_table and inv_table: near it, a cold conic_points,
# meta_permutation or projective-group count takes under 2 s (Python 3.11, one core)
_P_MAX = 100_000


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


def _norm_solutions(n: int) -> Iterator[tuple[int, int, int, int]]:
    """All doubled-coordinate quadruples of norm n (A^2+B^2+C^2+D^2 = 4n,
    equal parity), in lexicographic order."""
    target = 4 * n
    lim = isqrt(target)
    for A in range(-lim, lim + 1):
        ra = target - A * A
        lb = isqrt(ra)
        # B and C step by 2 from the first value with A's parity
        for B in range(-lb + ((A ^ lb) & 1), lb + 1, 2):
            rb = ra - B * B
            lc = isqrt(rb)
            for C in range(-lc + ((A ^ lc) & 1), lc + 1, 2):
                rc = rb - C * C
                D = isqrt(rc)
                if D * D != rc or (A ^ D) & 1:
                    continue
                if D > 0:
                    yield (A, B, C, -D)
                yield (A, B, C, D)


@lru_cache(maxsize=None)
def elements_of_norm(n: int) -> tuple[HurwitzInt, ...]:
    """All Hurwitz integers of norm n, lexicographically sorted."""
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"norm is a non-negative int, got {n!r}")
    if n > _PRIMES_MAX_P:
        raise ScaleLimit(f"elements of norm n are enumerated only for n <= {_PRIMES_MAX_P}")
    return tuple(HurwitzInt._wrap(t) for t in _norm_solutions(n))


def _cone_candidates(p: int) -> Iterator[tuple[int, int, int, int]]:
    """The doubled-coordinate quadruples of norm p with -A >= |B| + |C| + |D|,
    in lexicographic order.

    The first doubled coordinate of u * t runs, over the 24 units u, through
    +-A, +-B, +-C, +-D and (+-A +-B +-C +-D)/2. So t is the least of its
    left orbit only if -A >= |B| + |C| + |D|; that cone forces A < 0 and
    A^2 >= 4p - A^2, i.e. A^2 >= 2p.
    """
    target = 4 * p
    # 2p is never a square, so the least |A| with A^2 >= 2p is isqrt(2p) + 1
    for A in range(-isqrt(target), -isqrt(2 * p)):
        ra = target - A * A
        lb = min(isqrt(ra), -A)
        # B and C step by 2 from the first value with A's parity
        for B in range(-lb + ((A ^ lb) & 1), lb + 1, 2):
            rb = ra - B * B
            slack_b = -A - abs(B)
            lc = min(isqrt(rb), slack_b)
            for C in range(-lc + ((A ^ lc) & 1), lc + 1, 2):
                rc = rb - C * C
                D = isqrt(rc)
                if D * D != rc or (A ^ D) & 1 or D > slack_b - abs(C):
                    continue
                if D > 0:
                    yield (A, B, C, -D)
                yield (A, B, C, D)


@lru_cache(maxsize=None)
def primes_of_norm(p: int) -> tuple[PrimeClass, ...]:
    """The p+1 left-associate classes of Hurwitz primes of odd prime norm p,
    sorted lexicographically by canonical representative."""
    if p > _PRIMES_MAX_P:
        raise ScaleLimit(f"prime classes are enumerated only for p <= {_PRIMES_MAX_P}")
    _require_odd_prime(p)
    # every canonical rep lies in the cone, and canonical_min keeps exactly
    # one member of each orbit there, ties included. Strictly inside it,
    # -A > |B| + |C| + |D| makes A the strict least of the 24 first
    # coordinates, which only u = 1 attains, so the candidate is canonical
    # and only the boundary needs canonical_min. The cone is walked in
    # lexicographic order, so the classes come out sorted
    return tuple(
        PrimeClass._unchecked(HurwitzInt._wrap(t), p)
        for t in _cone_candidates(p)
        if -t[0] > abs(t[1]) + abs(t[2]) + abs(t[3]) or _kernels.canonical_min(t) == t
    )
