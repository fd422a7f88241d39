"""Exact arithmetic in the Hurwitz order Z[i, j, (1+i+j+k)/2].

A Hurwitz integer is stored in doubled coordinates: ``HurwitzInt(A, B, C, D)``
is the quaternion (A + Bi + Cj + Dk)/2, with A, B, C, D all congruent mod 2
(all even = integer components, all odd = half-integer components). This keeps
every operation in exact integer arithmetic.

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
    NonPrimeNorm,
    ParityError,
    UnsupportedPrime,
    ZeroInput,
)


class HurwitzInt:
    """An element of the Hurwitz order, in doubled coordinates."""

    __slots__ = ("A", "B", "C", "D")

    def __init__(self, A: int, B: int, C: int, D: int):
        for v in (A, B, C, D):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ParityError(f"doubled coordinates must be integers, got {v!r}")
        if ((A ^ B) | (A ^ C) | (A ^ D)) & 1:
            raise ParityError(
                f"doubled coordinates {(A, B, C, D)} must all be congruent mod 2 "
                "(all-integer or all-half-integer components)"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    def __setattr__(self, name, value):
        raise AttributeError("HurwitzInt is immutable")

    @classmethod
    def _wrap(cls, t: tuple[int, int, int, int]) -> "HurwitzInt":
        # internal fast path for kernel outputs, which are parity-safe
        h = object.__new__(cls)
        object.__setattr__(h, "A", t[0])
        object.__setattr__(h, "B", t[1])
        object.__setattr__(h, "C", t[2])
        object.__setattr__(h, "D", t[3])
        return h

    @classmethod
    def from_integers(cls, a: int, b: int, c: int, d: int) -> "HurwitzInt":
        """The quaternion a + bi + cj + dk with whole-integer components."""
        return cls(2 * a, 2 * b, 2 * c, 2 * d)

    @classmethod
    def scalar(cls, n: int) -> "HurwitzInt":
        return cls(2 * n, 0, 0, 0)

    @property
    def coeffs(self) -> tuple[int, int, int, int]:
        """The doubled coordinates (A, B, C, D)."""
        return (self.A, self.B, self.C, self.D)

    def conjugate(self) -> "HurwitzInt":
        return HurwitzInt._wrap((self.A, -self.B, -self.C, -self.D))

    def norm(self) -> int:
        return _kernels.norm(self.coeffs)

    def trace(self) -> int:
        return self.A

    def is_unit(self) -> bool:
        return self.norm() == 1

    def __bool__(self) -> bool:
        return (self.A | self.B | self.C | self.D) != 0

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return HurwitzInt._wrap(
            (self.A + other.A, self.B + other.B, self.C + other.C, self.D + other.D)
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return HurwitzInt._wrap(
            (self.A - other.A, self.B - other.B, self.C - other.C, self.D - other.D)
        )

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self) -> "HurwitzInt":
        return HurwitzInt._wrap((-self.A, -self.B, -self.C, -self.D))

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
        return f"HurwitzInt({self.A}, {self.B}, {self.C}, {self.D})"

    def __str__(self) -> str:
        if not self:
            return "0"
        if (self.A | self.B | self.C | self.D) & 1 == 0:
            parts = []
            for v, sym in zip((c // 2 for c in self.coeffs), ("", "i", "j", "k")):
                if v == 0:
                    continue
                sign = "-" if v < 0 else ("+" if parts else "")
                mag = abs(v)
                body = sym if (mag == 1 and sym) else f"{mag}{sym}"
                parts.append(f"{sign}{body}")
            return "".join(parts)
        parts = []
        for v, sym in zip(self.coeffs, ("", "i", "j", "k")):
            sign = "-" if v < 0 else ("+" if parts else "")
            mag = abs(v)
            body = sym if (mag == 1 and sym) else f"{mag}{sym}"
            parts.append(f"{sign}{body}")
        return "(" + "".join(parts) + ")/2"


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


def _is_rational_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _require_odd_prime(p: int) -> None:
    """The package's one odd-prime guard: the mod-p machinery needs p odd and
    prime, because 2 must be invertible and the conic must not degenerate."""
    if p == 2 or not _is_rational_prime(p):
        raise UnsupportedPrime(f"expected an odd rational prime, got {p}")


def is_prime(h: HurwitzInt) -> bool:
    """True iff h is a Hurwitz prime, i.e. N(h) is a rational prime."""
    return _is_rational_prime(h.norm())


@dataclass(frozen=True, slots=True)
class PrimeClass:
    """A left-associate class of Hurwitz primes, named by its canonical rep."""

    rep: HurwitzInt
    p: int

    @classmethod
    def of(cls, h: HurwitzInt) -> "PrimeClass":
        n = h.norm()
        if not _is_rational_prime(n):
            raise NonPrimeNorm(f"norm {n} is not a rational prime")
        return cls(rep=canonical_rep(h), p=n)

    def __repr__(self) -> str:
        return f"PrimeClass({self.rep!r}, p={self.p})"


def _norm_solutions(n: int) -> Iterator[tuple[int, int, int, int]]:
    """All doubled-coordinate quadruples of norm n (A^2+B^2+C^2+D^2 = 4n,
    equal parity), in lexicographic order."""
    target = 4 * n
    lim = isqrt(target)
    for A in range(-lim, lim + 1):
        ra = target - A * A
        lb = isqrt(ra)
        for B in range(-lb, lb + 1):
            if (A ^ B) & 1:
                continue
            rb = ra - B * B
            lc = isqrt(rb)
            for C in range(-lc, lc + 1):
                if (A ^ C) & 1:
                    continue
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
    if n < 0:
        raise ValueError("norm is non-negative")
    return tuple(HurwitzInt._wrap(t) for t in _norm_solutions(n))


@lru_cache(maxsize=None)
def primes_of_norm(p: int) -> tuple[PrimeClass, ...]:
    """The p+1 left-associate classes of Hurwitz primes of odd prime norm p,
    sorted lexicographically by canonical representative."""
    _require_odd_prime(p)
    seen: set[tuple[int, int, int, int]] = set()
    reps = []
    for t in _norm_solutions(p):
        if t in seen:
            continue
        orbit = {_kernels.mul(u.coeffs, t) for u in units()}
        seen |= orbit
        reps.append(min(orbit))
    return tuple(PrimeClass(rep=HurwitzInt._wrap(t), p=p) for t in sorted(reps))
