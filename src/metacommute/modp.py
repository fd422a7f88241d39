"""The quotient algebra of the Hurwitz order mod an odd prime p, and its
identification with 2x2 matrices over F_p.

Field scalars are plain ints in [0, p); the containing values carry the
modulus. Reduction of a doubled-coordinate quaternion multiplies by the
inverse of 2 mod p, which exists because p is odd.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from metacommute.errors import ModulusMismatch, ScaleLimit
from metacommute.quatcore import _P_MAX, HurwitzInt, _require_odd_prime


def legendre(n: int, p: int) -> int:
    """Legendre symbol (n/p) via Euler's criterion: 0, +1 or -1."""
    _require_odd_prime(p)
    return _legendre(n, p)


def _legendre(n: int, p: int) -> int:
    """legendre(n, p) for a p already known to be an odd prime."""
    n %= p
    if n == 0:
        return 0
    e = pow(n, (p - 1) // 2, p)
    return 1 if e == 1 else -1


@dataclass(frozen=True, slots=True)
class QuotQuat:
    """A quaternion mod p, coordinates in the basis {1, i, j, k}."""

    p: int
    c1: int
    ci: int
    cj: int
    ck: int

    def __post_init__(self):
        for name in ("c1", "ci", "cj", "ck"):
            object.__setattr__(self, name, getattr(self, name) % self.p)

    def _same(self, other: "QuotQuat") -> None:
        if self.p != other.p:
            raise ModulusMismatch(f"moduli differ: {self.p} vs {other.p}")

    @property
    def coords(self) -> tuple[int, int, int, int]:
        return (self.c1, self.ci, self.cj, self.ck)

    def __bool__(self) -> bool:
        return any(self.coords)

    def __add__(self, other: "QuotQuat") -> "QuotQuat":
        self._same(other)
        return QuotQuat(self.p, self.c1 + other.c1, self.ci + other.ci,
                        self.cj + other.cj, self.ck + other.ck)

    def __mul__(self, other: "QuotQuat") -> "QuotQuat":
        self._same(other)
        a, b, c, d = self.coords
        e, f, g, h = other.coords
        return QuotQuat(
            self.p,
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def scale(self, s: int) -> "QuotQuat":
        return QuotQuat(self.p, s * self.c1, s * self.ci, s * self.cj, s * self.ck)

    def conjugate(self) -> "QuotQuat":
        return QuotQuat(self.p, self.c1, -self.ci, -self.cj, -self.ck)

    def norm(self) -> int:
        return (self.c1 ** 2 + self.ci ** 2 + self.cj ** 2 + self.ck ** 2) % self.p

    def trace(self) -> int:
        return (2 * self.c1) % self.p


def reduce_mod(h: HurwitzInt, p: int) -> QuotQuat:
    """Reduction mod p: a ring homomorphism from the Hurwitz order.

    Doubled coordinates are folded with the inverse of 2 mod p, so
    half-integer quaternions reduce exactly.
    """
    _require_odd_prime(p)
    inv2 = pow(2, -1, p)
    return QuotQuat(p, *(v * inv2 for v in h.coeffs))


@dataclass(frozen=True, slots=True)
class TwoSquareRep:
    """A pair (a, b) with a^2 + b^2 = -1 mod p."""

    p: int
    a: int
    b: int


def _require_table_p(p: int) -> None:
    """The guard of the O(p) tables under every per-p build, before they allocate."""
    if p > _P_MAX:
        raise ScaleLimit(f"tables mod p are built only for p <= {_P_MAX}")
    _require_odd_prime(p)


def sqrt_table(p: int) -> tuple[int, ...]:
    """For each residue t mod p, its least square root r >= 0, or -1 when t
    is not a square mod p. Not cached: its callers conic_points and
    two_square_rep are, and a cache here would keep every table alive."""
    _require_table_p(p)
    roots = [-1] * p
    # r and p - r share a square, so the least roots are 0 .. (p-1)/2, and
    # their squares are distinct
    for r in range((p + 1) // 2):
        roots[r * r % p] = r
    return tuple(roots)


@lru_cache(maxsize=None)
def inv_table(p: int) -> tuple[int, ...]:
    """For each residue x mod p, its inverse mod p (entry 0 is an unused 0)."""
    _require_table_p(p)
    inv = [0, 1] + [0] * (p - 2)
    # p = (p // x) x + p % x gives x^-1 = -(p // x) (p % x)^-1, and
    # 0 < p % x < x, so each entry needs only an earlier one
    for x in range(2, p):
        inv[x] = (p - p // x) * inv[p % x] % p
    return tuple(inv)


@lru_cache(maxsize=None)
def two_square_rep(p: int) -> TwoSquareRep:
    """The canonical representation of -1 as a sum of two squares mod p:
    smallest a >= 0 with -1 - a^2 a square, then smallest such b >= 0."""
    roots = sqrt_table(p)
    for a in range(p):
        b = roots[(-1 - a * a) % p]
        if b >= 0:
            return TwoSquareRep(p, a, b)
    raise AssertionError("unreachable: -1 is always a sum of two squares mod p")


@dataclass(frozen=True, slots=True)
class FpMat2:
    """A 2x2 matrix over F_p, row-major entries [[a1, a2], [a3, a4]]."""

    p: int
    a1: int
    a2: int
    a3: int
    a4: int

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4"):
            object.__setattr__(self, name, getattr(self, name) % self.p)

    def _same(self, other: "FpMat2") -> None:
        if self.p != other.p:
            raise ModulusMismatch(f"moduli differ: {self.p} vs {other.p}")

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4)

    def __add__(self, other: "FpMat2") -> "FpMat2":
        self._same(other)
        return FpMat2(self.p, self.a1 + other.a1, self.a2 + other.a2,
                      self.a3 + other.a3, self.a4 + other.a4)

    def __mul__(self, other: "FpMat2") -> "FpMat2":
        self._same(other)
        return FpMat2(
            self.p,
            self.a1 * other.a1 + self.a2 * other.a3,
            self.a1 * other.a2 + self.a2 * other.a4,
            self.a3 * other.a1 + self.a4 * other.a3,
            self.a3 * other.a2 + self.a4 * other.a4,
        )

    def det(self) -> int:
        return (self.a1 * self.a4 - self.a2 * self.a3) % self.p

    def trace(self) -> int:
        return (self.a1 + self.a4) % self.p


def _phi_entries(
    p: int, a: int, b: int, g1: int, g2: int, g3: int, g4: int
) -> tuple[int, int, int, int]:
    """The row-major entries, in [0, p), of phi(g1 + g2 i + g3 j + g4 k) for
    a^2 + b^2 = -1 mod p: the splitting formula, written only here."""
    return (
        (g1 + g2 * a + g4 * b) % p,
        (g3 + g4 * a - g2 * b) % p,
        (-g3 + g4 * a - g2 * b) % p,
        (g1 - g2 * a - g4 * b) % p,
    )


def phi(gamma: QuotQuat, rep: TwoSquareRep) -> FpMat2:
    """The splitting isomorphism onto 2x2 matrices over F_p.

    With gamma = g1 + g2 i + g3 j + g4 k and a^2 + b^2 = -1 mod p:

        [[g1 + g2 a + g4 b,   g3 + g4 a - g2 b],
         [-g3 + g4 a - g2 b,  g1 - g2 a - g4 b]]

    Preserves products and sums; det transports the norm and the matrix
    trace transports the quaternion trace.
    """
    if gamma.p != rep.p:
        raise ModulusMismatch(f"moduli differ: {gamma.p} vs {rep.p}")
    return FpMat2(gamma.p, *_phi_entries(gamma.p, rep.a, rep.b, *gamma.coords))


def phi_inv(m: FpMat2, rep: TwoSquareRep) -> QuotQuat:
    """The unique quaternion mod p mapping to m under phi, in closed form.

    With m = [[a1, a2], [a3, a4]] = phi(g1 + g2 i + g3 j + g4 k):
    g1 = (a1 + a4)/2 and g3 = (a2 - a3)/2, while u = (a1 - a4)/2 = g2 a + g4 b
    and v = (a2 + a3)/2 = g4 a - g2 b. Since a^2 + b^2 = -1, that solves to
    g2 = -(a u - b v) and g4 = -(b u + a v).
    """
    if m.p != rep.p:
        raise ModulusMismatch(f"moduli differ: {m.p} vs {rep.p}")
    p = m.p
    h = (p + 1) // 2  # the inverse of 2 mod p
    a1, a2, a3, a4 = m.entries
    a, b = rep.a, rep.b
    u = (a1 - a4) * h % p
    v = (a2 + a3) * h % p
    return QuotQuat(p, (a1 + a4) * h, -(a * u - b * v), (a2 - a3) * h, -(b * u + a * v))
