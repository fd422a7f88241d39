"""The metacommutation map on prime classes of norm p, computed three
independent ways, plus the permutation analytics.

Routes:
  * meta_divide  - factor-extraction: the class of gcrd(P*Q, p).
  * meta_conj    - conjugate the trace-zero conic representative by Q mod p.
  * meta_permutation - transport to P^1(F_p) and apply the right standard
    action of the matrix image of Q.

All three agree; the verification sweeps check that exhaustively.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from math import gcd, lcm

from metacommute.errors import (
    CoprimalityError,
    DomainError,
    InternalInvariantViolation,
    ScaleLimit,
)
from metacommute.geometry import (
    ConicPoint,
    _act,
    _conjugate,
    conic_points,
    conic_to_prime,
    proj_table,
    trace_zero_rep,
)
from metacommute.modp import _legendre, _phi_entries, two_square_rep
from metacommute.quatcore import (
    HurwitzInt,
    PrimeClass,
    _require_odd_prime,
)

_CENSUS_MAX_P = 13


def _check_coprime(p: int, Q: HurwitzInt) -> int:
    q = Q.norm()
    if gcd(q, p) != 1:
        raise CoprimalityError(f"N(Q) = {q} is not coprime to p = {p}")
    return q


@dataclass(frozen=True, slots=True)
class MetaQuery:
    """One metacommutation instance: the pair (p, Q) with N(Q) coprime to p."""

    p: int
    Q: HurwitzInt
    q: int
    central: bool

    @classmethod
    def create(cls, p: int, Q: HurwitzInt) -> "MetaQuery":
        _require_odd_prime(p)
        q = _check_coprime(p, Q)
        # central iff the doubled i, j, k coordinates of Q vanish mod p (2 is a unit)
        _, B, C, D = Q.coeffs
        central = B % p == 0 and C % p == 0 and D % p == 0
        return cls(p=p, Q=Q, q=q, central=central)


@dataclass(frozen=True, slots=True)
class Permutation:
    """A permutation of the p+1 conic points, in their lexicographic order:
    point i goes to point images[i]."""

    p: int
    images: tuple[int, ...]

    def __post_init__(self):
        # p+1 images that cover range(p+1) take each value exactly once
        images = self.images
        if not (len(images) == self.p + 1 and set(images).issuperset(range(self.p + 1))):
            raise InternalInvariantViolation("images are not a bijection")

    @property
    def ground(self) -> tuple[ConicPoint, ...]:
        """The sorted conic that images indexes."""
        return conic_points(self.p)


@dataclass(frozen=True, slots=True)
class PermReport:
    """Cycle-level summary: sign, fixed points, non-trivial cycle lengths."""

    sign: int
    fixed_count: int
    cycle_lengths: tuple[int, ...]
    uniform_length: bool


def meta_divide(P: PrimeClass, Q: HurwitzInt) -> PrimeClass:
    """The partner class via factor extraction: class of gcrd(P*Q, p)."""
    p = P.p
    _require_odd_prime(p)
    _check_coprime(p, Q)
    return PrimeClass.dividing(P.rep * Q, p)


def meta_conj(P: PrimeClass, Q: HurwitzInt) -> PrimeClass:
    """The partner class via conjugation of the trace-zero representative:
    the conic point of conj(Q) * t * Q mod p.

    conj(Q) = N(Q) Q^-1 and N(Q) is a unit mod p, so this is a nonzero
    multiple of Q^-1 * t * Q: the same projective point.
    """
    p = P.p
    # trace_zero_rep holds the odd-prime guard, so it runs first
    t = trace_zero_rep(P)
    _check_coprime(p, Q)
    x, y, z = _conjugate(p, Q.coeffs, t.x, t.y, t.z)
    if not (x or y or z):
        raise InternalInvariantViolation("conjugation by Q sent the conic point to 0")
    return conic_to_prime(ConicPoint.normalized(p, x, y, z))


def meta_permutation(query: MetaQuery) -> Permutation:
    """The full permutation of the p+1 conic points induced by Q, computed
    through the right standard action on P^1(F_p).

    This is the Moebius map of the matrix image A of Q on the int keys of
    proj_table(p); it equals pgl2_act on the conic_to_proj image of every
    point.
    """
    p = query.p
    keys, pos = proj_table(p)
    rep = two_square_rep(p)
    # the doubled coordinates give the matrix of 2Q, which acts as Q does
    matrix = _phi_entries(p, rep.a, rep.b, *query.Q.coeffs)
    return Permutation(p=p, images=_act(p, matrix, keys, pos))


def cycle_decomposition(images: tuple[int, ...]) -> list[list[int]]:
    """Cycles of a permutation given as an image array, each cycle starting
    at its smallest element, cycles sorted by that element."""
    seen: set[int] = set()
    cycles = []
    try:
        for start in range(len(images)):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            j = images[start]
            while j != start:
                # a second visit to j, not closing the cycle at start, means j
                # has two preimages
                if j in seen:
                    raise InternalInvariantViolation(
                        f"images {images} are not a permutation"
                    )
                cycle.append(j)
                seen.add(j)
                j = images[j]
            cycles.append(cycle)
    except IndexError:
        raise InternalInvariantViolation(
            f"images {images} are not a permutation: an image is out of range"
        ) from None
    return cycles


def analyze(perm: Permutation) -> PermReport:
    """Sign, fixed-point count and non-fixed cycle lengths of a permutation.

    Walks cycle lengths only: Permutation has checked that images is a
    bijection, so every walk closes at its start. The loop never meets a
    start again, so a walk marks only the rest of its cycle."""
    images = perm.images
    seen = bytearray(len(images))
    fixed = 0
    lengths = []
    for start, j in enumerate(images):
        if seen[start]:
            continue
        if j == start:
            fixed += 1
            continue
        length = 1
        while j != start:
            seen[j] = 1
            j = images[j]
            length += 1
        lengths.append(length)
    lengths.sort()
    # a k-cycle is k - 1 transpositions
    sign = -1 if (len(images) - fixed - len(lengths)) % 2 else 1
    return PermReport(
        sign=sign,
        fixed_count=fixed,
        cycle_lengths=tuple(lengths),
        uniform_length=len(set(lengths)) <= 1,
    )


def predict(query: MetaQuery) -> tuple[int, int]:
    """Predicted (sign, fixed point count) for any query, prime N(Q) or not:
    sign is the quadratic character of q mod p; the fixed-point count is
    1 + legendre(tr(Q)^2 - 4q, p), except that a central reduction fixes
    all p+1 points. Both hold because the permutation is the action of the
    image of Q in the projective group, which needs only q coprime to p.

    MetaQuery.create has checked that p is an odd prime, so no symbol here
    checks it again."""
    sign = _legendre(query.q, query.p)
    if query.central:
        return sign, query.p + 1
    disc = query.Q.trace() ** 2 - 4 * query.q
    return sign, 1 + _legendre(disc, query.p)


def _totient(k: int) -> int:
    result = k
    n = k
    f = 2
    while f * f <= n:
        if n % f == 0:
            while n % f == 0:
                n //= f
            result -= result // f
        f += 1
    if n > 1:
        result -= result // n
    return result


def order_count(k: int, p: int) -> int:
    """Number of elements of order k > 1 in the projective group on p+1
    points: phi(k) p(p-1)/2 for k | p+1, plus phi(k) p(p+1)/2 for k | p-1
    (both branches apply at k = 2), and p^2 - 1 for k = p."""
    if not isinstance(k, int) or k <= 1:
        raise DomainError(f"order_count is defined for k > 1, an int, got {k!r}")
    _require_odd_prime(p)
    total = 0
    if (p + 1) % k == 0:
        total += _totient(k) * p * (p - 1) // 2
    if (p - 1) % k == 0:
        total += _totient(k) * p * (p + 1) // 2
    if k == p:
        total += p * p - 1
    return total


def pgl2_order_census(p: int) -> dict[int, int]:
    """Element orders of the full projective group, by brute enumeration of
    all p(p-1)(p+1) matrices mod scalars acting on P^1(F_p)."""
    _require_odd_prime(p)
    if p > _CENSUS_MAX_P:
        raise ScaleLimit(f"census enumerates the full group only for p <= {_CENSUS_MAX_P}")
    points = range(p + 1)  # every key of P^1(F_p) is its own position
    rs = range(p)
    tally: dict[int, int] = {}
    # canonical representatives mod scalars: first nonzero entry equal to 1
    for matrix in chain(product((1,), rs, rs, rs), product((0,), (1,), rs, rs)):
        a1, a2, a3, a4 = matrix
        if (a1 * a4 - a2 * a3) % p == 0:
            continue
        images = _act(p, matrix, points, points)
        order = lcm(*(len(c) for c in cycle_decomposition(images)))
        tally[order] = tally.get(order, 0) + 1
    if sum(tally.values()) != p * (p - 1) * (p + 1):
        raise InternalInvariantViolation("census does not cover the whole group")
    return dict(sorted(tally.items()))
