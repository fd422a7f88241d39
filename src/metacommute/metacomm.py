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
from functools import lru_cache
from itertools import chain, product
from math import gcd, lcm

from metacommute.errors import (
    CoprimalityError,
    InternalInvariantViolation,
)
from metacommute.geometry import (
    _CACHED_POINTS,
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
    _P_MAX,
    HurwitzInt,
    PrimeClass,
    _is_rational_prime,
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
    at its smallest element, cycles sorted by that element. Permutation
    checks that images is a bijection, so every walk closes at its start."""
    images = Permutation(len(images) - 1, tuple(images)).images
    seen = bytearray(len(images))
    cycles = []
    try:
        for start in range(len(images)):
            if seen[start]:
                continue
            cycle = [start]
            j = images[start]
            while j != start:
                seen[j] = 1
                cycle.append(j)
                j = images[j]
            seen[j] = 1  # see analyze
            cycles.append(cycle)
    except TypeError:  # see analyze
        raise InternalInvariantViolation("images are not all ints") from None
    return cycles


def analyze(perm: Permutation) -> PermReport:
    """Sign, fixed-point count and non-fixed cycle lengths of a permutation.

    Walks cycle lengths only: Permutation has checked that images is a
    bijection, so every walk closes at its start. The loop never meets a
    start again, so a walk marks only the rest of its cycle, and then the
    image that closed it: every image, a fixed one too, indexes seen."""
    images = perm.images
    seen = bytearray(len(images))
    fixed = 0
    lengths = []
    try:
        for start, j in enumerate(images):
            if seen[start]:
                continue
            length = 1
            while j != start:
                seen[j] = 1
                j = images[j]
                length += 1
            seen[j] = 1
            if length == 1:
                fixed += 1
            else:
                lengths.append(length)
    except TypeError:
        # Permutation's set test admits an image only equal to an int, such
        # as 1.0, that cannot index; on Python 3.11+ the try is free
        raise InternalInvariantViolation("images are not all ints") from None
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


def cycle_length(query: MetaQuery) -> int:
    """The length of every non-fixed cycle: the order of the image A of Q in
    the projective group, 1 for a central Q.

    With s = tr(Q)^2 q^-1 - 2 mod p, the ratio r of A's eigenvalues has
    r + 1/r = s. When s = 2, r = 1 and A, not scalar, has order p. Else the
    order is that of r: the least k with V_k = r^k + r^-k = 2, where
    V_0 = 2, V_1 = s and V_{k+1} = s V_k - V_{k-1} mod p."""
    if query.central:
        return 1
    p = query.p
    s = (query.Q.trace() ** 2 * pow(query.q, -1, p) - 2) % p
    return p if s == 2 else _ratio_order(s, p)


@lru_cache(maxsize=_CACHED_POINTS)
def _ratio_order(s: int, p: int) -> int:
    """The least k >= 1 with V_k = 2 mod p, for s != 2, in O(log p)^2 steps
    once p - 1 or p + 1 is factored, where a walk of the recurrence takes up
    to p. r lies in F_p when s^2 - 4 is a square mod p, and has norm 1 in
    F_{p^2} when it is not, so k divides n = p - 1 or p + 1: strip each
    prime factor l of n while V_{k/l} stays 2."""
    k = p - 1 if _legendre(s * s - 4, p) >= 0 else p + 1
    for ell in _prime_factors(k):
        while k % ell == 0 and _lucas_v(s, k // ell, p) == 2:
            k //= ell
    return k


def _lucas_v(s: int, m: int, p: int) -> int:
    """V_m mod p, by the ladder V_2k = V_k^2 - 2, V_2k+1 = V_k V_k+1 - s."""
    v, w = 2, s  # V_k, V_k+1 at k = 0
    for bit in bin(m)[2:]:
        if bit == "1":
            v, w = (v * w - s) % p, (w * w - 2) % p
        else:
            v, w = (v * v - 2) % p, (v * w - s) % p
    return v


def _prime_factors(n: int) -> set[int]:
    """The distinct primes of an n with 1 <= n < _PSI13. Pollard's rho splits
    each odd composite: its least prime factor is below sqrt(_PSI13), about
    1.8 * 10^12, which rho finds in about 10^6 steps (about 1 s on one core,
    Python 3.11)."""
    found, rest = set(), [n]
    while rest:
        m = rest.pop()
        if _is_rational_prime(m):
            found.add(m)
        elif m % 2 == 0:
            rest += (2, m // 2)
        elif m > 1:
            d, c = m, 0
            while d == m:  # x -> x^2 + c, Floyd's cycle test, c = 1, 2, ...
                c, x, y, d = c + 1, 2, 2, 1
                while d == 1:
                    x = (x * x + c) % m
                    y = (y * y + c) % m
                    y = (y * y + c) % m
                    d = gcd(x - y, m)
            rest += (d, m // d)
    return found


def order_counts(p: int) -> dict[int, int]:
    """The element orders of the projective group on p+1 points, {order:
    count} in ascending order. An element other than the identity fixes
    f = 0, 1 or 2 points and lies in exactly one maximal cyclic subgroup, of
    order m = p + 1 - f; there are p(p-1)/2, p+1 and p(p+1)/2 of those.
    Element j of such a subgroup, 0 < j < m, has order m / gcd(j, m)."""
    _require_odd_prime(p, _P_MAX)
    tally = {1: 1}
    for f, subgroups in ((0, p * (p - 1) // 2), (1, p + 1), (2, p * (p + 1) // 2)):
        m = p + 1 - f
        for j in range(1, m):
            k = m // gcd(j, m)
            tally[k] = tally.get(k, 0) + subgroups
    return dict(sorted(tally.items()))


def pgl2_order_census(p: int) -> dict[int, int]:
    """Element orders of the full projective group, by brute enumeration of
    all p(p-1)(p+1) matrices mod scalars acting on P^1(F_p)."""
    _require_odd_prime(p, _CENSUS_MAX_P)
    points = range(p + 1)  # every key of P^1(F_p) is its own position
    rs = range(p)
    tally: dict[int, int] = {}
    # canonical representatives mod scalars: first nonzero entry equal to 1
    for matrix in chain(product((1,), rs, rs, rs), product((0,), (1,), rs, rs)):
        a1, a2, a3, a4 = matrix
        if (a1 * a4 - a2 * a3) % p == 0:
            continue
        order = lcm(*analyze(Permutation(p, _act(p, matrix, points, points))).cycle_lengths)
        tally[order] = tally.get(order, 0) + 1
    if sum(tally.values()) != p * (p - 1) * (p + 1):
        raise InternalInvariantViolation("census does not cover the whole group")
    return dict(sorted(tally.items()))
