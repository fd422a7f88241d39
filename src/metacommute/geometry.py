"""The conic x^2 + y^2 + z^2 = 0 in P^2(F_p), its bijection with prime
classes through the trace-zero element of the reduced ideal, the further
identification with P^1(F_p), and the right standard PGL_2 action.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from metacommute.errors import (
    DomainError,
    InternalInvariantViolation,
    ModulusMismatch,
    SingularMatrix,
    ZeroInput,
)
from metacommute.modp import (
    FpMat2,
    TwoSquareRep,
    _phi_entries,
    inv_table,
    sqrt_table,
    two_square_rep,
)
from metacommute.quatcore import (
    HurwitzInt,
    PrimeClass,
    _require_odd_prime,
    _slot_setters,
)


@dataclass(frozen=True, slots=True, order=True, init=False)
class ConicPoint:
    """A point (x : y : z) on the conic, first nonzero coordinate scaled to 1."""

    p: int
    x: int
    y: int
    z: int

    def __init__(self, p: int, x: int, y: int, z: int):
        # the slot setters, as for PrimeClass
        _set_pt_p(self, p)
        _set_pt_x(self, x)
        _set_pt_y(self, y)
        _set_pt_z(self, z)

    @classmethod
    def normalized(cls, p: int, x: int, y: int, z: int) -> "ConicPoint":
        x, y, z = x % p, y % p, z % p
        lead = x or y or z
        if not lead:
            raise ZeroInput("(0, 0, 0) is not a projective point")
        inv = pow(lead, -1, p)
        pt = cls(p, (x * inv) % p, (y * inv) % p, (z * inv) % p)
        if (pt.x ** 2 + pt.y ** 2 + pt.z ** 2) % p != 0:
            raise DomainError(f"({x}:{y}:{z}) is not on the conic mod {p}")
        return pt

    def __str__(self) -> str:
        return f"{self.x}:{self.y}:{self.z}"


_set_pt_p, _set_pt_x, _set_pt_y, _set_pt_z = _slot_setters(ConicPoint)


@dataclass(frozen=True, slots=True, order=True)
class ProjPoint:
    """A point of P^1(F_p) in canonical form <0,1> or <1,m>."""

    p: int
    x: int
    y: int

    @classmethod
    def normalized(cls, p: int, x: int, y: int) -> "ProjPoint":
        x, y = x % p, y % p
        if x == 0:
            if y == 0:
                raise ZeroInput("(0, 0) is not a projective point")
            return cls(p, 0, 1)
        return cls(p, 1, (y * pow(x, -1, p)) % p)


@lru_cache(maxsize=None)
def conic_points(p: int) -> tuple[ConicPoint, ...]:
    """All p+1 points of the conic, lexicographically sorted."""
    roots = sqrt_table(p)
    pts = []

    def add(x: int, y: int, r: int) -> None:
        # the points (x:y:z) with z^2 = r^2 = -(x^2 + y^2), in ascending z
        if r > 0:
            pts.extend((ConicPoint(p, x, y, r), ConicPoint(p, x, y, p - r)))
        elif r == 0:
            pts.append(ConicPoint(p, x, y, 0))

    # canonical representatives of P^2(F_p), in sorted order: (0,0,1),
    # (0,1,z), (1,y,z); (0,0,1) has x^2+y^2+z^2 = 1, never on the conic
    add(0, 1, roots[p - 1])
    for y in range(p):
        add(1, y, roots[(-1 - y * y) % p])
    if len(pts) != p + 1:
        raise InternalInvariantViolation(f"conic over F_{p} has {len(pts)} points")
    return tuple(pts)


def _conjugate(p: int, h: tuple[int, int, int, int],
               x: int, y: int, z: int) -> tuple[int, int, int]:
    """The i, j, k coordinates, in [0, p), of conj(h) * (xi + yj + zk) * h
    for h in doubled coordinates (a, b, c, d): the conjugation formula,
    written only here.

    Doubled coordinates scale the product by 4, a unit mod p, so it names
    the same projective point as the conjugate by the quaternion h/2.
    """
    a, b, c, d = h
    # v = conj(h) * (0, x, y, z)
    v1 = b * x + c * y + d * z
    v2 = a * x - c * z + d * y
    v3 = a * y + b * z - d * x
    v4 = a * z - b * y + c * x
    # w = v * h, whose real part conjugation keeps at 0
    if (v1 * a - v2 * b - v3 * c - v4 * d) % p:
        raise InternalInvariantViolation("conjugation lost the trace-zero form")
    return (
        (v1 * b + v2 * a + v3 * d - v4 * c) % p,
        (v1 * c - v2 * d + v3 * a + v4 * b) % p,
        (v1 * d + v2 * c - v3 * b + v4 * a) % p,
    )


@lru_cache(maxsize=None)
def trace_zero_rep(P: PrimeClass) -> ConicPoint:
    """The conic point of a prime class: coordinates of the unique-up-to-
    scaling trace-zero element t = ai + bj + ck of the reduced left ideal
    generated by the class mod p.

    conj(P) * e * P lies in that ideal and has trace N(P) tr(e) = 0 for
    e = i, j, k; the first of them that does not vanish mod p is t.
    """
    p = P.p
    _require_odd_prime(p)
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        x, y, z = _conjugate(p, P.rep.coeffs, *e)
        if x or y or z:
            break
    if not (x or y or z) or (x * x + y * y + z * z) % p:
        raise InternalInvariantViolation(f"no trace-zero point on the conic for {P!r}")
    return ConicPoint.normalized(p, x, y, z)


@lru_cache(maxsize=None)
def conic_to_prime(c: ConicPoint) -> PrimeClass:
    """The prime class of a conic point: lift t = xi + yj + zk with
    coordinates in [0, p) and take the class of gcrd(lift, p)."""
    return PrimeClass.dividing(HurwitzInt(0, 2 * c.x, 2 * c.y, 2 * c.z), c.p)


def _proj_key(p: int, rep: TwoSquareRep, x: int, y: int, z: int) -> int:
    """The int key of conic_to_proj of the conic point (x : y : z): <1,m> is m
    and <0,1> is p."""
    a1, a2, a3, a4 = _phi_entries(p, rep.a, rep.b, 0, x, y, z)
    if (a1 + a4) % p or (a1 * a4 - a2 * a3) % p or not (a1 or a2 or a3 or a4):
        raise InternalInvariantViolation(
            f"phi image {(a1, a2, a3, a4)} of conic point {x}:{y}:{z} is not a "
            "trace-zero rank-one matrix"
        )
    # a3 = 0 with trace 0 and det 0 forces the diagonal to vanish, leaving
    # the projectively unique nilpotent [[0,1],[0,0]]: <0,1>
    return a4 * pow(a3, -1, p) % p if a3 else p


def conic_to_proj(c: ConicPoint, rep: TwoSquareRep) -> ProjPoint:
    """Identify a conic point with a point of P^1(F_p).

    The matrix image of the pure quaternion xi + yj + zk is trace-zero with
    zero determinant; the bottom row (a3, a4) read as projective
    coordinates gives <0,1> when a3 = 0 and <1, a4/a3> otherwise.
    """
    p = c.p
    if p != rep.p:
        raise ModulusMismatch(f"moduli differ: {p} vs {rep.p}")
    key = _proj_key(p, rep, c.x, c.y, c.z)
    return ProjPoint(p, 0, 1) if key == p else ProjPoint(p, 1, key)


@lru_cache(maxsize=None)
def proj_table(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The projective route's table for p, built once on ints: (keys, pos),
    where keys[i] is the key of the i-th point of the sorted conic under
    conic_to_proj, with its rank-one check, and pos[key] the position of the
    conic point with that key."""
    rep = two_square_rep(p)
    keys = tuple(_proj_key(p, rep, c.x, c.y, c.z) for c in conic_points(p))
    pos = [-1] * (p + 1)
    for i, key in enumerate(keys):
        pos[key] = i
    # p+1 keys in range(p+1): injective exactly when every key is hit
    if -1 in pos:
        raise InternalInvariantViolation("conic -> P^1 map is not injective")
    return keys, tuple(pos)


def _act(p: int, matrix: tuple[int, int, int, int], keys, pos) -> tuple[int, ...]:
    """The right standard action <x,y> * A = <a1 x + a3 y, a2 x + a4 y> of
    A = (a1, a2, a3, a4), entries in [0, p), on the P^1(F_p) points with int
    keys keys[i]: image i is pos[key of keys[i] * A]."""
    a1, a2, a3, a4 = matrix
    if (a1 * a4 - a2 * a3) % p == 0:
        raise SingularMatrix("projective action needs an invertible matrix")
    inv = inv_table(p)
    # <1,key> goes to <a1 + a3 key, a2 + a4 key> = <1, (a2 + a4 key) / (a1 + a3 key)>
    images = [pos[(a2 + a4 * key) * inv[(a1 + a3 * key) % p] % p] for key in keys]
    # two points leave the chart that formula reads: <0,1> (key p), which goes
    # to <a3, a4>, and the <1,key> with a1 + a3 key = 0, which goes to <0,1>;
    # with a3 = 0 the second does not exist (a1 != 0, since det A != 0)
    if a3:
        inv_a3 = inv[a3]
        images[pos[p]] = pos[a4 * inv_a3 % p]
        images[pos[-a1 * inv_a3 % p]] = pos[p]
    else:
        images[pos[p]] = pos[p]
    return tuple(images)


def pgl2_act(pt: ProjPoint, A: FpMat2) -> ProjPoint:
    """Right standard action <x,y> * A = <a1 x + a3 y, a2 x + a4 y>."""
    if A.p != pt.p:
        raise ModulusMismatch(f"moduli differ: {A.p} vs {pt.p}")
    if A.det() == 0:
        raise SingularMatrix("projective action needs an invertible matrix")
    return ProjPoint.normalized(
        pt.p, A.a1 * pt.x + A.a3 * pt.y, A.a2 * pt.x + A.a4 * pt.y
    )
