"""Hot kernels for Hurwitz quaternion arithmetic.

All functions work on 4-tuples of doubled coordinates: the tuple
(A, B, C, D) stands for the quaternion (A + Bi + Cj + Dk) / 2, with
A, B, C, D all congruent mod 2.

Every kernel is exact on ints of any size and checks only the parity and
division invariants it relies on; bounding outside input is the caller's job.
"""

from itertools import product as _product

# the 24 units: +-1, +-i, +-j, +-k and (+-1 +-i +-j +-k)/2, in doubled
# coordinates, lexicographically sorted
_UNITS = sorted(
    [t for t in _product((-2, 0, 2), repeat=4) if sum(v * v for v in t) == 4]
    + list(_product((-1, 1), repeat=4))
)


def mul(x, y):
    """Hamilton product of two doubled-coordinate quadruples."""
    A, B, C, D = x
    E, F, G, H = y
    P = A * E - B * F - C * G - D * H
    Q = A * F + B * E + C * H - D * G
    R = A * G - B * H + C * E + D * F
    S = A * H + B * G - C * F + D * E
    if (P | Q | R | S) & 1:
        raise ValueError("non-integral product; parity constraint violated")
    return (P >> 1, Q >> 1, R >> 1, S >> 1)


def norm(x):
    A, B, C, D = x
    s = A * A + B * B + C * C + D * D
    if s & 3:
        raise ValueError("non-integral norm; parity constraint violated")
    return s >> 2


def _nearest(m0, m1, m2, m3, n):
    """The least nearest D4* point to m / n, for n > 0.

    D4* is the lattice of doubled coordinates all even or all odd (Conway &
    Sloane 1982). Within one coset the squared distance splits by
    coordinate, so rounding each coordinate half-down gives that coset's
    lexicographically least nearest point; the lesser (distance, coords) of
    the two coset winners is then the least nearest point overall. Half-down
    rounding of c / 2n is (c + n - 1) // 2n (even coset); of (c - n) / 2n it
    is (c - 1) // 2n (odd coset).
    """
    n2 = 2 * n
    up = n - 1
    e0 = 2 * ((m0 + up) // n2)
    e1 = 2 * ((m1 + up) // n2)
    e2 = 2 * ((m2 + up) // n2)
    e3 = 2 * ((m3 + up) // n2)
    o0 = 2 * ((m0 - 1) // n2) + 1
    o1 = 2 * ((m1 - 1) // n2) + 1
    o2 = 2 * ((m2 - 1) // n2) + 1
    o3 = 2 * ((m3 - 1) // n2) + 1
    d0 = m0 - n * e0
    d1 = m1 - n * e1
    d2 = m2 - n * e2
    d3 = m3 - n * e3
    even = d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3
    d0 = m0 - n * o0
    d1 = m1 - n * o1
    d2 = m2 - n * o2
    d3 = m3 - n * o3
    odd = d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3
    if odd < even or odd == even and (o0, o1, o2, o3) < (e0, e1, e2, e3):
        return o0, o1, o2, o3
    return e0, e1, e2, e3


def _divide(a, b, n):
    """One right division of a by b, where n = norm(b) > 0.

    Returns (q, r, norm(r)) with a = q*b + r and norm(r) < n. q is the least
    nearest Hurwitz point to a * conj(b) / n, by _nearest.
    """
    E, F, G, H = b
    m0, m1, m2, m3 = mul(a, (E, -F, -G, -H))  # a plain call costs less than *m
    q = _nearest(m0, m1, m2, m3, n)
    s0, s1, s2, s3 = mul(q, b)
    r = (a[0] - s0, a[1] - s1, a[2] - s2, a[3] - s3)
    s = norm(r)
    if s >= n:
        raise ValueError("division failed to reduce the norm")
    return q, r, s


def right_divmod(a, b):
    """Return (q, r) with a = q*b + r and norm(r) < norm(b).

    q is a nearest Hurwitz point to a * conj(b) / norm(b); among candidates
    at equal squared distance the lexicographically least doubled
    coordinates win. b must be nonzero.
    """
    q, r, _ = _divide(a, b, norm(b))
    return q, r


def gcrd(a, b):
    """Greatest common right divisor via the right-division Euclidean loop.

    Returns the last nonzero remainder, NOT canonicalized. At least one
    argument must be nonzero. Each step runs _divide, and the norm of its
    remainder is the next divisor's norm, so no norm is computed twice.
    """
    n = norm(b)
    while n:
        _, r, n_r = _divide(a, b, n)
        a, b, n = b, r, n_r
    return a


def gcrd_p(h, p):
    """A left associate of gcrd(h, p), with its norm, for an odd p > 0.

    The remainders are those of gcrd(h, (2p, 0, 0, 0)), and without an early
    stop the result is the same last nonzero remainder. The first division
    is the scalar reduction of h mod p: _divide's quotient
    _nearest(h * conj(p), p^2), with the p in the product cancelled against
    the divisor's norm, is _nearest(h, p).

    The loop stops at the first remainder b of norm p with h * conj(b) = 0
    mod p. Every remainder lies in the left ideal O h + O p = O gcrd(h, p),
    so b = x gcrd(h, p); and b right-divides p = conj(b) b and
    h = (h conj(b) / p) b, hence gcrd(h, p) too, so x is a unit.
    """
    A, B, C, D = h
    q0, q1, q2, q3 = _nearest(A, B, C, D, p)
    b = (A - p * q0, B - p * q1, C - p * q2, D - p * q3)
    n = norm(b)
    if n >= p * p:
        raise ValueError("division failed to reduce the norm")

    a, n_a = (2 * p, 0, 0, 0), p * p
    while n:
        if n == p:
            c0, c1, c2, c3 = mul(h, (b[0], -b[1], -b[2], -b[3]))
            if not (c0 % p or c1 % p or c2 % p or c3 % p):
                return b, n
        _, r, n_r = _divide(a, b, n)
        a, n_a, b, n = b, n, r, n_r
    return a, n_a


def _signs(v):
    """The signs s with s * v = -|v|: both of them when v is 0."""
    return (1, -1) if not v else ((-1,) if v > 0 else (1,))


def canonical_min(h):
    """Lexicographic minimum of the 24 left-associates u * h.

    The first doubled coordinate of u * h is (u0 A - u1 B - u2 C - u3 D) / 2,
    a linear form in the doubled unit u. With x = (A, -B, -C, -D), its least
    value over the 24 units is -max(2 max|x_i|, sum |x_i|): an axis unit
    +-2 e_i reaches -2|x_i|, a half unit (+-1, +-1, +-1, +-1) reaches
    -sum |x_i| when each sign is opposite to x_i's. So only the units that
    reach it need the full product: the axis units on a coordinate where
    |x_i| is largest when 2 max >= sum, and the half units whose signs
    oppose x, with both signs on a zero coordinate, when sum >= 2 max.
    """
    A, B, C, D = h
    # every u * h is integral exactly when A + B + C + D is even
    if (A + B + C + D) & 1:
        raise ValueError("non-integral product; parity constraint violated")
    a, b, c, d = abs(A), abs(B), abs(C), abs(D)
    top = 2 * max(a, b, c, d)
    total = a + b + c + d
    units = []
    if top >= total:
        # a zero coordinate reaches top only when h is 0, which the half
        # units below cover
        if 2 * a == top:
            units.append((-2 if A > 0 else 2, 0, 0, 0))
        if 2 * b == top:
            units.append((0, 2 if B > 0 else -2, 0, 0))
        if 2 * c == top:
            units.append((0, 0, 2 if C > 0 else -2, 0))
        if 2 * d == top:
            units.append((0, 0, 0, 2 if D > 0 else -2))
    if total >= top:
        units += _product(_signs(A), _signs(-B), _signs(-C), _signs(-D))
    return min([mul(u, h) for u in units])


def kernel_backend() -> str:
    """Name of the kernel implementation; there is one, in pure Python."""
    return "python"
