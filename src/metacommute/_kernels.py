"""Hot kernels for Hurwitz quaternion arithmetic.

All functions work on 4-tuples of doubled coordinates: the tuple
(A, B, C, D) stands for the quaternion (A + Bi + Cj + Dk) / 2, with
A, B, C, D all congruent mod 2.

Every public kernel checks that its inputs lie within +-COORD_LIMIT, the
package's supported coordinate range. The cap is far above anything the
supported sweeps (p, q <= 97) produce.
"""

from itertools import product as _product

COORD_LIMIT = 1 << 14

# the 24 units: +-1, +-i, +-j, +-k and (+-1 +-i +-j +-k)/2, in doubled
# coordinates, lexicographically sorted
_UNITS = sorted(
    [t for t in _product((-2, 0, 2), repeat=4) if sum(v * v for v in t) == 4]
    + list(_product((-1, 1), repeat=4))
)


def _check_range(t):
    for v in t:
        if not -COORD_LIMIT <= v <= COORD_LIMIT:
            raise OverflowError(
                f"doubled coordinate {v} outside supported range +-{COORD_LIMIT}"
            )


def _mul_raw(x, y):
    A, B, C, D = x
    E, F, G, H = y
    P = A * E - B * F - C * G - D * H
    Q = A * F + B * E + C * H - D * G
    R = A * G - B * H + C * E + D * F
    S = A * H + B * G - C * F + D * E
    if (P | Q | R | S) & 1:
        raise ValueError("non-integral product; parity constraint violated")
    return (P >> 1, Q >> 1, R >> 1, S >> 1)


def _norm_raw(x):
    A, B, C, D = x
    s = A * A + B * B + C * C + D * D
    if s & 3:
        raise ValueError("non-integral norm; parity constraint violated")
    return s >> 2


def _divmod_raw(a, b):
    n = _norm_raw(b)
    m0, m1, m2, m3 = _mul_raw(a, (b[0], -b[1], -b[2], -b[3]))
    n2 = 2 * n

    # The quotient is a nearest point of the D4* lattice (doubled coordinates
    # all even or all odd) to m / n (Conway & Sloane 1982). Within one coset
    # the squared distance splits by coordinate, so rounding each coordinate
    # half-down gives that coset's lexicographically least nearest point;
    # comparing the two coset winners by (distance, coords) then picks the
    # least nearest point overall. Half-down rounding of c / 2n is
    # (c + n - 1) // 2n (even coset); of (c - n) / 2n it is (c - 1) // 2n
    # (odd coset).
    best = None
    for bias, parity in ((n - 1, 0), (-1, 1)):
        q0 = 2 * ((m0 + bias) // n2) + parity
        q1 = 2 * ((m1 + bias) // n2) + parity
        q2 = 2 * ((m2 + bias) // n2) + parity
        q3 = 2 * ((m3 + bias) // n2) + parity
        d0 = m0 - n * q0
        d1 = m1 - n * q1
        d2 = m2 - n * q2
        d3 = m3 - n * q3
        cand = (d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3, (q0, q1, q2, q3))
        if best is None or cand < best:
            best = cand
    best_q = best[1]

    qb = _mul_raw(best_q, b)
    r = (a[0] - qb[0], a[1] - qb[1], a[2] - qb[2], a[3] - qb[3])
    if _norm_raw(r) >= n:
        raise ValueError("division failed to reduce the norm")
    return best_q, r


def mul(x, y):
    """Hamilton product of two doubled-coordinate quadruples."""
    _check_range(x)
    _check_range(y)
    return _mul_raw(x, y)


def norm(x):
    _check_range(x)
    return _norm_raw(x)


def right_divmod(a, b):
    """Return (q, r) with a = q*b + r and norm(r) < norm(b).

    q is a nearest Hurwitz point to a * conj(b) / norm(b); among candidates
    at equal squared distance the lexicographically least doubled
    coordinates win. b must be nonzero.
    """
    _check_range(a)
    _check_range(b)
    return _divmod_raw(a, b)


def gcrd(a, b):
    """Greatest common right divisor via the right-division Euclidean loop.

    Returns the last nonzero remainder, NOT canonicalized. At least one
    argument must be nonzero.
    """
    _check_range(a)
    _check_range(b)
    while b != (0, 0, 0, 0):
        _, r = _divmod_raw(a, b)
        a, b = b, r
    return a


def canonical_min(h):
    """Lexicographic minimum of the 24 left-associates u * h."""
    _check_range(h)
    best = None
    for u in _UNITS:
        c = _mul_raw(u, h)
        if best is None or c < best:
            best = c
    return best


def kernel_backend() -> str:
    """Name of the kernel implementation; there is one, in pure Python."""
    return "python"
