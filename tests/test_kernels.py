"""The integer kernels: exactness at any size, the division contract and the
D4* decoder."""
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metacommute import _kernels
from metacommute.geometry import conic_points
from metacommute.quatcore import elements_of_norm, primes_of_norm


def rand_tuple(rng, span=40):
    parity = rng.randint(0, 1)
    return tuple(2 * rng.randint(-span, span) + parity for _ in range(4))


def _reference_quotient(a, b):
    """The 32-candidate nearest-point search that the D4* decoder replaced.

    In each coset of D4* (doubled coordinates all even or all odd) it tries
    both neighbours of m / n in every coordinate, where m = a * conj(b) and
    n = norm(b). Returns the least (squared distance, quotient) and the
    number of candidates at that distance (more than 1 is a tie).
    """
    n = _kernels.norm(b)
    m = _kernels.mul(a, (b[0], -b[1], -b[2], -b[3]))
    n2 = 2 * n
    cands = []
    for parity in (0, 1):
        if parity == 0:
            lo = tuple(2 * (c // n2) for c in m)
        else:
            lo = tuple(2 * ((c - n) // n2) + 1 for c in m)
        for bits in range(16):
            q = tuple(lo[i] + 2 * ((bits >> i) & 1) for i in range(4))
            s = sum((m[i] - n * q[i]) ** 2 for i in range(4))
            cands.append((s, q))
    best = min(cands)
    return best, sum(1 for s, _ in cands if s == best[0])


def _brute_nearest(m, n):
    """Every D4* point near m / n as (squared distance, point), least first.
    Each coset's nearest points lie within 1 of m / n in every coordinate, so
    the box floor(m / n) - 1 .. floor(m / n) + 2 holds them."""
    box = [range(c // n - 1, c // n + 3) for c in m]
    return sorted(
        (sum((c - n * x) ** 2 for c, x in zip(m, q)), q)
        for q in product(*box) if len({x & 1 for x in q}) == 1
    )


def test_nearest_matches_a_brute_force_search_ties_included():
    # m ranges over every integer vector, not only products a * conj(b) with
    # norm(b) = n; small n puts m / n on half-way points often, inside one
    # coset and between the two
    rng = random.Random(173)
    ties = {"even": 0, "odd": 0, "across": 0}
    big = (2**61 - 1, 10**12, 99_991**2)
    cases = [(n, 150) for n in range(1, 13)] + [(n, 100) for n in big]
    for n, count in cases:
        for i in range(count):
            if n in big and i % 2:
                # whole and half multiples of n put large-n points on ties too
                m = tuple(rng.randrange(-9, 10) * n // 2 for _ in range(4))
            elif n in big:
                m = tuple(rng.randrange(-n << 40, n << 40) for _ in range(4))
            else:
                m = tuple(rng.randrange(-5 * n, 5 * n + 1) for _ in range(4))
            cands = _brute_nearest(m, n)
            d, q = cands[0]
            assert _kernels._nearest(*m, n) == q, (m, n)
            parities = {t[0] & 1 for s, t in cands[1:] if s == d}
            ties[("even", "odd")[q[0] & 1]] += q[0] & 1 in parities
            ties["across"] += 1 - (q[0] & 1) in parities
    assert min(ties.values()) > 100, ties


def test_divide_and_gcrd_p_round_through_nearest(monkeypatch):
    # the D4* decoder is written once: both divisions take their quotient
    # from _nearest, gcrd_p's first step with divisor p
    nearest = _kernels._nearest
    calls = []

    def spy(*args):
        calls.append(args)
        return nearest(*args)

    monkeypatch.setattr(_kernels, "_nearest", spy)
    h, p = (7, -3, 5, 1), 13
    _kernels.gcrd_p(h, p)
    assert calls[0] == (*h, p) and len(calls) > 1
    a, b = (9, 1, -3, 5), (3, 1, 1, -1)
    del calls[:]
    q, _ = _kernels.right_divmod(a, b)
    assert calls == [(*_kernels.mul(a, (3, -1, -1, 1)), 3)]
    assert q == nearest(*calls[0])


def test_selected_backend_is_consistent():
    assert _kernels.kernel_backend() == "python"


def _hamilton(x, y):
    """The Hamilton product of (A + Bi + Cj + Dk) / 2 values, written out on
    the undoubled components as exact fractions and doubled again."""
    a, b, c, d = (Fraction(v, 2) for v in x)
    e, f, g, h = (Fraction(v, 2) for v in y)
    return tuple(2 * v for v in (
        a * e - b * f - c * g - d * h,
        a * f + b * e + c * h - d * g,
        a * g - b * h + c * e + d * f,
        a * h + b * g - c * f + d * e,
    ))


def test_kernels_are_exact_beyond_the_cli_literal_range():
    assert _kernels.norm((1 << 14, 0, 0, 0)) == (1 << 14) ** 2 // 4
    rng = random.Random(131)
    for bits in (15, 20, 30, 40):
        for _ in range(200):
            a, b = rand_tuple(rng, span=1 << bits), rand_tuple(rng, span=1 << bits)
            assert _kernels.mul(a, b) == _hamilton(a, b)
            assert _kernels.norm(a) == sum(Fraction(v, 2) ** 2 for v in a)
            if b == (0, 0, 0, 0):
                continue
            q, r = _kernels.right_divmod(a, b)
            assert tuple(x - y for x, y in zip(a, _kernels.mul(q, b))) == r
            assert _kernels.norm(r) < _kernels.norm(b)


def test_division_contract_on_seeded_pairs():
    rng = random.Random(109)
    for _ in range(500):
        a, b = rand_tuple(rng), rand_tuple(rng)
        if b == (0, 0, 0, 0):
            continue
        q, r = _kernels.right_divmod(a, b)
        qb = _kernels.mul(q, b)
        assert tuple(x - y for x, y in zip(a, qb)) == r
        assert _kernels.norm(r) < _kernels.norm(b)


def test_divmod_matches_the_reference_search_ties_included():
    rng = random.Random(113)
    pairs = ties = 0
    for i in range(20_000):
        # small divisors put m / n on half-way points often
        a, b = rand_tuple(rng), rand_tuple(rng, span=40 if i % 2 else 3)
        if b == (0, 0, 0, 0):
            continue
        (_, q), at_best = _reference_quotient(a, b)
        assert _kernels.right_divmod(a, b)[0] == q, (a, b)
        pairs += 1
        ties += at_best > 1
    assert pairs > 19_000
    assert ties > 100


_coord = st.integers(-1000, 1000)
_quat = st.builds(
    lambda parity, cs: tuple(2 * c + parity for c in cs),
    st.integers(0, 1),
    st.tuples(_coord, _coord, _coord, _coord),
)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_quat, _quat.filter(lambda t: t != (0, 0, 0, 0)))
def test_division_contract_holds_for_any_pair(a, b):
    q, r = _kernels.right_divmod(a, b)
    assert tuple(x - y for x, y in zip(a, _kernels.mul(q, b))) == r
    assert _kernels.norm(r) < _kernels.norm(b)
    assert q == _reference_quotient(a, b)[0][1]


def _reference_right_divmod(a, b):
    """The coset loop that _kernels._divide unrolled: the two D4* coset
    winners as candidate tuples, the lesser (distance, coords) kept, and the
    products and norms through the public kernels."""
    n = _kernels.norm(b)
    m0, m1, m2, m3 = _kernels.mul(a, (b[0], -b[1], -b[2], -b[3]))
    n2 = 2 * n
    best = None
    for bias, parity in ((n - 1, 0), (-1, 1)):
        q = tuple(2 * ((m + bias) // n2) + parity for m in (m0, m1, m2, m3))
        d = [m - n * c for m, c in zip((m0, m1, m2, m3), q)]
        cand = (sum(x * x for x in d), q)
        if best is None or cand < best:
            best = cand
    qb = _kernels.mul(best[1], b)
    r = tuple(x - y for x, y in zip(a, qb))
    if _kernels.norm(r) >= n:
        raise ValueError("division failed to reduce the norm")
    return best[1], r


def _reference_gcrd(a, b):
    """The Euclid loop that recomputed norm(b) on every step."""
    while b != (0, 0, 0, 0):
        _, r = _reference_right_divmod(a, b)
        a, b = b, r
    return a


def test_gcrd_and_right_divmod_match_the_coset_loop():
    rng = random.Random(137)
    zero = (0, 0, 0, 0)
    pairs = [(zero, (6, 0, 0, 0)), ((3, 1, 1, 1), zero), (zero, (1, -1, 1, 1))]
    for i in range(3_000):
        span = (3, 40, 1 << 40)[i % 3]
        a = rand_tuple(rng, span)
        if i % 4 == 0:
            # the oracle's case: a product P Q against the scalar p
            p = rng.choice((3, 5, 13, 97, 99_991))
            pairs.append((_kernels.mul(a, rand_tuple(rng, 5)), (2 * p, 0, 0, 0)))
        else:
            # small divisors put m / n on half-way points often
            pairs.append((a, rand_tuple(rng, (1, span)[i % 2])))
    for a, b in pairs:
        assert _kernels.gcrd(a, b) == _reference_gcrd(a, b), (a, b)
        if b != zero:
            assert _kernels.right_divmod(a, b) == _reference_right_divmod(a, b), (a, b)


ZERO = (0, 0, 0, 0)


def _gcrd_p_checked(h, p):
    """gcrd_p(h, p), checked against the general gcrd: the same class, the
    norm it reports, and a right divisor of h. Returns the norm."""
    d, n = _kernels.gcrd_p(h, p)
    assert _kernels.canonical_min(d) == _kernels.canonical_min(_kernels.gcrd(h, (2 * p, 0, 0, 0)))
    assert n == _kernels.norm(d)
    assert _kernels.right_divmod(h, d)[1] == ZERO
    return n


@pytest.mark.parametrize("p", [3, 13, 4999])
def test_gcrd_p_matches_gcrd_on_seeded_products(p):
    # the oracle's case: h = P Q, whose gcrd with p is a class of norm p
    rng = random.Random(151 + p)
    classes = primes_of_norm(p)
    for i in range(400):
        Q = rand_tuple(rng, (3, 40, 1 << 20)[i % 3])
        h = _kernels.mul(rng.choice(classes).rep.coeffs, Q)
        # gcrd(P Q, p) is p itself when P Q = 0 mod p, and of norm p otherwise
        want = p * p if all(v % p == 0 for v in h) else p
        assert _gcrd_p_checked(h, p) == want, (h, p)


@pytest.mark.parametrize("p", [8209, 99991])
def test_gcrd_p_matches_gcrd_on_conic_lifts(p):
    # conic_to_prime's lift t = xi + yj + zk has coordinates in [0, p); the
    # lift t + p k i with 2 x k = -N(t) / p mod p has p^2 | N
    rng = random.Random(p)
    for c in rng.sample(conic_points(p), 40):
        x, y, z = c.x, c.y, c.z
        if not x:
            continue
        k = -(x * x + y * y + z * z) // p * pow(2 * x, -1, p) % p
        heavy = (0, 2 * (x + p * k), 2 * y, 2 * z)
        assert _kernels.norm(heavy) % (p * p) == 0
        assert _gcrd_p_checked((0, 2 * x, 2 * y, 2 * z), p) == p
        assert _gcrd_p_checked(heavy, p) == p


def test_gcrd_p_stops_at_its_norm_p_remainder(monkeypatch):
    # on the oracle's products the early stop skips at least the division by
    # the norm-p remainder that the general gcrd makes to reach 0
    divide = _kernels._divide
    calls = []

    def counted(a, b, n):
        calls.append(n)
        return divide(a, b, n)

    monkeypatch.setattr(_kernels, "_divide", counted)
    p = 13
    rng = random.Random(163)
    for P in primes_of_norm(p):
        h = _kernels.mul(P.rep.coeffs, rand_tuple(rng, 5))
        if all(v % p == 0 for v in h):
            continue
        del calls[:]
        _kernels.gcrd(h, (2 * p, 0, 0, 0))
        full = len(calls)
        del calls[:]
        _kernels.gcrd_p(h, p)
        # gcrd divides p^2 out first and p last; gcrd_p does neither
        assert full >= 2 and len(calls) <= full - 2 and p not in calls, h


def test_gcrd_p_is_gcrd_when_the_gcrd_is_a_unit_or_p():
    # with p prime to N(h) the gcrd is a unit: no remainder passes the early
    # stop's check, so every remainder and the result are gcrd's own; with
    # h = 0 mod p the scalar reduction leaves 0 and the result is p. Whole
    # multiples of p among the coordinates put h / p on half-way points
    rng = random.Random(157)
    units = zeros = 0
    for i in range(4_000):
        p = (3, 5, 7, 13, 101)[i % 5]
        parity = rng.randrange(2)
        h = tuple(
            p * (2 * rng.randrange(-9, 10) + parity) if rng.randrange(2)
            else 2 * rng.randrange(-5 * p, 5 * p) + parity
            for _ in range(4)
        )
        if _kernels.norm(h) % p:
            assert _kernels.gcrd_p(h, p) == (_kernels.gcrd(h, (2 * p, 0, 0, 0)), 1), (h, p)
            units += 1
        elif all(v % p == 0 for v in h):
            assert _kernels.gcrd_p(h, p) == ((2 * p, 0, 0, 0), p * p), (h, p)
            zeros += 1
        else:
            assert _gcrd_p_checked(h, p) == p
    assert units > 2_000 and zeros > 100


def _reference_canonical_min(h):
    """The 24-product loop that the linear-form kernel replaced."""
    best = None
    for u in _kernels._UNITS:
        c = _kernels.mul(u, h)
        if best is None or c < best:
            best = c
    return best


def _first_coordinate_ties(h):
    """How many units reach the least first coordinate of u * h."""
    firsts = [_kernels.mul(u, h)[0] for u in _kernels._UNITS]
    return firsts.count(min(firsts))


def test_canonical_min_matches_the_reference_on_every_small_norm_element():
    checked = tied = 0
    for n in (3, 5, 7, 11, 13, 29, 97, 499):
        for h in elements_of_norm(n):
            assert _kernels.canonical_min(h.coeffs) == _reference_canonical_min(h.coeffs), h
            checked += 1
            tied += _first_coordinate_ties(h.coeffs) > 1
    assert checked == 24 * (4 + 6 + 8 + 12 + 14 + 30 + 98 + 500)
    assert tied > 1000  # several units tie on the first coordinate


def test_canonical_min_matches_the_reference_on_seeded_tuples():
    rng = random.Random(127)
    tied = 0
    for i in range(10_000):
        h = rand_tuple(rng, span=40 if i % 2 else 2)
        assert _kernels.canonical_min(h) == _reference_canonical_min(h), h
        tied += _first_coordinate_ties(h) > 1
    assert tied > 1000


def test_canonical_min_matches_the_reference_on_every_small_tuple():
    # zero coordinates, ties 2 max|x| = sum |x| and mixed parities included
    checked = 0
    for h in product(range(-4, 5), repeat=4):
        if sum(h) % 2 == 0:
            assert _kernels.canonical_min(h) == _reference_canonical_min(h), h
            checked += 1
    assert checked == (9 ** 4 + 1) // 2


def test_canonical_min_rejects_what_the_reference_rejects():
    # A + B + C + D odd: the half-integer units give non-integral products
    for h in ((1, 0, 0, 0), (2, 1, 0, 0), (3, 3, 3, 0)):
        with pytest.raises(ValueError):
            _reference_canonical_min(h)
        with pytest.raises(ValueError):
            _kernels.canonical_min(h)
    # A + B + C + D even but mixed parity: every product is still integral
    assert _kernels.canonical_min((1, 1, 0, 0)) == _reference_canonical_min((1, 1, 0, 0))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_quat)
def test_canonical_min_matches_the_reference_for_any_tuple(h):
    assert _kernels.canonical_min(h) == _reference_canonical_min(h)
