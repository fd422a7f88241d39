"""Hurwitz integer arithmetic: construction, products, division, gcrd,
canonicalization and prime-class enumeration."""
import dataclasses
import itertools
import random
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metacommute import _kernels
from metacommute.errors import (
    DivideByZero,
    DomainError,
    InternalInvariantViolation,
    MetacommuteError,
    NonPrimeNorm,
    ParityError,
    ScaleLimit,
    UnsupportedPrime,
    ZeroInput,
)
from metacommute.quatcore import (
    I,
    J,
    K,
    OMEGA,
    ONE,
    HurwitzInt,
    PrimeClass,
    _PRIMES_MAX_P,
    _TRIAL_DIVISION_BOUND,
    _canonical_reps,
    _is_rational_prime,
    _miller_rabin,
    canonical_rep,
    elements_of_norm,
    gcrd,
    is_prime,
    make,
    primes_of_norm,
    right_divmod,
    units,
)
from metacommute.verify import odd_primes_up_to


def rand_quat(rng, span=4):
    parity = rng.randint(0, 1)
    return HurwitzInt(*(2 * rng.randint(-span, span) + parity for _ in range(4)))


# ---------------------------------------------------------------- construction

def test_make_identity():
    assert make(2, 0, 0, 0) == ONE
    assert ONE.norm() == 1 and ONE.trace() == 2


def test_make_omega():
    w = make(1, 1, 1, 1)
    assert w == OMEGA
    assert w.norm() == 1 and w.trace() == 1


def test_make_mixed_parity_rejected():
    with pytest.raises(ParityError):
        make(1, 0, 0, 0)
    with pytest.raises(ParityError):
        make(2, 2, 2, 1)


def test_coordinates_must_be_ints():
    with pytest.raises(ParityError):
        make(2.0, 0, 0, 0)


def test_immutable_and_hashable():
    h = make(2, 2, 0, 0)
    with pytest.raises(AttributeError):
        h.coeffs = (4, 2, 0, 0)
    assert hash(h) == hash(make(2, 2, 0, 0))
    assert h != make(2, -2, 0, 0)


# ------------------------------------------------------------------- products

def test_defining_relation_ij_k():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert I * I == -ONE


def test_omega_squared_is_omega_minus_one():
    # omega has trace 1 and norm 1, so omega^2 = omega - 1
    assert (OMEGA * OMEGA).coeffs == (-1, 1, 1, 1)
    assert OMEGA * OMEGA == OMEGA - 1


def test_one_plus_i_times_conjugate():
    h = make(2, 2, 0, 0)
    assert h * h.conjugate() == HurwitzInt.scalar(2)


def test_int_interop():
    assert 2 * OMEGA == make(2, 2, 2, 2)
    assert OMEGA * 2 == 2 * OMEGA
    assert OMEGA + 1 - 1 == OMEGA


# ---------------------------------------------------------- conj, norm, trace

def test_conj_norm_trace_of_omega():
    assert OMEGA.conjugate() == make(1, -1, -1, -1)
    assert OMEGA.trace() == 1
    assert OMEGA.norm() == 1


def test_norm_examples():
    assert make(2, 2, 0, 0).norm() == 2
    assert I.trace() == 0
    assert make(2, 2, 2, 2).norm() == 4


def test_multiplicativity_and_antihomomorphism():
    rng = random.Random(7)
    for _ in range(300):
        x, y = rand_quat(rng), rand_quat(rng)
        assert (x * y).norm() == x.norm() * y.norm()
        assert (x * y).conjugate() == y.conjugate() * x.conjugate()
        assert x + x.conjugate() == HurwitzInt.scalar(x.trace())


# ---------------------------------------------------------------------- units

def test_unit_count():
    assert len(units()) == 24


def test_units_are_exactly_the_norm_one_elements():
    assert set(units()) == set(elements_of_norm(1))
    assert OMEGA in units()


def test_units_closed_under_product_and_inverse():
    us = set(units())
    for u, v in itertools.product(us, repeat=2):
        assert u * v in us
    for u in us:
        assert u * u.conjugate() == ONE  # conjugate is the inverse


# ------------------------------------------------------------------- division

def test_exact_division():
    h = make(2, 2, 0, 0)
    q, r = right_divmod(h, h)
    assert q == ONE and not r


def test_division_tie_break():
    # all nearest candidates are equidistant; lexicographically least
    # doubled coordinates pick quotient 0
    q, r = right_divmod(I, HurwitzInt.scalar(2))
    assert q == make(0, 0, 0, 0)
    assert r == I
    assert r.norm() == 1 < 4


def test_division_contract_five_by_one_plus_i():
    a, b = HurwitzInt.scalar(5), make(2, 2, 0, 0)
    q, r = right_divmod(a, b)
    assert a == q * b + r
    assert r.norm() < 2


def test_division_contract_random():
    rng = random.Random(11)
    for _ in range(500):
        a, b = rand_quat(rng), rand_quat(rng)
        if not b:
            continue
        q, r = right_divmod(a, b)
        assert a == q * b + r
        assert r.norm() < b.norm()
        # deterministic: a second call gives the identical pair
        assert right_divmod(a, b) == (q, r)


def test_division_by_zero():
    with pytest.raises(DivideByZero):
        right_divmod(ONE, make(0, 0, 0, 0))


# ----------------------------------------------------------------------- gcrd

def _right_divides(d, a):
    """Exact right-divisibility: a = x*d for some Hurwitz x."""
    n = d.norm()
    prod = a * d.conjugate()
    if any(c % n for c in prod.coeffs):
        return False
    try:
        x = HurwitzInt(*(c // n for c in prod.coeffs))
    except ParityError:
        return False
    return x * d == a


def test_gcrd_two_and_one_plus_i():
    d = gcrd(HurwitzInt.scalar(2), make(2, 2, 0, 0))
    assert d.norm() == 2
    assert d == canonical_rep(make(2, 2, 0, 0))
    assert _right_divides(d, HurwitzInt.scalar(2))
    assert _right_divides(d, make(2, 2, 0, 0))


def test_gcrd_coprime_integers_is_unit():
    d = gcrd(HurwitzInt.scalar(3), HurwitzInt.scalar(5))
    assert d.norm() == 1


def test_gcrd_self():
    h = make(3, 1, 1, 1)
    assert gcrd(h, h) == canonical_rep(h)


def test_gcrd_zero_zero_rejected():
    zero = make(0, 0, 0, 0)
    with pytest.raises(ZeroInput):
        gcrd(zero, zero)


def test_gcrd_is_greatest_by_exhaustive_divisor_search():
    rng = random.Random(23)
    for _ in range(25):
        a, b = rand_quat(rng, span=2), rand_quat(rng, span=2)
        if not a or not b:
            continue
        g = gcrd(a, b)
        assert _right_divides(g, a) and _right_divides(g, b)
        # every common right divisor with norm up to min(N(a), N(b))
        # right-divides g
        bound = min(a.norm(), b.norm())
        for d in itertools.chain.from_iterable(
            elements_of_norm(n) for n in range(1, bound + 1)
        ):
            if _right_divides(d, a) and _right_divides(d, b):
                assert _right_divides(d, g), (a, b, d, g)


@st.composite
def _hurwitz(draw, span=6):
    """A nonzero Hurwitz integer with doubled coordinates in [-2 span - 1, 2 span + 1]."""
    parity = draw(st.integers(0, 1))
    coords = st.integers(-span, span).map(lambda v: 2 * v + parity)
    h = HurwitzInt(*draw(st.tuples(coords, coords, coords, coords)))
    assume(h)
    return h


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_hurwitz(), _hurwitz())
def test_gcrd_right_divides_both_arguments(a, b):
    g = gcrd(a, b)
    assert _right_divides(g, a) and _right_divides(g, b)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_hurwitz(span=3), _hurwitz(span=3), _hurwitz(span=3))
def test_gcrd_of_common_right_multiples_is_right_divisible_by_the_factor(x, y, g):
    # g is a common right divisor of x g and y g, so the greatest one is a
    # right multiple of it
    assert _right_divides(g, gcrd(x * g, y * g))


# ------------------------------------------------------------- canonical reps

def test_canonical_rep_constant_on_orbit():
    h = make(2, 2, 0, 0)
    images = {canonical_rep(u * h) for u in units()}
    assert images == {canonical_rep(h)}
    assert canonical_rep(h).coeffs == (-2, -2, 0, 0)


def test_canonical_rep_idempotent():
    rng = random.Random(31)
    for _ in range(100):
        h = rand_quat(rng)
        if not h:
            continue
        assert canonical_rep(canonical_rep(h)) == canonical_rep(h)


def test_canonical_rep_of_units_is_lex_least_unit():
    least = make(-2, 0, 0, 0)  # -1
    for u in units():
        assert canonical_rep(u) == least


@pytest.mark.parametrize("coeffs,text", [
    ((0, 0, 0, 0), "0"),
    ((2, 0, 0, 0), "1"),
    ((0, 0, 0, -2), "-k"),
    ((0, -2, 4, 0), "-i+2j"),
    ((-4, 2, 0, 0), "-2+i"),
    ((1, 1, 1, 1), "(1+i+j+k)/2"),
    ((1, -1, 3, -1), "(1-i+3j-k)/2"),
    ((-1, -1, -1, -1), "(-1-i-j-k)/2"),
])
def test_str(coeffs, text):
    assert str(make(*coeffs)) == text


def test_canonical_rep_zero_rejected():
    with pytest.raises(ZeroInput):
        canonical_rep(make(0, 0, 0, 0))


# -------------------------------------------------------------------- primes

def test_is_prime_examples():
    assert is_prime(make(2, 2, 0, 0))          # norm 2
    assert not is_prime(HurwitzInt.scalar(3))  # norm 9
    assert is_prime(make(3, 1, 1, 1))          # norm 3


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))


@pytest.mark.parametrize("n", [
    3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
    3825123056546413051,  # strong pseudoprime to every prime base up to 37
    1024651,  # the Carmichael number 19 * 199 * 271
])
def test_pseudoprimes_are_not_primes(n):
    assert n >= _TRIAL_DIVISION_BOUND
    assert not _is_rational_prime(n)


def test_huge_primes_are_primes():
    for n in (2 ** 61 - 1, 2 ** 89 - 1, 1_000_003):
        assert _is_rational_prime(n)
    assert not _is_rational_prime((2 ** 31 - 1) * 1_000_003)


def test_miller_rabin_agrees_with_trial_division():
    rng = random.Random(131)
    sample = [rng.randrange(10**6, 10**8) | 1 for _ in range(2000)]
    primes = 0
    for n in sample:
        assert _miller_rabin(n) == _trial_division(n), n
        primes += _trial_division(n)
    assert primes > 50


def test_prime_class_requires_prime_norm():
    with pytest.raises(NonPrimeNorm):
        PrimeClass.of(HurwitzInt.scalar(3))


def _enumerate_classes(p):
    """Independent oracle: walk every lattice point of norm p by brute
    force and group into left-unit orbits."""
    lim = isqrt(4 * p)  # A^2 + B^2 + C^2 + D^2 = 4p bounds each coordinate
    sols = [
        t for t in itertools.product(range(-lim, lim + 1), repeat=4)
        if sum(v * v for v in t) == 4 * p
        and len({v & 1 for v in t}) == 1
    ]
    us = [u.coeffs for u in units()]

    def mul(x, y):
        A, B, C, D = x
        E, F, G, H = y
        return ((A * E - B * F - C * G - D * H) // 2,
                (A * F + B * E + C * H - D * G) // 2,
                (A * G - B * H + C * E + D * F) // 2,
                (A * H + B * G - C * F + D * E) // 2)

    seen, reps = set(), set()
    for t in sols:
        if t in seen:
            continue
        orbit = {mul(u, t) for u in us}
        assert len(orbit) == 24
        seen |= orbit
        reps.add(min(orbit))
    assert len(seen) == len(sols)
    return reps


@pytest.mark.parametrize("p,count", [(3, 4), (5, 6), (13, 14)])
def test_primes_of_norm_counts_and_reps(p, count):
    classes = primes_of_norm(p)
    assert len(classes) == count == p + 1
    assert {P.rep.coeffs for P in classes} == _enumerate_classes(p)
    for P in classes:
        assert P.rep.norm() == p
        assert canonical_rep(P.rep) == P.rep


def _sphere_walk(n):
    """Reference: all doubled-coordinate quadruples of norm n (A^2 + B^2 +
    C^2 + D^2 = 4n, equal parity), in lexicographic order, by a walk over
    the whole sphere that knows nothing of units or cones."""
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


def _orbit_minimum_classes(p):
    """Reference: the least element of each left-unit orbit of the norm-p
    solutions, sorted."""
    us = [u.coeffs for u in units()]
    seen, reps = set(), []
    for t in _sphere_walk(p):
        if t in seen:
            continue
        orbit = {_kernels.mul(u, t) for u in us}
        seen |= orbit
        reps.append(min(orbit))
    return sorted(reps)


def test_primes_of_norm_matches_the_orbit_minimum_below_500():
    for p in range(3, 500, 2):
        if _is_rational_prime(p):
            got = [P.rep.coeffs for P in primes_of_norm(p)]
            assert got == _orbit_minimum_classes(p), p


@pytest.mark.parametrize("p", [997, 1999])
def test_primes_of_norm_matches_the_orbit_minimum_at_large_p(p, deadline):
    primes_of_norm.cache_clear()
    with deadline(10):
        got = [P.rep.coeffs for P in primes_of_norm(p)]
    assert got == _orbit_minimum_classes(p)


def test_the_cone_holds_ties_that_canonical_min_resolves():
    p = 101
    cone = list(_unstepped_cone_candidates(p))
    # more candidates than classes, so the canonical_min filter does work
    assert len(cone) > p + 1
    assert cone == sorted(cone)
    for A, B, C, D in cone:
        assert _kernels.norm((A, B, C, D)) == p
        assert -A >= abs(B) + abs(C) + abs(D)
    assert {P.rep.coeffs for P in primes_of_norm(p)} <= set(cone)


def _unstepped_cone_candidates(n):
    """Reference: the quadruples of norm n with -A >= |B| + |C| + |D|, in
    lexicographic order, by a cone walk that visits every B and C and skips
    those whose parity differs from A's."""
    target = 4 * n
    # A^2 >= 2n in the cone, and A = -sqrt(2n) when n = 2k^2
    for A in range(-isqrt(target), -isqrt(2 * n - 1)):
        ra = target - A * A
        lb = min(isqrt(ra), -A)
        for B in range(-lb, lb + 1):
            if (A ^ B) & 1:
                continue
            rb = ra - B * B
            slack_b = -A - abs(B)
            lc = min(isqrt(rb), slack_b)
            for C in range(-lc, lc + 1):
                if (A ^ C) & 1:
                    continue
                rc = rb - C * C
                D = isqrt(rc)
                if D * D != rc or (A ^ D) & 1 or D > slack_b - abs(C):
                    continue
                if D > 0:
                    yield (A, B, C, -D)
                yield (A, B, C, D)


def test_the_parity_stepped_cone_walk_matches_the_unstepped_walk():
    # the walk's canonical reps are the cone points canonical_min keeps;
    # composite n and n = 2k^2, where the cone's tip is A = -sqrt(2n), too
    composite = list(range(1, 301)) + [2 * k * k for k in range(13, 51)] + [4096, 4900]
    for n in odd_primes_up_to(1000) + [4993, 4999] + composite:
        want = [t for t in _unstepped_cone_candidates(n) if _kernels.canonical_min(t) == t]
        assert list(_canonical_reps(n)) == want, n


def test_every_interior_cone_candidate_is_canonical():
    # the walk skips canonical_min strictly inside the cone, where A is the
    # strict least of the 24 first coordinates
    for n in range(1, 500):
        for A, B, C, D in _unstepped_cone_candidates(n):
            if -A > abs(B) + abs(C) + abs(D):
                assert _kernels.canonical_min((A, B, C, D)) == (A, B, C, D), n


@pytest.mark.parametrize("p", [5003, 2 ** 61 - 1])
def test_primes_of_norm_rejects_p_above_its_bound_at_once(p):
    # 2^61 - 1 is prime: its classes could never be enumerated
    with pytest.raises(ScaleLimit):
        primes_of_norm(p)


def test_prime_class_dividing_is_the_norm_p_right_factor():
    for p in (3, 5, 13):
        for P in primes_of_norm(p):
            for Q in (make(2, 2, 0, 0), make(1, 1, 1, 1), make(4, 2, 2, 2)):
                D = PrimeClass.dividing(P.rep * Q, p)
                assert D.rep.norm() == p
                assert canonical_rep(D.rep) == D.rep
                assert right_divmod(P.rep * Q, D.rep)[1] == make(0, 0, 0, 0)


_GCRD_NORM_MESSAGES = {
    (14, 0, 0, 0): "gcrd(HurwitzInt(14, 0, 0, 0), 7) has norm 49, expected 7",
    (2, 0, 0, 0): "gcrd(HurwitzInt(2, 0, 0, 0), 7) has norm 1, expected 7",
    (2, 2, 0, 0): "gcrd(HurwitzInt(2, 2, 0, 0), 7) has norm 1, expected 7",
}


@pytest.mark.parametrize("h", [HurwitzInt.scalar(7), ONE, make(2, 2, 0, 0)])
def test_prime_class_dividing_rejects_a_gcrd_without_norm_p(h):
    # gcrd(7, 7) = 7 has norm 49; gcrd(1, 7) and gcrd(1+i, 7) are units
    with pytest.raises(InternalInvariantViolation) as info:
        PrimeClass.dividing(h, 7)
    assert str(info.value) == _GCRD_NORM_MESSAGES[h.coeffs]


def test_slot_set_constructors_keep_the_dataclass_contract():
    # HurwitzInt and PrimeClass set their slots through the descriptors'
    # setters; the values must behave as the plain constructors' did
    for t in ((1, 1, 1, 1), (-3, 1, -1, 1), (0, 4, -2, 6)):
        fast, slow = HurwitzInt._wrap(t), HurwitzInt(*t)
        assert fast == slow and hash(fast) == hash(slow) and repr(fast) == repr(slow)
        assert str(fast) == str(slow) and fast.coeffs == t
        # one slot, the tuple itself: _wrap keeps the kernel's tuple, and
        # __init__ stores the tuple it checked
        assert fast.coeffs is t and type(slow.coeffs) is tuple
        assert HurwitzInt.__slots__ == ("coeffs",)
        with pytest.raises(AttributeError):
            slow.coeffs = (2, 0, 0, 0)
    for p in (3, 13, 499):
        classes = primes_of_norm(p)
        for P in classes:
            positional = PrimeClass(HurwitzInt(*P.rep.coeffs), p)
            assert positional == P == dataclasses.replace(P)
            assert hash(P) == hash((P.rep, p)) == hash(positional)
            assert tuple(getattr(P, f.name) for f in dataclasses.fields(P)) == (P.rep, p)
            assert repr(P) == f"PrimeClass({P.rep!r}, p={p})"
        # the classes come out sorted by canonical rep, as before
        reps = [P.rep.coeffs for P in classes]
        assert reps == sorted(reps) and len(set(reps)) == p + 1
    P = primes_of_norm(5)[0]
    D = PrimeClass.dividing(P.rep * make(2, 2, 0, 0), 5)
    assert D == PrimeClass(rep=HurwitzInt(*D.rep.coeffs), p=5)
    assert [f.name for f in dataclasses.fields(PrimeClass)] == ["rep", "p"]


def test_slot_set_values_stay_immutable():
    P = primes_of_norm(13)[0]
    h = HurwitzInt._wrap((1, 1, 1, 1))
    with pytest.raises(AttributeError):
        h.coeffs = (3, 1, 1, 1)
    with pytest.raises(AttributeError):
        P.rep.coeffs = (0, 0, 0, 0)
    with pytest.raises(AttributeError, match="immutable"):
        del h.coeffs
    # a deleted slot would leave a broken rep in the process-wide cache
    cached = primes_of_norm(5)[0]
    t = cached.rep.coeffs
    with pytest.raises(AttributeError, match="immutable"):
        del cached.rep.coeffs
    assert primes_of_norm(5)[0] is cached and cached.rep.coeffs is t
    assert hash(cached) == hash((HurwitzInt(*t), 5))
    with pytest.raises(dataclasses.FrozenInstanceError):
        P.p = 17
    with pytest.raises(dataclasses.FrozenInstanceError):
        P.rep = h
    with pytest.raises(dataclasses.FrozenInstanceError):
        del P.p
    assert h == HurwitzInt(1, 1, 1, 1) and P == primes_of_norm(13)[0]


def test_primes_of_norm_rejects_two_and_composites():
    with pytest.raises(UnsupportedPrime):
        primes_of_norm(2)
    with pytest.raises(UnsupportedPrime):
        primes_of_norm(9)


def test_elements_of_norm_matches_brute_force():
    # every equal-parity quadruple in [-12, 12]^4, bucketed by norm: a
    # coordinate of a norm n <= 40 element has square at most 4n < 13^2
    want = {n: [] for n in range(41)}
    for t in itertools.product(range(-12, 13), repeat=4):
        s = sum(v * v for v in t)
        if s % 4 == 0 and s <= 160 and len({v & 1 for v in t}) == 1:
            want[s // 4].append(t)
    for n, quads in want.items():
        assert [h.coeffs for h in elements_of_norm(n)] == sorted(quads), n


def test_elements_of_norm_rejects_a_negative_norm_with_a_typed_error():
    with pytest.raises(DomainError, match="non-negative") as info:
        elements_of_norm(-1)
    assert isinstance(info.value, MetacommuteError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize("n", [2.0, 5.0, "4", None, True, False])
def test_elements_of_norm_rejects_a_norm_that_is_not_an_int(n):
    elements_of_norm(2)  # 2.0 must not be answered from the entry of 2
    with pytest.raises(DomainError, match="non-negative int"):
        elements_of_norm(n)


def test_elements_of_norm_stops_at_the_enumeration_bound():
    # the bound of primes_of_norm and verify --q-max; above it each listing,
    # which the cache keeps, grows with n
    with pytest.raises(ScaleLimit):
        elements_of_norm(_PRIMES_MAX_P + 1)
    with pytest.raises(ScaleLimit):
        elements_of_norm(50_021)


def test_prime_class_accepts_exactly_the_canonical_rep_of_a_prime_norm():
    for p in (2, 3, 7, 13):
        reps = {P.rep for P in primes_of_norm(p)} if p > 2 else {canonical_rep(make(2, 2, 0, 0))}
        for h in elements_of_norm(p):
            if h in reps:
                assert PrimeClass(h, p) == PrimeClass.of(h)
            else:
                with pytest.raises(DomainError, match="not the canonical rep"):
                    PrimeClass(h, p)
    P = primes_of_norm(7)[2]
    bad = [(-P.rep, 7), (make(2, 0, 0, 0), 7), (P.rep, 11), (make(0, 0, 0, 0), 7), (P.rep.coeffs, 7)]
    for rep, p in bad:
        with pytest.raises(DomainError) as info:
            PrimeClass(rep, p)
        assert isinstance(info.value, MetacommuteError) and isinstance(info.value, ValueError)
    for p in (9, 1, 0, -7, 7.0):
        with pytest.raises(NonPrimeNorm):
            PrimeClass(HurwitzInt.scalar(3), p)
    # the constructors that build classes by construction skip the check
    assert PrimeClass._unchecked(-P.rep, 7) != P


def test_elements_of_norm_mass():
    # 24 * (sum of odd divisors of n) lattice points of norm n; uncached,
    # so the test keeps none of the 890,424 elements alive
    for n in range(1, 301):
        odd_divisors = sum(d for d in range(1, n + 1, 2) if n % d == 0)
        assert len(elements_of_norm.__wrapped__(n)) == 24 * odd_divisors, n


def test_elements_of_norm_matches_the_sphere_walk_at_composite_norms():
    # above the brute-force test's n <= 40: composite n, stepped to keep the
    # reference walk short, and every n = 2k^2 up to 450, where a rep of the
    # least |A| sits on the cone's tip A = -sqrt(2n)
    norms = [n for n in range(41, 451, 6) if not _is_rational_prime(n)]
    norms += [2 * k * k for k in range(1, 16)]
    for n in norms:
        got = [h.coeffs for h in elements_of_norm.__wrapped__(n)]
        assert got == list(_sphere_walk(n)), n
