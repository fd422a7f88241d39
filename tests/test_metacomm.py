"""The metacommutation map, its three routes, permutation analytics,
predictions and the order-count formula."""
import copy
import dataclasses
import itertools
import pickle
import random
from math import isqrt

import pytest

from metacommute import geometry, metacomm, modp
from metacommute.errors import (
    CoprimalityError,
    DomainError,
    InternalInvariantViolation,
    ScaleLimit,
    SingularMatrix,
    UnsupportedPrime,
)
from metacommute.geometry import (
    ConicPoint,
    ProjPoint,
    _act,
    conic_points,
    conic_to_prime,
    conic_to_proj,
    pgl2_act,
    proj_table,
    trace_zero_rep,
)
from metacommute.metacomm import (
    MetaQuery,
    Permutation,
    analyze,
    cycle_decomposition,
    meta_conj,
    meta_divide,
    meta_permutation,
    order_counts,
    pgl2_order_census,
    predict,
)
from metacommute.modp import (
    FpMat2,
    QuotQuat,
    TwoSquareRep,
    inv_table,
    legendre,
    phi,
    reduce_mod,
    sqrt_table,
    two_square_rep,
)
from metacommute.quatcore import (
    HurwitzInt,
    PrimeClass,
    _is_rational_prime,
    canonical_rep,
    elements_of_norm,
    make,
    primes_of_norm,
    units,
)
from metacommute.verify import odd_primes_up_to, sweep_queries, verify_oracle
from test_modp import quat_mul

ONE_PLUS_I = make(2, 2, 0, 0)
TWO_PLUS_3I = make(4, 6, 0, 0)


def images_of(p, Q):
    return meta_permutation(MetaQuery.create(p, Q)).images


# ------------------------------------------------------------------ queries

def test_central_flag_matches_the_reduction_on_the_sweep():
    for p, Q in sweep_queries(13, 13):
        assert MetaQuery.create(p, Q).central == (reduce_mod(Q, p).coords[1:] == (0, 0, 0))


def _seeded_queries(p, rng, count=60):
    """Seeded Q with N(Q) prime to p whose doubled i, j, k coordinates are
    multiples of p, of either sign, except for at most one of them."""
    out = []
    while len(out) < count:
        parity = rng.randint(0, 1)
        A = 2 * rng.randint(-9, 9) + parity
        if A % p == 0:
            continue  # N(Q) = A^2/4 mod p when B, C, D vanish mod p
        odd_one_out = len(out) % 4  # 3: none, so Q mod p is central
        ijk = []
        for slot in range(3):
            if slot == odd_one_out:
                ijk.append(2 * rng.randint(-20, 20) + parity)
            else:
                # p * k has the parity of k, so k matches A's parity
                ijk.append(p * (2 * rng.randint(-3, 3) + parity))
        Q = HurwitzInt(A, *ijk)
        if Q.norm() % p:
            out.append(Q)
    return out


@pytest.mark.parametrize("p", [101, 499])
def test_central_flag_matches_the_reduction_at_large_p(p):
    queries = _seeded_queries(p, random.Random(p))
    # the sample holds a central Q with a negative multiple of p among its coordinates
    coords = [Q.coeffs for Q in queries]
    assert any(B < 0 and B % p == C % p == D % p == 0 for _, B, C, D in coords)
    centrals = 0
    for Q in queries:
        central = MetaQuery.create(p, Q).central
        assert central == (reduce_mod(Q, p).coords[1:] == (0, 0, 0))
        centrals += central
    assert 0 < centrals < len(queries)


def test_query_fields():
    query = MetaQuery.create(3, TWO_PLUS_3I)
    assert query.q == 13
    assert query.central  # 3i vanishes mod 3
    assert not MetaQuery.create(3, ONE_PLUS_I).central


def test_query_coprimality():
    with pytest.raises(CoprimalityError):
        MetaQuery.create(3, make(0, 6, 0, 0))  # norm 9
    with pytest.raises(CoprimalityError):
        meta_divide(PrimeClass.of(make(2, 2, 2, 0)), HurwitzInt.scalar(3))
    with pytest.raises(CoprimalityError):
        meta_conj(PrimeClass.of(make(2, 2, 2, 0)), HurwitzInt.scalar(6))


def test_meta_conj_rejects_a_bad_modulus_before_coprimality():
    # N(Q) shares a factor with p in both cases, but the odd-prime guard in
    # trace_zero_rep runs before the coprimality check
    two = PrimeClass.of(ONE_PLUS_I)
    assert two.p == 2
    with pytest.raises(UnsupportedPrime):
        meta_conj(two, ONE_PLUS_I)
    nine = PrimeClass._unchecked(HurwitzInt.scalar(3), 9)
    with pytest.raises(UnsupportedPrime):
        meta_conj(nine, make(2, 2, 2, 0))  # norm 3


def test_meta_conj_checks_the_class_before_the_query():
    # a class whose rep does not have norm p fails trace_zero_rep's conic
    # check whatever Q is; a well-formed class still meets the coprimality
    # check on a Q whose norm p divides
    bad = PrimeClass._unchecked(HurwitzInt.scalar(2), 13)
    for Q in (make(6, 4, 0, 0), HurwitzInt.scalar(13), ONE_PLUS_I):  # norms 13, 169, 2
        with pytest.raises(InternalInvariantViolation):
            meta_conj(bad, Q)
    good = primes_of_norm(13)[0]
    with pytest.raises(CoprimalityError):
        meta_conj(good, make(6, 4, 0, 0))


# ------------------------------------------------------------- the two routes

def test_divide_and_conj_agree_p3():
    for P in primes_of_norm(3):
        assert meta_divide(P, ONE_PLUS_I) == meta_conj(P, ONE_PLUS_I)


def test_unit_q_is_unit_conjugation():
    # for a unit u, PQ = P u, and the partner class is u^-1 P u = conj(u) P u
    for p in (3, 5):
        for P in primes_of_norm(p):
            for u in units():
                want = PrimeClass.of(u.conjugate() * P.rep * u)
                assert meta_divide(P, u) == want
                assert meta_conj(P, u) == want


def test_q_one_is_identity():
    one = HurwitzInt.scalar(1)
    for P in primes_of_norm(5):
        assert meta_divide(P, one) == P
        assert meta_conj(P, one) == P


def test_central_q_fixes_every_class():
    # 2+3i reduces to the scalar 2 mod 3
    assert reduce_mod(TWO_PLUS_3I, 3).coords[1:] == (0, 0, 0)
    for P in primes_of_norm(3):
        assert meta_divide(P, TWO_PLUS_3I) == P
        assert meta_conj(P, TWO_PLUS_3I) == P


def reference_meta_conj(P, Q):
    """The conjugation route on residue 4-tuples, as it was written before it
    moved to ints, with the test-side Hamilton product."""
    p = P.p
    c = trace_zero_rep(P)
    qbar = reduce_mod(Q, p).coords
    qbar_conj = (qbar[0], -qbar[1], -qbar[2], -qbar[3])
    t2 = quat_mul(p, quat_mul(p, qbar_conj, (0, c.x, c.y, c.z)), qbar)
    assert t2[0] == 0 and any(t2)
    return conic_to_prime(ConicPoint.normalized(p, *t2[1:]))


def test_meta_conj_matches_the_reference_on_the_sweep():
    count = 0
    for p, Q in sweep_queries(13, 13):
        for P in primes_of_norm(p):
            assert meta_conj(P, Q) == reference_meta_conj(P, Q), (P, Q)
            count += 1
    assert count == 36576


@pytest.mark.parametrize("p", [101, 499])
def test_meta_conj_matches_the_reference_at_large_p(p):
    rng = random.Random(p)
    classes = primes_of_norm(p)
    queries = 0
    while queries < 60:
        parity = rng.randrange(2)
        Q = HurwitzInt(*(2 * rng.randrange(-30, 31) + parity for _ in range(4)))
        if Q.norm() % p == 0:
            continue
        queries += 1
        for P in rng.sample(classes, 20):
            assert meta_conj(P, Q) == reference_meta_conj(P, Q), (P, Q)


def test_meta_conj_rejects_a_lost_trace_zero_form(monkeypatch):
    # conjugating the zero vector gives zero, which names no conic point
    P = primes_of_norm(5)[0]
    monkeypatch.setattr(metacomm, "trace_zero_rep", lambda P: ConicPoint(5, 0, 0, 0))
    with pytest.raises(InternalInvariantViolation):
        meta_conj(P, ONE_PLUS_I)


def test_the_routes_build_no_quotient_algebra_value(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("a route built a QuotQuat")

    monkeypatch.setattr(QuotQuat, "__init__", refuse)
    for P in primes_of_norm(13):
        assert trace_zero_rep.__wrapped__(P) == trace_zero_rep(P)
    for p, Q in sweep_queries(13, 13):
        images = meta_permutation(MetaQuery.create(p, Q)).images
        index = {c: i for i, c in enumerate(conic_points(p))}
        for P in primes_of_norm(p):
            assert images[index[trace_zero_rep(P)]] == index[trace_zero_rep(meta_conj(P, Q))]
    assert verify_oracle(5, 5).passed


def test_product_identity_qprime():
    # Q' = P Q conj(P') / p is a Hurwitz integer of norm q with P Q = Q' P'
    for p, q in ((3, 5), (5, 2), (7, 3)):
        for P in primes_of_norm(p):
            for Q in elements_of_norm(q)[:24]:
                p2 = meta_divide(P, Q)
                pq = P.rep * Q
                num = pq * p2.rep.conjugate()
                assert all(c % p == 0 for c in num.coeffs)
                qprime = HurwitzInt(*(c // p for c in num.coeffs))
                assert qprime.norm() == q
                assert qprime * p2.rep == pq


# ---------------------------------------------------------------- permutation

def test_permutation_p3_one_plus_i_is_a_four_cycle():
    perm = meta_permutation(MetaQuery.create(3, ONE_PLUS_I))
    report = analyze(perm)
    assert report.fixed_count == 0
    assert report.cycle_lengths == (4,)
    assert report.sign == -1
    assert perm.ground == conic_points(3)


def test_permutation_p3_central_is_identity():
    assert images_of(3, TWO_PLUS_3I) == (0, 1, 2, 3)


def test_permutation_p5_one_plus_i():
    report = analyze(meta_permutation(MetaQuery.create(5, ONE_PLUS_I)))
    assert report.fixed_count == 2
    assert report.cycle_lengths == (4,)
    assert report.sign == -1


def test_permutation_matches_divide_route():
    for p in (3, 5, 7):
        ground = conic_points(p)
        pos = {c: i for i, c in enumerate(ground)}
        for Q in (ONE_PLUS_I, make(1, 1, 1, 1), make(3, 1, 1, 1)):
            if Q.norm() % p == 0:
                continue
            perm = meta_permutation(MetaQuery.create(p, Q))
            for P in primes_of_norm(p):
                i = pos[trace_zero_rep(P)]
                assert conic_to_prime(ground[perm.images[i]]) == meta_divide(P, Q)


def _four_squares(n):
    """Some (a, b, c, d) with a^2 + b^2 + c^2 + d^2 = n."""
    for a in range(isqrt(n), -1, -1):
        for b in range(isqrt(n - a * a), -1, -1):
            for c in range(isqrt(n - a * a - b * b), -1, -1):
                r = n - a * a - b * b - c * c
                if isqrt(r) ** 2 == r:
                    return a, b, c, isqrt(r)


@pytest.mark.parametrize("p", [8209, 99991])
def test_routes_agree_above_the_old_cap(p):
    # the gcrd with p starts from the doubled coordinate 2p, above the
    # +-2^14 that bounds a CLI literal
    P = PrimeClass.of(HurwitzInt(*(2 * v for v in _four_squares(p))))
    ground = conic_points(p)
    i = ground.index(trace_zero_rep(P))
    for Q in (ONE_PLUS_I, make(1, 1, 1, 1), make(3, 1, 1, 1), make(5, -3, 7, 1)):
        perm = meta_permutation(MetaQuery.create(p, Q))
        want = conic_to_prime(ground[perm.images[i]])
        assert want.p == p
        assert meta_divide(P, Q) == meta_conj(P, Q) == want, Q


def test_tables_stop_above_the_largest_supported_p():
    # 100,003 is the least prime above _P_MAX: every route that builds an
    # O(p) table refuses it before allocating, the table-free routes run
    p = 100_003
    Q = make(3, 1, 1, 1)
    for build in (sqrt_table, inv_table, conic_points, two_square_rep, proj_table,
                  order_counts):
        with pytest.raises(ScaleLimit):
            build(p)
    with pytest.raises(ScaleLimit):
        meta_permutation(MetaQuery.create(p, Q))
    P = PrimeClass.of(HurwitzInt(*(2 * v for v in _four_squares(p))))
    assert P.p == p and meta_divide(P, Q) == meta_conj(P, Q)


def test_values_pickle_and_copy():
    # __reduce__ rebuilds a HurwitzInt through __init__, so every value that
    # holds one pickles and copies too
    h = make(1, -3, 5, 7)
    P = primes_of_norm(13)[2]
    point = trace_zero_rep(P)
    query = MetaQuery.create(13, make(2, 2, 0, 0))
    for value in (h, P, point, query):
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                      copy.deepcopy(value)):
            assert clone == value and type(clone) is type(value)
    assert pickle.loads(pickle.dumps(h)).coeffs == (1, -3, 5, 7)
    assert dataclasses.astuple(P) == (P.rep, P.p)


def test_right_action_composition():
    # acting by Q1 then Q2 equals acting by Q1*Q2 (composite norms included)
    for p in (3, 5):
        for Q1 in (ONE_PLUS_I, make(3, 1, 1, 1)):
            for Q2 in (make(1, 1, 1, 1), TWO_PLUS_3I):
                prod = Q1 * Q2
                if Q1.norm() % p == 0 or Q2.norm() % p == 0:
                    continue
                img1 = images_of(p, Q1)
                img2 = images_of(p, Q2)
                combined = tuple(img2[i] for i in img1)
                assert combined == images_of(p, prod)


def test_permutation_for_composite_norm_exists():
    # the map and its predictions only need coprimality; norm 4 is fine at p = 3
    query = MetaQuery.create(3, make(2, 2, 2, 2))
    perm = meta_permutation(query)
    assert sorted(perm.images) == [0, 1, 2, 3]
    report = analyze(perm)
    assert predict(query) == (report.sign, report.fixed_count) == (1, 1)


def reference_images(p, Q):
    """The projective route one point at a time, through the per-point API."""
    rep = two_square_rep(p)
    A = phi(reduce_mod(Q, p), rep)
    proj = [conic_to_proj(c, rep) for c in conic_points(p)]
    index_of = {pt: i for i, pt in enumerate(proj)}
    return tuple(index_of[pgl2_act(pt, A)] for pt in proj)


def test_table_route_matches_reference_on_the_sweep():
    count = 0
    for p, Q in sweep_queries(13, 13):
        assert images_of(p, Q) == reference_images(p, Q), (p, Q)
        count += 1
    assert count == 4344


@pytest.mark.parametrize("p", [101, 499])
def test_table_route_matches_reference_at_large_p(p):
    keys, _ = proj_table(p)
    assert sorted(keys) == list(range(p + 1))  # <0,1> has key p
    assert all(x * inv_table(p)[x] % p == 1 for x in range(1, p))
    rng = random.Random(p)
    for _ in range(6):
        parity = rng.randrange(2)
        Q = HurwitzInt(*(2 * rng.randrange(-30, 31) + parity for _ in range(4)))
        if Q.norm() % p == 0:
            continue
        assert images_of(p, Q) == reference_images(p, Q), Q


@pytest.mark.parametrize("p", [5, 7])
def test_shared_action_is_pgl2_act_on_every_key(p):
    # the census path: keys = positions = range(p + 1), <1,m> is m, <0,1> is p
    points = [ProjPoint(p, 1, m) for m in range(p)] + [ProjPoint(p, 0, 1)]
    count = 0
    for matrix in itertools.product(range(p), repeat=4):
        A = FpMat2(p, *matrix)
        if A.det() == 0:
            continue
        images = _act(p, matrix, range(p + 1), range(p + 1))
        expected = tuple(pt.y if pt.x else p
                         for pt in (pgl2_act(pt, A) for pt in points))
        assert images == expected, matrix
        count += 1
    assert count == (p * p - 1) * (p * p - p)  # the order of GL_2(F_p)


def test_cold_and_warm_table_give_identical_permutations():
    query = MetaQuery.create(11, make(3, 1, 1, 1))
    proj_table.cache_clear()
    cold = meta_permutation(query)
    assert proj_table.cache_info().misses == 1
    warm = meta_permutation(query)
    assert proj_table.cache_info().hits == 1
    assert cold == warm
    assert cold.images == reference_images(11, query.Q)


def _key_of(m):
    """The int key of the bottom row (a3, a4) of a rank-one matrix."""
    return m.a4 * pow(m.a3, -1, m.p) % m.p if m.a3 else m.p


def test_proj_table_keys_match_the_phi_matrices_below_500():
    for p in odd_primes_up_to(499):
        rep = two_square_rep(p)
        a, b = rep.a, rep.b
        keys = []
        for c in conic_points(p):
            x, y, z = c.x, c.y, c.z
            m = phi(QuotQuat(p, 0, x, y, z), rep)
            # the splitting formula written out, so a fault that phi shares
            # with the key build still shows
            assert m == FpMat2(p, x * a + z * b, y + z * a - x * b,
                               -y + z * a - x * b, -x * a - z * b), (p, c)
            keys.append(_key_of(m))
        table_keys, _ = proj_table(p)
        assert table_keys == tuple(keys), p


def test_key_build_rejects_a_rep_that_does_not_split(monkeypatch):
    # 0^2 + 0^2 is not -1 mod p, so phi of a conic point is not rank one
    bad = TwoSquareRep(13, 0, 0)
    with pytest.raises(InternalInvariantViolation):
        conic_to_proj(conic_points(13)[0], bad)
    monkeypatch.setattr(geometry, "two_square_rep", lambda p: bad)
    with pytest.raises(InternalInvariantViolation):
        proj_table.__wrapped__(13)


def test_table_route_rejects_a_singular_matrix():
    # bypasses MetaQuery.create, whose coprimality check rules this out
    query = MetaQuery(p=3, Q=make(0, 6, 0, 0), q=9, central=True)
    with pytest.raises(SingularMatrix):
        meta_permutation(query)


# ------------------------------------------------------------------ analytics

def test_cycle_decomposition():
    assert cycle_decomposition((1, 0, 3, 2)) == [[0, 1], [2, 3]]
    assert cycle_decomposition((0, 1, 2, 3)) == [[0], [1], [2], [3]]
    assert cycle_decomposition((1, 3, 0, 2)) == [[0, 1, 3, 2]]


# (1.0, 0) passes Permutation's set test; the walk must not fail with a bare
# TypeError, nor pass a float that is fixed (0.0, 1) or closes a cycle (1, 0.0)
@pytest.mark.parametrize("images", [(1, 1, 0), (0, 0), (1, 2, 1), (2, 0, 0), (5, 0), (0, 2),
                                    (1.0, 0), (0.0, 1), (1, 0.0)])
def test_cycle_decomposition_rejects_a_non_bijection(images, deadline):
    with deadline(0.5), pytest.raises(InternalInvariantViolation):
        cycle_decomposition(images)


def test_analyze_rejects_an_image_that_only_equals_an_int():
    for images in (1.0, 0), (0.0, 1), (1, 0.0):
        with pytest.raises(InternalInvariantViolation, match="^images are not all ints$"):
            analyze(Permutation(1, images))


def test_analyze_identity():
    perm = Permutation(p=3, images=(0, 1, 2, 3))
    report = analyze(perm)
    assert (report.sign, report.fixed_count) == (1, 4)
    assert report.cycle_lengths == ()
    assert report.uniform_length


def test_analyze_four_cycle():
    perm = Permutation(p=3, images=(1, 3, 0, 2))
    report = analyze(perm)
    assert (report.sign, report.fixed_count) == (-1, 0)
    assert report.cycle_lengths == (4,)


def test_analyze_two_fixed_plus_four_cycle():
    perm = Permutation(p=5, images=(0, 1, 3, 4, 5, 2))
    report = analyze(perm)
    assert (report.sign, report.fixed_count) == (-1, 2)
    assert report.cycle_lengths == (4,)
    assert report.uniform_length


def test_permutation_rejects_non_bijection():
    with pytest.raises(InternalInvariantViolation):
        Permutation(p=3, images=(0, 0, 1, 2))
    with pytest.raises(InternalInvariantViolation):
        Permutation(p=3, images=(0, 1, 2))  # p+1 = 4 points, 3 images
    for images in (
        (0, 1, 2, 3, 4, 4),  # a duplicate image
        (1, 2, 3, 4, 0),  # p images
        (0, 1, 2, 3, 4, 5, 6),  # p + 2 images
        (0, 1, 2, 3, 4, 6),  # an image equal to p + 1, with the length right
        (0, 1, 2, 3, 4, -1),  # a negative image
    ):
        with pytest.raises(InternalInvariantViolation, match="not a bijection"):
            Permutation(p=5, images=images)


def _reference_report(images):
    """analyze's report, read off the full cycle_decomposition."""
    cycles = cycle_decomposition(images)
    lengths = tuple(sorted(len(c) for c in cycles if len(c) > 1))
    evens = sum(1 for c in cycles if len(c) % 2 == 0)
    return metacomm.PermReport(
        sign=(-1) ** evens,
        fixed_count=sum(1 for c in cycles if len(c) == 1),
        cycle_lengths=lengths,
        uniform_length=len(set(lengths)) <= 1,
    )


def _seeded_permutations():
    rng = random.Random(17)
    for n in (1, 2, 3, 4, 5, 8, 31, 32, 308, 500):
        yield tuple(range(n))  # the identity
        yield tuple(range(1, n)) + (0,)  # one n-cycle
        # an involution: a random number of disjoint transpositions
        points = list(range(n))
        rng.shuffle(points)
        images = list(range(n))
        for k in range(0, rng.randrange(n + 1) // 2 * 2, 2):
            x, y = points[k], points[k + 1]
            images[x], images[y] = y, x
        yield tuple(images)
        for _ in range(5):
            rng.shuffle(points)
            yield tuple(points)


def test_analyze_matches_the_cycle_decomposition():
    count = 0
    for images in _seeded_permutations():
        perm = Permutation(p=len(images) - 1, images=images)
        assert analyze(perm) == _reference_report(images), images
        count += 1
    assert count == 80


def test_report_invariants_over_sample():
    # fixed_count plus the non-fixed cycle lengths always account for all
    # p+1 points, and the sign is the parity of the even-length cycle count
    for p in (3, 5, 7, 11):
        for Q in (ONE_PLUS_I, TWO_PLUS_3I, make(1, 1, 1, 1), make(3, 1, 1, 1)):
            if Q.norm() % p == 0:
                continue
            report = analyze(meta_permutation(MetaQuery.create(p, Q)))
            assert report.fixed_count + sum(report.cycle_lengths) == p + 1
            evens = sum(1 for n in report.cycle_lengths if n % 2 == 0)
            assert report.sign == (-1) ** evens


# ---------------------------------------------------------------- predictions

def test_predict_p3_q2():
    sign, fixed = predict(MetaQuery.create(3, ONE_PLUS_I))
    assert sign == legendre(2, 3) == -1
    assert fixed == 0  # tr^2 - 4q = -4 = 2 mod 3, a non-residue


def test_predict_central():
    sign, fixed = predict(MetaQuery.create(3, TWO_PLUS_3I))
    assert fixed == 4  # p + 1
    assert sign == legendre(13, 3) == 1


def test_predict_p5_q2():
    assert predict(MetaQuery.create(5, ONE_PLUS_I)) == (-1, 2)


def test_a_query_runs_the_odd_prime_guard_once(monkeypatch):
    # MetaQuery.create checks p; predict's two symbols do not check it again
    guard = metacomm._require_odd_prime
    calls = []

    def counted(p):
        calls.append(p)
        guard(p)

    monkeypatch.setattr(metacomm, "_require_odd_prime", counted)
    monkeypatch.setattr(modp, "_require_odd_prime", counted)
    query = MetaQuery.create(5, ONE_PLUS_I)
    assert not query.central
    assert predict(query) == (-1, 2)
    assert calls == [5]
    # the public symbol keeps its guard
    with pytest.raises(UnsupportedPrime):
        legendre(2, 9)
    assert calls == [5, 9]


@pytest.mark.parametrize("call", [
    lambda: metacomm._require_odd_prime(7.0),
    lambda: MetaQuery.create(7.0, ONE_PLUS_I),
    lambda: primes_of_norm(3.0),
    lambda: pgl2_order_census(5.0),
    lambda: legendre(2, 7.0),
    lambda: reduce_mod(ONE_PLUS_I, 7.0),
    lambda: order_counts(7.0),
    lambda: order_counts("7"),
    lambda: order_counts(True),
    # the size bound runs before the guard and must not compare a str with an int
    lambda: primes_of_norm("7"),
    lambda: conic_points("7"),
    lambda: two_square_rep("7"),
    lambda: inv_table("7"),
], ids=["guard", "MetaQuery.create", "primes_of_norm", "pgl2_order_census",
        "legendre", "reduce_mod", "order_count", "order_count_str", "order_counts_bool",
        "primes_of_norm_str", "conic_points_str", "two_square_rep_str", "inv_table_str"])
def test_a_p_that_is_not_an_int_is_an_unsupported_prime(call):
    primes_of_norm(3)  # 3.0 must not be answered from the entry of 3
    with pytest.raises(UnsupportedPrime, match="odd rational prime"):
        call()


@pytest.mark.parametrize("n", [1.5, 3.0, "3", True, None])
def test_legendre_rejects_an_n_that_is_not_an_int(n):
    # True would otherwise be read as 1, a float reach pow and a str reach %
    with pytest.raises(DomainError, match="legendre is defined for an int n"):
        legendre(n, 7)
    # the guard on p runs first
    with pytest.raises(UnsupportedPrime):
        legendre(n, 9)


def test_predict_matches_analyze_for_every_composite_norm():
    # the permutation is the action of Q's image in the projective group, so
    # the sign and fixed-point predictions need only N(Q) coprime to p
    central = MetaQuery.create(3, make(4, 0, 0, 0))  # Q = 2 fixes all 4 points
    assert predict(central) == (1, 4)
    count = 0
    for p in odd_primes_up_to(13):
        for n in range(4, 31):
            if n % p == 0 or _is_rational_prime(n):
                continue
            for Q in elements_of_norm(n):
                query = MetaQuery.create(p, Q)
                report = analyze(meta_permutation(query))
                assert predict(query) == (report.sign, report.fixed_count), (p, Q)
                count += 1
    # a scope that skipped a norm or a p would show here
    assert count == 21_768


# -------------------------------------------------------------- order counts

def test_order_count_examples():
    # order 2 gathers the involutions of the subgroups of order p+1 (f = 0)
    # and of order p-1 (f = 2); order p holds the p+1 subgroups with f = 1
    assert order_counts(3) == {1: 1, 2: 9, 3: 8, 4: 6}


def test_order_counts_at_a_huge_p_is_a_scale_limit_at_once(deadline):
    # the bound runs before the primality test and before any loop over p
    with deadline(0.5), pytest.raises(ScaleLimit):
        order_counts(2**61 - 1)


FROZEN_CENSUS = {
    3: {1: 1, 2: 9, 3: 8, 4: 6},
    5: {1: 1, 2: 25, 3: 20, 4: 30, 5: 24, 6: 20},
    7: {1: 1, 2: 49, 3: 56, 4: 42, 6: 56, 7: 48, 8: 84},
}


@pytest.mark.parametrize("p", sorted(FROZEN_CENSUS))
def test_census_frozen_and_matches_formula(p):
    census = pgl2_order_census(p)
    assert census == FROZEN_CENSUS[p]
    assert sum(census.values()) == p * (p - 1) * (p + 1)
    table = order_counts(p)
    for k in range(2, p + 2):
        assert census.get(k, 0) == table.get(k, 0)


@pytest.mark.parametrize("broken", [
    lambda p, matrix, keys, pos: (0,) * len(keys),  # not a bijection
    lambda p, matrix, keys, pos: tuple(keys),  # every element the identity
])
def test_census_fails_with_a_broken_action(monkeypatch, deadline, broken):
    monkeypatch.setattr(metacomm, "_act", broken)
    with deadline(1):
        try:
            census = pgl2_order_census(5)
        except InternalInvariantViolation:
            return
    assert census != FROZEN_CENSUS[5]


def test_census_scale_limit():
    with pytest.raises(ScaleLimit):
        pgl2_order_census(17)
