"""Conic points, the prime-class bijection, the P^1 identification and the
right standard projective action."""
import dataclasses
import itertools
import random

import pytest

from metacommute import geometry
from metacommute.errors import (
    DomainError,
    InternalInvariantViolation,
    MetacommuteError,
    ModulusMismatch,
    ParityError,
    SingularMatrix,
    UnsupportedPrime,
    ZeroInput,
)
from metacommute.geometry import (
    ConicPoint,
    _conjugate,
    ProjPoint,
    conic_points,
    conic_to_prime,
    conic_to_proj,
    pgl2_act,
    trace_zero_rep,
)
from metacommute.metacomm import MetaQuery, meta_permutation
from metacommute.modp import (
    FpMat2,
    QuotQuat,
    _phi_inverse,
    inv_table,
    phi,
    reduce_mod,
    two_square_rep,
)
from metacommute.quatcore import (
    _CACHED_TABLES,
    HurwitzInt,
    PrimeClass,
    elements_of_norm,
    make,
    primes_of_norm,
)
from metacommute.verify import odd_primes_up_to
from test_modp import mat_mul, quat_mul, quat_norm

ODD_PRIMES = (3, 5, 7, 11, 13)


def _brute_force_conic(p):
    """Oracle: scan every nonzero triple in F_p^3 and normalize."""
    pts = set()
    for x, y, z in itertools.product(range(p), repeat=3):
        if (x, y, z) == (0, 0, 0) or (x * x + y * y + z * z) % p:
            continue
        lead = next(v for v in (x, y, z) if v)
        inv = pow(lead, -1, p)
        pts.add(((x * inv) % p, (y * inv) % p, (z * inv) % p))
    return sorted(pts)


# -------------------------------------------------------------------- conic

def test_conic_points_p3_frozen():
    assert [(c.x, c.y, c.z) for c in conic_points(3)] == [
        (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)
    ]


@pytest.mark.parametrize("p", ODD_PRIMES + (17, 53))
def test_conic_points_against_brute_force(p):
    pts = conic_points(p)
    assert len(pts) == p + 1
    assert [(c.x, c.y, c.z) for c in pts] == _brute_force_conic(p)
    assert list(pts) == sorted(pts)


def _quadratic_scan_conic(p):
    """Reference: the O(p^2) scan of (1,y,z) over all y, z and of (0,1,z)
    over all z, then sorted."""
    squares = [z * z % p for z in range(p)]
    pts = []
    for y in range(p):
        want = (-1 - y * y) % p  # 1 + y^2 + z^2 = 0
        pts += [ConicPoint(p, 1, y, z) for z, s in enumerate(squares) if s == want]
    pts += [ConicPoint(p, 0, 1, z) for z, s in enumerate(squares) if s == p - 1]
    return tuple(sorted(pts))


def test_conic_points_match_the_quadratic_scan_below_1000():
    for p in odd_primes_up_to(999):
        assert conic_points(p) == _quadratic_scan_conic(p), p


def test_slot_set_conic_points_keep_the_dataclass_contract():
    # ConicPoint sets its slots through the descriptors' setters; the points
    # must behave as the plain dataclass constructor's did
    for p in (3, 13, 499):
        pts = conic_points(p)
        for c in pts:
            assert c == ConicPoint(p=c.p, x=c.x, y=c.y, z=c.z) == dataclasses.replace(c)
            assert c == ConicPoint.normalized(p, c.x, c.y, c.z)
            assert hash(c) == hash((p, c.x, c.y, c.z))
            assert dataclasses.astuple(c) == (p, c.x, c.y, c.z)
            assert repr(c) == f"ConicPoint(p={p}, x={c.x}, y={c.y}, z={c.z})"
        # order compares the field tuples, and the build is sorted
        assert list(pts) == sorted(pts, key=dataclasses.astuple)
        assert all(a < b for a, b in zip(pts, pts[1:]))
    c = conic_points(13)[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.x = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        del c.z
    assert c == conic_points(13)[0]


def test_conic_rejects_p_two():
    with pytest.raises(UnsupportedPrime):
        conic_points(2)


def test_conic_point_normalization_and_validation():
    c = ConicPoint.normalized(3, 2, 1, 1)  # scales to (1, 2, 2)
    assert (c.x, c.y, c.z) == (1, 2, 2)
    assert str(c) == "1:2:2"
    with pytest.raises(ValueError):
        ConicPoint.normalized(3, 0, 0, 0)
    with pytest.raises(ValueError):
        ConicPoint.normalized(3, 1, 0, 0)  # not on the conic


def test_normalized_points_raise_typed_errors():
    # each is a MetacommuteError and still a ValueError
    for call, error in (
        (lambda: ConicPoint.normalized(3, 0, 3, -6), ZeroInput),
        (lambda: ConicPoint.normalized(5, 1, 0, 0), DomainError),
        (lambda: ProjPoint.normalized(7, 7, 0), ZeroInput),
    ):
        with pytest.raises(error) as info:
            call()
        assert isinstance(info.value, MetacommuteError) and isinstance(info.value, ValueError)


# --------------------------------------------------------- class <-> conic

def test_trace_zero_rep_example():
    # class of 1+i+j at p=3: t = k(1+i+j) = -i+j+k, normalized (1,2,2)
    P = PrimeClass.of(make(2, 2, 2, 0))
    c = trace_zero_rep(P)
    assert (c.x, c.y, c.z) == (1, 2, 2)


def test_trace_zero_point_is_killed_by_conjugate():
    # t lies in the reduced left ideal: t * conj(P) = 0 mod p
    for p in ODD_PRIMES:
        for P in primes_of_norm(p):
            c = trace_zero_rep(P)
            t = (0, c.x, c.y, c.z)
            assert quat_norm(p, t) == 0
            assert quat_mul(p, t, reduce_mod(P.rep.conjugate(), p).coords) == (0, 0, 0, 0)


def _reference_trace_zero_rep(P):
    """Reference: the trace combination on residue 4-tuples. With pbar the
    class mod p, tr(pbar) * (e pbar) - tr(e pbar) * pbar lies in the left
    ideal and has trace 0; pbar itself does when its trace is 0."""
    p = P.p
    pbar = reduce_mod(P.rep, p).coords
    tr0 = 2 * pbar[0] % p
    t = pbar
    if tr0:
        for e in ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
            v = quat_mul(p, e, pbar)
            t = tuple((tr0 * x - 2 * v[0] * y) % p for x, y in zip(v, pbar))
            if any(t):
                break
    assert t[0] == 0 and quat_norm(p, t) == 0
    return ConicPoint.normalized(p, *t[1:])


def test_trace_zero_rep_matches_the_quotient_algebra_reference_below_500():
    for p in odd_primes_up_to(499):
        for P in primes_of_norm(p):
            assert trace_zero_rep(P) == _reference_trace_zero_rep(P), P


@pytest.mark.parametrize("t", [(0, 0, 0), (1, 0, 0)], ids=["zero", "off-conic"])
def test_trace_zero_rep_rejects_a_point_off_the_conic(monkeypatch, t):
    monkeypatch.setattr(geometry, "_conjugate", lambda p, h, x, y, z: t)
    with pytest.raises(InternalInvariantViolation):
        trace_zero_rep.__wrapped__(primes_of_norm(13)[0])


def test_conjugate_is_the_doubled_conjugation_of_the_value_types():
    # conj(H) T H for H = h/2 has doubled coordinates D; conj(h) t h is 4
    # times that quaternion, so its coordinates are 2 D
    rng = random.Random(73)
    for p in ODD_PRIMES + (499,):
        for _ in range(100):
            parity = rng.randrange(2)
            h = tuple(2 * rng.randrange(-20, 21) + parity for _ in range(4))
            x, y, z = (rng.randrange(p) for _ in range(3))
            H = HurwitzInt(*h)
            D = H.conjugate() * HurwitzInt(0, 2 * x, 2 * y, 2 * z) * H
            assert D.coeffs[0] == 0
            assert _conjugate(p, h, x, y, z) == tuple(2 * v % p for v in D.coeffs[1:])


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_trace_zero_rep_bijection(p):
    classes = primes_of_norm(p)
    points = [trace_zero_rep(P) for P in classes]
    assert sorted(points) == list(conic_points(p))


def test_p3_bijection_frozen():
    got = {P.rep.coeffs: (trace_zero_rep(P).x, trace_zero_rep(P).y, trace_zero_rep(P).z)
           for P in primes_of_norm(3)}
    assert got == {
        (-3, -1, -1, -1): (1, 1, 1),
        (-3, -1, -1, 1): (1, 1, 2),
        (-3, -1, 1, -1): (1, 2, 1),
        (-3, -1, 1, 1): (1, 2, 2),
    }


def test_conic_to_prime_example():
    c = ConicPoint.normalized(3, 1, 2, 2)
    assert conic_to_prime(c) == PrimeClass.of(make(2, 2, 2, 0))


@pytest.mark.parametrize("point,error", [
    ((5, 1, 1, 1), DomainError),  # off the conic
    ((4, 1, 0, 0), UnsupportedPrime),
    ((5, 2, 4, 0), DomainError),  # on the conic, not in normal form
    ((5, 0, 0, 0), ZeroInput),
    ((5, 1.5, 2, 0), ParityError),  # a coordinate that is not an int
])
def test_conic_to_prime_rejects_a_bad_point(point, error):
    # a bad input, not a defect: never InternalInvariantViolation
    with pytest.raises(error):
        conic_to_prime(ConicPoint(*point))


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_round_trip_class_conic_class(p):
    for P in primes_of_norm(p):
        assert conic_to_prime(trace_zero_rep(P)) == P
    for c in conic_points(p):
        got = conic_to_prime(c)
        assert got.p == p and got.rep.norm() == p
        assert trace_zero_rep(got) == c


# --------------------------------------------------------------- conic -> P^1

def test_conic_to_proj_frozen_example():
    rep = two_square_rep(3)
    pt = conic_to_proj(ConicPoint.normalized(3, 1, 2, 2), rep)
    assert (pt.x, pt.y) == (1, 0)


def test_conic_to_proj_nilpotent_point():
    # the conic point whose matrix image has zero bottom-left entry is <0,1>
    for p in ODD_PRIMES:
        rep = two_square_rep(p)
        images = {conic_to_proj(c, rep): c for c in conic_points(p)}
        special = images[ProjPoint(p, 0, 1)]
        m = phi(QuotQuat(p, 0, special.x, special.y, special.z), rep)
        assert m.a3 == 0 and m.a1 == 0 and m.a4 == 0 and m.a2 != 0


def test_a_loop_over_many_p_or_n_keeps_each_cache_at_its_bound():
    primes = odd_primes_up_to(80)
    assert len(primes) > _CACHED_TABLES
    for p in primes:
        for table in (primes_of_norm, conic_points, geometry.proj_table, inv_table,
                      two_square_rep):
            table(p)
    for n in range(1, len(primes) + 1):
        elements_of_norm(n)
    for table in (primes_of_norm, conic_points, geometry.proj_table, inv_table,
                  two_square_rep, elements_of_norm):
        assert table.cache_info().currsize == _CACHED_TABLES, table
    # one p's classes and conic points fit; many p's do not all stay
    for p in odd_primes_up_to(300):
        for P in primes_of_norm(p):
            conic_to_prime(trace_zero_rep(P))
    assert sum(p + 1 for p in odd_primes_up_to(300)) > geometry._CACHED_POINTS
    for table in (trace_zero_rep, conic_to_prime):
        assert table.cache_info().currsize == geometry._CACHED_POINTS, table


def test_conic_to_proj_builds_no_inverse_table():
    # one point at a fresh p needs one inverse, not the table of all p - 1
    p = 99991
    c = conic_points(p)[1]
    inv_table.cache_clear()
    conic_to_proj(c, two_square_rep(p))
    assert inv_table.cache_info().misses == 0


def test_a_cold_proj_table_builds_the_inverse_table_the_action_reads():
    # one inverse table per p: proj_table keys the conic with it, and the
    # first permutation at that p reads the same table
    p = 499
    geometry.proj_table.cache_clear()
    inv_table.cache_clear()
    geometry.proj_table(p)
    assert inv_table.cache_info().misses == 1
    meta_permutation(MetaQuery.create(p, make(3, 1, 1, 1)))
    assert inv_table.cache_info().misses == 1


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_conic_to_proj_bijective(p):
    rep = two_square_rep(p)
    image = {conic_to_proj(c, rep) for c in conic_points(p)}
    assert len(image) == p + 1
    assert image == {ProjPoint(p, 0, 1)} | {ProjPoint(p, 1, m) for m in range(p)}


# ------------------------------------------------------------------ action

def test_action_moves_zero_one_to_bottom_row():
    A = FpMat2(7, 2, 3, 4, 5)
    assert pgl2_act(ProjPoint(7, 0, 1), A) == ProjPoint.normalized(7, 4, 5)


def test_action_formula_on_one_m():
    p = 7
    A = FpMat2(p, 2, 3, 4, 5)
    for m in range(p):
        got = pgl2_act(ProjPoint(p, 1, m), A)
        assert got == ProjPoint.normalized(p, 2 + 4 * m, 3 + 5 * m)


def test_identity_fixes_everything():
    for p in ODD_PRIMES:
        A = FpMat2(p, 1, 0, 0, 1)
        for pt in [ProjPoint(p, 0, 1)] + [ProjPoint(p, 1, m) for m in range(p)]:
            assert pgl2_act(pt, A) == pt


def test_action_is_right_action_and_scale_invariant():
    rng = random.Random(67)
    for p in ODD_PRIMES:
        pts = [ProjPoint(p, 0, 1)] + [ProjPoint(p, 1, m) for m in range(p)]
        for _ in range(50):
            A = FpMat2(p, *(rng.randrange(p) for _ in range(4)))
            B = FpMat2(p, *(rng.randrange(p) for _ in range(4)))
            if A.det() == 0 or B.det() == 0:
                continue
            lam = rng.randrange(1, p)
            scaled = FpMat2(p, lam * A.a1, lam * A.a2, lam * A.a3, lam * A.a4)
            for pt in pts:
                AB = FpMat2(p, *mat_mul(p, A.entries, B.entries))
                assert pgl2_act(pgl2_act(pt, A), B) == pgl2_act(pt, AB)
                assert pgl2_act(pt, scaled) == pgl2_act(pt, A)


def test_action_rejects_singular_and_mixed_moduli():
    with pytest.raises(SingularMatrix):
        pgl2_act(ProjPoint(5, 0, 1), FpMat2(5, 1, 2, 2, 4))
    with pytest.raises(ModulusMismatch):
        pgl2_act(ProjPoint(5, 0, 1), FpMat2(7, 1, 0, 0, 1))


def test_equivariance_of_conjugation_and_right_action():
    # conjugating the matrix image of a conic point by A is the same as the
    # right standard action on its P^1 label
    rng = random.Random(71)
    for p in ODD_PRIMES:
        rep = two_square_rep(p)
        for _ in range(30):
            g = QuotQuat(p, *(rng.randrange(p) for _ in range(4)))
            if quat_norm(p, g.coords) == 0:
                continue
            A = phi(g, rep)
            g_conj = phi(QuotQuat(p, g.c1, -g.ci, -g.cj, -g.ck), rep)
            for c in conic_points(p):
                m = phi(QuotQuat(p, 0, c.x, c.y, c.z), rep)
                conj = mat_mul(p, mat_mul(p, g_conj.entries, m.entries), A.entries)
                # read the conjugated matrix back as a conic point
                gamma = _phi_inverse(p, rep.a, rep.b, *conj)
                assert gamma[0] == 0
                c2 = ConicPoint.normalized(p, *gamma[1:])
                assert conic_to_proj(c2, rep) == pgl2_act(conic_to_proj(c, rep), A)
