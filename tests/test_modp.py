"""Quotient algebra mod p: reduction, the two-square representation, the
matrix splitting and the Legendre symbol."""
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metacommute.errors import ModulusMismatch, UnsupportedPrime
from metacommute.modp import (
    FpMat2,
    QuotQuat,
    TwoSquareRep,
    inv_table,
    legendre,
    phi,
    phi_inv,
    reduce_mod,
    sqrt_table,
    two_square_rep,
)
from metacommute.quatcore import OMEGA, HurwitzInt, make
from metacommute.verify import odd_primes_up_to

ODD_PRIMES = (3, 5, 7, 11, 13)


def rand_quot(rng, p):
    return QuotQuat(p, *(rng.randrange(p) for _ in range(4)))


# ------------------------------------------------------------------ reduction

def test_reduce_scalar_multiple_of_p():
    assert not reduce_mod(HurwitzInt.scalar(3), 3)


def test_reduce_one_plus_i():
    assert reduce_mod(make(2, 2, 0, 0), 5).coords == (1, 1, 0, 0)


def test_reduce_omega_mod_3():
    # 2 is the inverse of 2 mod 3
    r = reduce_mod(OMEGA, 3)
    assert r.coords == (2, 2, 2, 2)
    assert r.scale(2) == reduce_mod(make(2, 2, 2, 2), 3)


def test_reduce_rejects_p_two():
    with pytest.raises(UnsupportedPrime):
        reduce_mod(OMEGA, 2)


def test_reduce_is_ring_homomorphism():
    rng = random.Random(41)
    for p in ODD_PRIMES:
        for _ in range(100):
            parity = rng.randint(0, 1)
            x = HurwitzInt(*(2 * rng.randint(-9, 9) + parity for _ in range(4)))
            parity = rng.randint(0, 1)
            y = HurwitzInt(*(2 * rng.randint(-9, 9) + parity for _ in range(4)))
            assert reduce_mod(x * y, p) == reduce_mod(x, p) * reduce_mod(y, p)
            assert reduce_mod(x + y, p) == reduce_mod(x, p) + reduce_mod(y, p)
            assert reduce_mod(x, p).norm() == x.norm() % p
            assert reduce_mod(x, p).trace() == x.trace() % p


# ----------------------------------------------------------------- two-square

@pytest.mark.parametrize("p,a,b", [(3, 1, 1), (5, 0, 2), (7, 2, 3), (11, 1, 3), (13, 0, 5)])
def test_two_square_rep_values(p, a, b):
    rep = two_square_rep(p)
    assert (rep.a, rep.b) == (a, b)
    assert (rep.a ** 2 + rep.b ** 2 + 1) % p == 0


def test_two_square_rep_is_minimal():
    # scan order: smallest a with -1-a^2 a square, then the smallest root b
    for p in ODD_PRIMES + (17, 97):
        rep = two_square_rep(p)
        squares = {(x * x) % p for x in range(p)}
        for a in range(rep.a):
            assert (-1 - a * a) % p not in squares
        for b in range(rep.b):
            assert (b * b) % p != (-1 - rep.a ** 2) % p


def _least_pair_search(p):
    """Reference: the least (a, b) in lexicographic order with
    a^2 + b^2 = -1 mod p, by brute force."""
    for a in range(p):
        for b in range(p):
            if (a * a + b * b + 1) % p == 0:
                return a, b
    raise AssertionError(f"no two-square representation of -1 mod {p}")


def test_two_square_rep_matches_the_least_pair_below_1000():
    for p in odd_primes_up_to(999):
        rep = two_square_rep(p)
        assert (rep.a, rep.b) == _least_pair_search(p), p


def test_sqrt_table_holds_least_roots_and_marks_non_residues():
    for p in odd_primes_up_to(999):
        roots = sqrt_table(p)
        assert len(roots) == p
        least = {}
        for r in range(p - 1, -1, -1):
            least[r * r % p] = r  # descending, so the least root survives
        for t, r in enumerate(roots):
            assert r == least.get(t, -1), (p, t)
            assert (r == -1) == (legendre(t, p) == -1), (p, t)
            if r >= 0:
                assert r * r % p == t


@pytest.mark.parametrize("p", [3, 5, 7, 13, 499, 4999])
def test_inv_table_matches_pow(p):
    table = inv_table(p)
    assert len(table) == p and table[0] == 0
    for x in range(1, p):
        assert table[x] == pow(x, -1, p), (p, x)


def test_a_cold_two_square_rep_keeps_no_table():
    # sqrt_table is not cached, so its O(p) table is garbage once
    # two_square_rep has read it. 99,989 is a prime no other test builds, so
    # no earlier build can have kept its table already
    p = 99_989
    tracemalloc.start()
    try:
        rep = two_square_rep.__wrapped__(p)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (rep.a * rep.a + rep.b * rep.b + 1) % p == 0
    assert kept < 64 * 1024


def test_sqrt_table_rejects_p_two():
    with pytest.raises(UnsupportedPrime):
        sqrt_table(2)


# ------------------------------------------------------------------- phi maps

def test_phi_of_one_is_identity():
    for p in ODD_PRIMES:
        rep = two_square_rep(p)
        assert phi(QuotQuat(p, 1, 0, 0, 0), rep) == FpMat2(p, 1, 0, 0, 1)


def test_phi_of_j():
    for p in ODD_PRIMES:
        rep = two_square_rep(p)
        assert phi(QuotQuat(p, 0, 0, 1, 0), rep) == FpMat2(p, 0, 1, -1, 0)


def test_phi_of_i_and_k_displays():
    for p in ODD_PRIMES:
        rep = two_square_rep(p)
        a, b = rep.a, rep.b
        assert phi(QuotQuat(p, 0, 1, 0, 0), rep) == FpMat2(p, a, -b, -b, -a)
        assert phi(QuotQuat(p, 0, 0, 0, 1), rep) == FpMat2(p, b, a, a, -b)


def test_phi_one_plus_i_mod_5():
    rep = two_square_rep(5)
    m = phi(reduce_mod(make(2, 2, 0, 0), 5), rep)
    assert m == FpMat2(5, 1, -2, -2, 1)
    assert m.det() == 2 == make(2, 2, 0, 0).norm() % 5


def test_phi_defining_relations():
    for p in ODD_PRIMES:
        rep = two_square_rep(p)
        mi = phi(QuotQuat(p, 0, 1, 0, 0), rep)
        mj = phi(QuotQuat(p, 0, 0, 1, 0), rep)
        mk = phi(QuotQuat(p, 0, 0, 0, 1), rep)
        minus_one = phi(QuotQuat(p, -1, 0, 0, 0), rep)
        assert mi * mi == mj * mj == mk * mk == mi * mj * mk == minus_one


def test_phi_ring_homomorphism_and_transport():
    rng = random.Random(43)
    for p in ODD_PRIMES:
        rep = two_square_rep(p)
        for _ in range(200):
            g, d = rand_quot(rng, p), rand_quot(rng, p)
            mg, md = phi(g, rep), phi(d, rep)
            assert phi(g * d, rep) == mg * md
            assert phi(g + d, rep) == mg + md
            assert mg.det() == g.norm()
            assert mg.trace() == g.trace()


def test_phi_inv_round_trip():
    rng = random.Random(47)
    for p in ODD_PRIMES:
        rep = two_square_rep(p)
        for _ in range(200):
            g = rand_quot(rng, p)
            assert phi_inv(phi(g, rep), rep) == g


_SMALL_ODD_PRIMES = odd_primes_up_to(199)


@st.composite
def _prime_and_pair(draw):
    p = draw(st.sampled_from(_SMALL_ODD_PRIMES))
    coords = st.tuples(*[st.integers(0, p - 1)] * 4)
    return p, QuotQuat(p, *draw(coords)), QuotQuat(p, *draw(coords))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_prime_and_pair())
def test_phi_is_a_homomorphism_for_any_small_prime(case):
    p, g, d = case
    rep = two_square_rep(p)
    mg, md = phi(g, rep), phi(d, rep)
    assert phi(g * d, rep) == mg * md
    assert phi(g + d, rep) == mg + md
    assert mg.det() == g.norm()
    assert mg.trace() == g.trace()
    assert phi_inv(mg, rep) == g


def test_phi_inv_displays():
    for p in ODD_PRIMES:
        rep = two_square_rep(p)
        assert phi_inv(FpMat2(p, 1, 0, 0, 1), rep) == QuotQuat(p, 1, 0, 0, 0)
        assert phi_inv(FpMat2(p, 0, 1, -1, 0), rep) == QuotQuat(p, 0, 0, 1, 0)


def test_phi_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        phi(QuotQuat(3, 1, 0, 0, 0), two_square_rep(5))
    with pytest.raises(ModulusMismatch):
        phi_inv(FpMat2(3, 1, 0, 0, 1), two_square_rep(5))


# ----------------------------------------------------------------- matrix ops

def test_mat2_det_example():
    assert FpMat2(5, 1, -2, -2, 1).det() == 2  # 1 - 4 = -3 = 2 mod 5


def test_mat2_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        FpMat2(3, 1, 0, 0, 1) * FpMat2(5, 1, 0, 0, 1)


# ------------------------------------------------------------------- legendre

def test_legendre_examples():
    assert legendre(2, 3) == -1
    assert legendre(4, 5) == 1
    assert legendre(0, 7) == 0
    assert legendre(7, 7) == 0


def test_legendre_at_a_huge_prime_ends_at_once(deadline):
    # 2^61 - 1 is prime; the odd-prime guard must not trial-divide up to its root
    with deadline(1):
        assert legendre(2, 2305843009213693951) == 1


def test_legendre_matches_square_table():
    for p in ODD_PRIMES + (17, 97):
        squares = {(x * x) % p for x in range(1, p)}
        for n in range(p):
            want = 0 if n == 0 else (1 if n in squares else -1)
            assert legendre(n, p) == want


def test_legendre_completely_multiplicative():
    rng = random.Random(61)
    for p in ODD_PRIMES:
        for _ in range(200):
            m, n = rng.randrange(-50, 50), rng.randrange(-50, 50)
            assert legendre(m * n, p) == legendre(m, p) * legendre(n, p)
