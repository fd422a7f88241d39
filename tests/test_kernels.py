"""The integer kernels: range check, division contract and the D4* decoder."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metacommute import _kernels


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
    n = _kernels._norm_raw(b)
    m = _kernels._mul_raw(a, (b[0], -b[1], -b[2], -b[3]))
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


def test_selected_backend_is_consistent():
    assert _kernels.kernel_backend() == "python"


def test_range_check():
    big = _kernels.COORD_LIMIT + 2
    with pytest.raises(OverflowError):
        _kernels.norm((big, 0, 0, 0))
    with pytest.raises(OverflowError):
        _kernels.mul((big, 0, 0, 0), (2, 0, 0, 0))
    # the limit itself is inside the supported range
    assert _kernels.norm((_kernels.COORD_LIMIT, 0, 0, 0)) == _kernels.COORD_LIMIT ** 2 // 4


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
