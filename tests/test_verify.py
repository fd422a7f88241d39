"""The oracle sweep fails when any one of its inputs is wrong: each route,
the shared norm-p factor and the product identity are checked separately."""
import dataclasses

import pytest

from metacommute import _kernels, verify
from metacommute.errors import ScaleLimit
from metacommute.metacomm import MetaQuery, Permutation, meta_conj, meta_permutation
from metacommute.quatcore import _norm_p_factor, primes_of_norm

_create = MetaQuery.create


def _wrong_class(P, Q):
    right = meta_conj(P, Q)
    return next(c for c in primes_of_norm(P.p) if c != right)


def _shifted_images(query):
    perm = meta_permutation(query)
    return Permutation(perm.p, tuple((x + 1) % (perm.p + 1) for x in perm.images))


def _wrong_associate(h, p):
    # i times the canonical rep: the same class, but not its canonical name
    return _kernels.mul((0, 2, 0, 0), _norm_p_factor(h, p))


def _wrong_norm(cls, p, Q):
    # the q that the product identity N(Q') = q is checked against
    query = _create(p, Q)
    return dataclasses.replace(query, q=query.q + 1)


def test_the_sweep_size_is_the_oracle_case_count():
    assert verify._bound_sweep(5, 5) == 1392
    assert verify._bound_sweep(13, 13) == 36_576
    # the largest scope run so far, counted without running it
    assert verify._bound_sweep(97, 97) == 26_492_976
    with pytest.raises(ScaleLimit):
        verify._bound_sweep(3, 3000)


def test_the_unpatched_oracle_passes():
    report = verify.verify_oracle(5, 5)
    assert report.passed
    assert report.cases_run == 1392


@pytest.mark.parametrize("owner,name,fault", [
    (verify, "meta_conj", _wrong_class),
    (verify, "meta_permutation", _shifted_images),
    (verify, "_norm_p_factor", _wrong_associate),
    (MetaQuery, "create", classmethod(_wrong_norm)),
], ids=["conj-route", "perm-route", "divide-route", "product-identity"])
def test_one_wrong_input_fails_every_case(monkeypatch, owner, name, fault):
    monkeypatch.setattr(owner, name, fault)
    report = verify.verify_oracle(5, 5)
    assert not report.passed
    assert report.cases_failed == report.cases_run == 1392
    assert len(report.first_failures) == verify.MAX_FAILURES_KEPT


def test_a_failure_names_each_route_answer(monkeypatch):
    monkeypatch.setattr(verify, "meta_permutation", _shifted_images)
    report = verify.verify_oracle(5, 5)
    assert report.first_failures[0] == (
        "oracle failure p=3 Q=[-2, -2, 0, 0] P=[-3, -1, -1, -1]: "
        "divide=[-3, -1, -1, 1] conj=[-3, -1, -1, 1] perm=[-3, -1, 1, -1] "
        "(routes disagree or the product identity broke)"
    )
