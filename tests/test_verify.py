"""The oracle sweep fails when any one of its inputs is wrong: each route,
the shared norm-p factor and the product identity are checked separately.
Every other check reports an injected fault with its exact message."""
import dataclasses

import pytest

from metacommute import _kernels, verify
from metacommute.errors import ScaleLimit
from metacommute.metacomm import MetaQuery, Permutation, meta_conj, meta_permutation
from metacommute.quatcore import HurwitzInt, PrimeClass, _norm_p_factor, primes_of_norm

_create = MetaQuery.create
_conic_to_prime = verify.conic_to_prime


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


def _associate_class(c):
    # i times the canonical rep: not the name of any class in primes_of_norm
    P = _conic_to_prime(c)
    return PrimeClass._unchecked(HurwitzInt._wrap(_kernels.mul((0, 2, 0, 0), P.rep.coeffs)), P.p)


def test_a_projective_answer_outside_the_class_list_is_a_disagreement(monkeypatch):
    monkeypatch.setattr(verify, "conic_to_prime", _associate_class)
    report = verify.verify_oracle(5, 5)
    assert report.cases_failed == report.cases_run == 1392
    assert report.first_failures[0] == (
        "oracle failure p=3 Q=[-2, -2, 0, 0] P=[-3, -1, -1, -1]: "
        "divide=[-3, -1, -1, 1] conj=[-3, -1, -1, 1] perm=[1, -3, -1, -1] "
        "(routes disagree or the product identity broke)"
    )


# One fault per check, injected through a name in verify's namespace; each
# check must report it with its exact message.

_predict, _analyze, _phi = verify.predict, verify.analyze, verify.phi
_order_count, _conic_points = verify.order_count, verify.conic_points


def _flipped_sign(query):
    sign, fixed = _predict(query)
    return -sign, fixed


def _one_more_fixed(query):
    sign, fixed = _predict(query)
    return sign, fixed + 1


def _split_lengths(perm):
    return dataclasses.replace(_analyze(perm), uniform_length=False)


def _doubled_phi(g, rep):
    return _phi(g.scale(2), rep)


def _doubled_phi_off_the_axes(g, rep):
    # right on the basis and its multiples, so the defining relations hold
    # and the random pairs fail
    return _doubled_phi(g, rep) if sum(map(bool, g.coords)) > 1 else _phi(g, rep)


def _one_more_order(k, p):
    return _order_count(k, p) + 1


def _one_point_short(p):
    return _conic_points(p)[:-1]


@pytest.mark.parametrize("name,fault,check,message", [
    ("predict", _flipped_sign, lambda: verify.verify_signs(5, 5),
     "sign mismatch p=3 Q=[-2, -2, 0, 0]: got -1, predicted 1"),
    ("predict", _one_more_fixed, lambda: verify.verify_fixed(5, 5),
     "fixed-point mismatch p=3 Q=[-2, -2, 0, 0]: got 0, predicted 1"),
    ("analyze", _split_lengths, lambda: verify.verify_cycles(5, 5),
     "cycle-structure failure p=3 Q=[-2, -2, 0, 0]: fixed=0 lengths=[4]"),
    ("phi", _doubled_phi, lambda: verify.verify_phi(5),
     "defining relations fail at p=3"),
    ("phi", _doubled_phi_off_the_axes, lambda: verify.verify_phi(5),
     "phi identity fails p=3 gamma=(0, 2, 2, 0) delta=(1, 2, 1, 2)"),
    ("order_count", _one_more_order, lambda: verify.verify_orders(5),
     "order census p=3 k=2: census 9, formula 10"),
    ("conic_points", _one_point_short, lambda: verify.verify_counting(5),
     "count mismatch p=3: 4 classes, 3 conic points"),
], ids=["signs", "fixed", "cycles", "phi-relations", "phi-pairs", "orders", "counting"])
def test_each_check_names_its_first_failure(monkeypatch, name, fault, check, message):
    monkeypatch.setattr(verify, name, fault)
    report = check()
    assert not report.passed
    assert report.first_failures[0] == message
