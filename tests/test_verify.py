"""The oracle sweep fails when any one of its inputs is wrong: each route,
the shared norm-p factor and the product identity are checked separately.
Every other check reports an injected fault with its exact message."""
import dataclasses
import inspect

import pytest

from metacommute import _kernels, metacomm, verify
from metacommute.errors import DomainError, ScaleLimit
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


@pytest.mark.parametrize("call,flag", [
    (lambda: verify.verify_signs(5.0, 5), "p_max"),
    (lambda: verify.verify_signs("5", 5), "p_max"),
    (lambda: verify.verify_fixed(5, 5.0), "q_max"),
    (lambda: verify.verify_cycles(5.0, 5), "p_max"),
    (lambda: verify.verify_oracle(5, 5.5), "q_max"),
    (lambda: verify.verify_counting(5.0), "p_max"),
    (lambda: verify.verify_phi(5.0), "p_max"),
    (lambda: verify.verify_orders(5.0), "p_max"),
    (lambda: verify.verify_oracle(3, 3, seed="x"), "seed"),
    (lambda: verify.verify_phi(3, seed=0.5), "seed"),
    (lambda: verify.verify_phi(3, seed="x"), "seed"),
    (lambda: verify.verify_counting(True), "p_max"),
    (lambda: verify.verify_oracle(3, 3, seed=True), "seed"),
    (lambda: verify.verify_phi(3, seed=True), "seed"),
], ids=["signs", "signs_str", "fixed", "cycles", "oracle", "counting", "phi", "orders",
        "oracle_seed_str", "phi_seed_float", "phi_seed_str", "counting_bool",
        "oracle_seed_bool", "phi_seed_bool"])
def test_a_scope_bound_that_is_not_an_int_is_a_domain_error(call, flag):
    # a float or str must not reach range() or the seeded generator, where
    # it is a bare TypeError or a silent float; an oracle seed is only echoed.
    # A bool is an int to isinstance, but True would run as 1 and be echoed
    # as true
    with pytest.raises(DomainError, match=f"^{flag} is an int, got "):
        call()


def test_checks_name_every_verify_function():
    functions = {name for name, value in inspect.getmembers(verify, inspect.isfunction)
                 if name.startswith("verify_")}
    assert {"verify_" + check for check in verify.CHECKS} == functions
    assert len(verify.CHECKS) == len(set(verify.CHECKS)) == 7


def test_a_fault_in_analyze_fails_verify_orders(monkeypatch):
    # the census reads each element's order off analyze's cycle lengths
    analyze = metacomm.analyze

    def one_length_dropped(perm):
        report = analyze(perm)
        return dataclasses.replace(report, cycle_lengths=report.cycle_lengths[1:])

    monkeypatch.setattr(metacomm, "analyze", one_length_dropped)
    assert not verify.verify_orders(5).passed


def test_the_sweep_size_is_the_oracle_case_count():
    assert verify._bound_sweep(5, 5) == 1392
    assert verify._bound_sweep(13, 13) == 36_576
    # the largest scope run so far, counted without running it
    assert verify._bound_sweep(97, 97) == 26_492_976
    with pytest.raises(ScaleLimit):
        verify._bound_sweep(3, 3000)
    # 1,978,200 elements of prime norm up to q_max = 1038, 96 of them of
    # norm 3; the sweep lists one norm's elements at a time, so only the
    # case count bounds q_max
    assert verify._bound_sweep(3, 1038) == 4 * (1_978_200 - 96)
    assert verify._bound_sweep(3, 1100) == 8_940_576
    assert verify._bound_sweep(5, 1039) == 20_030_352


def test_the_sweep_lists_one_norm_at_a_time(monkeypatch):
    # each norm is listed once, after the last (p, Q) of the norm before it
    listed = []
    elements_of_norm = verify.elements_of_norm

    def listing(q):
        listed.append(q)
        return elements_of_norm(q)

    monkeypatch.setattr(verify, "elements_of_norm", listing)
    cases = 0
    for p, Q in verify.sweep_queries(7, 13):
        assert Q.norm() == listed[-1], (p, Q)
        cases += p + 1
    assert listed == verify.primes_up_to(13)
    assert cases == verify._bound_sweep(7, 13)


@pytest.mark.parametrize("sweep", [
    verify.verify_signs, verify.verify_fixed, verify.verify_cycles, verify.verify_oracle,
], ids=["signs", "fixed", "cycles", "oracle"])
@pytest.mark.parametrize("scope,message", [
    ((5001, 2), "^a sweep runs only for p_max <= 5000$"),
    ((3, 5001), "^elements of norm q are enumerated only for q_max <= 5000$"),
    ((5, 3000), "cases; a sweep runs at most 30000000$"),
], ids=["p_max", "q_max", "cases"])
def test_every_sweep_meets_the_one_scope_check(sweep, scope, message):
    with pytest.raises(ScaleLimit, match=message):
        sweep(*scope)


def _sign_fault(mul):
    def faulty(x, y):
        # the real part's D H term added where it is subtracted
        A, B, C, D = mul(x, y)
        return A + x[3] * y[3], B, C, D
    return faulty


@pytest.mark.parametrize("name,fault", [
    ("mul", _sign_fault),
    ("norm", lambda norm: lambda x: norm(x) + 1),
], ids=["mul-sign", "norm-plus-one"])
def test_verify_phi_checks_the_kernels_the_routes_run(monkeypatch, name, fault):
    # phi is checked against the product and norm of _kernels, not a copy
    assert verify.verify_phi(13).passed
    monkeypatch.setattr(_kernels, name, fault(getattr(_kernels, name)))
    assert not verify.verify_phi(13).passed


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

_predict, _analyze = verify.predict, verify.analyze
_phi_entries, _phi_inverse = verify._phi_entries, verify._phi_inverse
_order_counts, _conic_points = verify.order_counts, verify.conic_points


def _flipped_sign(query):
    sign, fixed = _predict(query)
    return -sign, fixed


def _one_more_fixed(query):
    sign, fixed = _predict(query)
    return sign, fixed + 1


def _split_lengths(perm):
    # each non-fixed cycle of even length read as two of half that length
    report = _analyze(perm)
    halves = sum(((n // 2, n // 2) if n % 2 == 0 else (n,) for n in report.cycle_lengths), ())
    return dataclasses.replace(report, cycle_lengths=halves)


def _doubled_phi(p, a, b, *g):
    return _phi_entries(p, a, b, *(2 * v for v in g))


def _doubled_phi_off_the_axes(p, a, b, *g):
    # right on the basis and its multiples, so the defining relations hold
    # and the random pairs fail
    return (_doubled_phi if sum(map(bool, g)) > 1 else _phi_entries)(p, a, b, *g)


def _one_more_order(p):
    return {k: n + 1 for k, n in _order_counts(p).items()}


def _one_point_short(p):
    return _conic_points(p)[:-1]


@pytest.mark.parametrize("name,fault,check,message", [
    ("predict", _flipped_sign, lambda: verify.verify_signs(5, 5),
     "sign mismatch p=3 Q=[-2, -2, 0, 0]: got -1, predicted 1"),
    ("predict", _one_more_fixed, lambda: verify.verify_fixed(5, 5),
     "fixed-point mismatch p=3 Q=[-2, -2, 0, 0]: got 0, predicted 1"),
    ("analyze", _split_lengths, lambda: verify.verify_cycles(5, 5),
     "cycle-structure failure p=3 Q=[-2, -2, 0, 0]: fixed=0 lengths=[2, 2], "
     "predicted length 4"),
    ("_phi_entries", _doubled_phi, lambda: verify.verify_phi(5),
     "defining relations fail at p=3"),
    ("_phi_entries", _doubled_phi_off_the_axes, lambda: verify.verify_phi(5),
     "phi identity fails p=3 gamma=(0, 2, 2, 0) delta=(1, 2, 1, 2)"),
    ("order_counts", _one_more_order, lambda: verify.verify_orders(5),
     "order census p=3 k=2: census 9, formula 10"),
    ("conic_points", _one_point_short, lambda: verify.verify_counting(5),
     "count mismatch p=3: 4 classes, 3 conic points"),
], ids=["signs", "fixed", "cycles", "phi-relations", "phi-pairs", "orders", "counting"])
def test_each_check_names_its_first_failure(monkeypatch, name, fault, check, message):
    monkeypatch.setattr(verify, name, fault)
    report = check()
    assert not report.passed
    assert report.first_failures[0] == message


def _flipped_third_entry(p, a, b, g1, g2, g3, g4):
    # the bottom-left entry with +g3 where the splitting has -g3
    m1, m2, _, m4 = _phi_entries(p, a, b, g1, g2, g3, g4)
    return m1, m2, (g3 + g4 * a - g2 * b) % p, m4


def _inverse_off_by_one(p, a, b, *m):
    g1, g2, g3, g4 = _phi_inverse(p, a, b, *m)
    return (g1 + 1) % p, g2, g3, g4


@pytest.mark.parametrize("name,fault,failed", [
    ("_phi_entries", _flipped_third_entry, 1900),
    ("_phi_inverse", _inverse_off_by_one, 2000),
], ids=["entry-sign", "inverse-off-by-one"])
def test_verify_phi_fails_on_a_wrong_splitting_or_inverse(monkeypatch, name, fault, failed):
    # 2 relation cases and 2 x 1,000 pairs at p = 3 and 5
    assert verify.verify_phi(5).passed
    monkeypatch.setattr(verify, name, fault)
    report = verify.verify_phi(5)
    assert (report.cases_failed, report.cases_run) == (failed, 2002)
