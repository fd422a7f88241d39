"""Every permutation, every class list and every order table, pinned by a
sha256 digest.

The permutation and class digests were computed at commit 748c3b6, the
order-table digests at b7a3b7b, from the per-order formula that order_counts
replaced. A refactor of the routes, the per-p tables or the lattice walk
that changes any image or any canonical rep changes a digest. Each line
hashed is the repr of ints, tuples and dicts, or the CLI's own JSON text, so
it does not depend on how values print.
"""
import hashlib

from metacommute.cli import main
from metacommute.metacomm import (
    MetaQuery,
    analyze,
    cycle_length,
    meta_permutation,
    order_counts,
)
from metacommute.quatcore import primes_of_norm
from metacommute.verify import odd_primes_up_to, sweep_queries

# every (p, Q) of sweep_queries(31, 31), with the images of its permutation
PERMUTATIONS_31 = "05b63c54cbe573c974b40a7154c37a55fe556544b4d578eb7852b1efc9de5094"
# the canonical reps of primes_of_norm(p), for every odd prime p <= 1000
CLASSES_1000 = "dd82fbe27c47d9b6a7d554c799bb877aff355ec2a1785bf5506f2bf335d882b2"
# the table {order: count} of the projective group, for every odd prime p <= 3000
ORDER_TABLES_3000 = "632bda56a2427614ff98311f1268106858507586e0c6987099d819b31513fcdf"
# the stdout of `orders --p p --format json`, for p in 3, 4999 and 99991
ORDERS_JSON = "d0b2c752e2462f357051cbea88d6faa7949e8bec7e51dfc087e17044d2d04ca6"


def test_every_permutation_at_p_q_up_to_31_is_unchanged():
    digest = hashlib.sha256()
    count = 0
    for p, Q in sweep_queries(31, 31):
        query = MetaQuery.create(p, Q)
        perm = meta_permutation(query)
        images = perm.images
        digest.update(f"{p} {Q.coeffs} {images}\n".encode())
        count += 1
        # the cycle type is the predicted one: every moving point on a cycle
        # of the predicted length, which is 1 exactly for a central Q
        report = analyze(perm)
        k = cycle_length(query)
        assert report.cycle_lengths == (k,) * ((p + 1 - report.fixed_count) // k), (p, Q)
        assert (k == 1) == query.central, (p, Q)
    assert count == 36528
    assert digest.hexdigest() == PERMUTATIONS_31


def test_every_class_list_up_to_1000_is_unchanged():
    digest = hashlib.sha256()
    for p in odd_primes_up_to(1000):
        reps = [P.rep.coeffs for P in primes_of_norm(p)]
        digest.update(f"{p} {reps}\n".encode())
    assert digest.hexdigest() == CLASSES_1000


def test_every_order_table_up_to_3000_is_unchanged():
    digest = hashlib.sha256()
    for p in odd_primes_up_to(3000):
        table = order_counts(p)
        assert sum(table.values()) == p * (p * p - 1)
        digest.update(f"{p} {table}\n".encode())
    assert digest.hexdigest() == ORDER_TABLES_3000


def test_the_orders_json_is_unchanged(capsys):
    digest = hashlib.sha256()
    for p in (3, 4999, 99991):
        assert main(["orders", "--p", str(p), "--format", "json"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == ORDERS_JSON
