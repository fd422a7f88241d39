"""Every permutation and every class list, pinned by a sha256 digest.

The digests were computed at commit 748c3b6. A refactor of the routes, the
per-p tables or the lattice walk that changes any image or any canonical
rep changes a digest. Each line hashed is the repr of ints and tuples, so it
does not depend on how values print.
"""
import hashlib

from metacommute.metacomm import MetaQuery, meta_permutation
from metacommute.quatcore import primes_of_norm
from metacommute.verify import odd_primes_up_to, sweep_queries

# every (p, Q) of sweep_queries(31, 31), with the images of its permutation
PERMUTATIONS_31 = "05b63c54cbe573c974b40a7154c37a55fe556544b4d578eb7852b1efc9de5094"
# the canonical reps of primes_of_norm(p), for every odd prime p <= 1000
CLASSES_1000 = "dd82fbe27c47d9b6a7d554c799bb877aff355ec2a1785bf5506f2bf335d882b2"


def test_every_permutation_at_p_q_up_to_31_is_unchanged():
    digest = hashlib.sha256()
    count = 0
    for p, Q in sweep_queries(31, 31):
        images = meta_permutation(MetaQuery.create(p, Q)).images
        digest.update(f"{p} {Q.coeffs} {images}\n".encode())
        count += 1
    assert count == 36528
    assert digest.hexdigest() == PERMUTATIONS_31


def test_every_class_list_up_to_1000_is_unchanged():
    digest = hashlib.sha256()
    for p in odd_primes_up_to(1000):
        reps = [P.rep.coeffs for P in primes_of_norm(p)]
        digest.update(f"{p} {reps}\n".encode())
    assert digest.hexdigest() == CLASSES_1000
