"""
Random corpora as referees
==========================

Two of the engine's load-bearing identities are cheap to stress with
random input, so this script does exactly that, with a fixed seed so a
rerun reproduces the same corpus.

First: the dimension of a finite quotient ring read off the certified
staircase must agree with the rank count of truncated power-series
(Macaulay) matrices taken on a second truncation schedule.  Both read the
same Macaulay rows, so this checks the Nakayama certificate and the
schedule, not two independent engines.

Second: for an exact form df the multiplication by f on the Milnor
algebra squares to zero, its kernel has dimension tau and its rank is
mu - tau.  That rank-nullity split is the bridge between the two local
invariants, and it has to hold for every squarefree sample.
"""

import random
from fractions import Fraction

from folgerm import (
    CurveGerm,
    FoliationGerm,
    milnor_foliation,
    stabilized_macaulay_dim,
    standard_basis,
    tjurina_foliation,
)
from folgerm.linalg import bareiss_rank
from folgerm.localalg import mult_operator
from folgerm.polynomials import Poly, is_squarefree


def random_poly(rng, max_degree, max_terms, min_order):
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            a = rng.randint(0, max_degree)
            b = rng.randint(0, max_degree - a)
            if a + b < min_order:
                continue
            terms[(a, b)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        p = Poly(2, terms)
        if not p.is_zero:
            return p


# --- staircase dimension vs. series oracle -----------------------------
rng = random.Random(20260823)
agreements, skipped = 0, 0
while agreements < 25:
    p = random_poly(rng, 5, 6, 1)
    q = random_poly(rng, 5, 6, 1)
    dim = standard_basis([p, q]).quotient_dim()
    if dim is None:
        skipped += 1
        continue
    oracle = stabilized_macaulay_dim([p, q])
    assert oracle == dim, (p, q, dim, oracle)
    agreements += 1
print("staircase == series oracle on %d random ideals "
      "(%d infinite quotients skipped)" % (agreements, skipped))

# --- rank-nullity on exact forms ---------------------------------------
rng = random.Random(1117)
done = 0
while done < 10:
    f = random_poly(rng, 5, 5, 2)
    if not is_squarefree(f):
        continue
    try:
        germ = FoliationGerm(f.diff(0), f.diff(1))
        curve = CurveGerm(f)
    except ValueError:
        continue
    mu = milnor_foliation(germ)
    tau = tjurina_foliation(germ, curve)
    sb = standard_basis([germ.P, germ.Q])
    op = mult_operator(sb, f)
    rank = bareiss_rank(op.columns)
    assert op.compose(op).is_zero()
    assert op.dimension - rank == tau and rank == mu - tau
    done += 1
    print("f = %-38s mu = %2d  tau = %2d  rank = %2d" % (f, mu, tau, rank))
print("sigma^2 = 0 and rank-nullity held on all %d samples" % done)
