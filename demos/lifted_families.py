"""Walkthrough: lifting level sets into a larger circle.

A level set A of size v in [n] is padded with the run n+1 .. 2n-v and
closed at density s+1 on the circle [m], m = (n+1)s + n.  Intersecting
the closure back with [n] yields the interval [A, f(A~) & [n]] whose
upper endpoint has exactly s extra elements.  One interval per level set
gives a pairwise-disjoint family with a closure property that the
partition builder leans on: an uncovered set has no covered superset.
"""

from itertools import combinations

from veronese_sdepth import (
    CircularSet,
    check_mixed_density_disjoint,
    check_superset_closure,
    interval_family,
    is_covered,
    lift,
    validate_lift_params,
)
from veronese_sdepth.lifting import closure_upper_mask

params = validate_lift_params(n=7, level_size=2, s=1)
print(f"lift parameters: n=7, level 2, s=1  ->  m = {params.m}")
a = CircularSet(7, (1, 3))
lifted = lift(a, params)
print(f"lifted {{{a.serialize()}}} -> {{{lifted.serialize()}}} on [{params.m}]")
upper = CircularSet.from_mask(7, closure_upper_mask(7, 2, 1, a.members))
print(f"interval: [{{{a.serialize()}}}, {{{upper.serialize()}}}]")

fam = interval_family(7, 2, 0, 1)
print(f"\nfamily at level 2, density 2 on [7]: {len(fam)} disjoint intervals")
pairs = sum(
    1
    for i, x in enumerate(list(fam))
    for y in list(fam)[i + 1 :]
    if x.intersects(y)
)
print(f"intersecting pairs: {pairs}")

probe = CircularSet(7, (1, 3, 5))
print(f"is {{{probe.serialize()}}} covered? {is_covered(probe, fam)}")

uncovered = next(
    CircularSet(7, c)
    for c in combinations(range(1, 8), 3)
    if not is_covered(CircularSet(7, c), fam)
)
print(
    f"{{{uncovered.serialize()}}} is uncovered; no superset is covered: "
    f"{check_superset_closure(uncovered, fam)}"
)

# Intervals taken at two different densities stay disjoint whenever the
# lower-density closure is tight and the lower endpoints are incomparable.
print(
    "mixed-density disjointness for A={1}, B={2,3} at densities 3 and 2:",
    check_mixed_density_disjoint(CircularSet(7, (1,)), CircularSet(7, (2, 3)), 3, 2),
)
