"""Equivalence of ensembles, exactly.

Comparison-based statistics (descent patterns, species, inversions,
longest runs, and the events of position-disjoint chains with one relation
each, named by chain expressions such as "1<3;2>=4>=5") have literally
identical distributions under a uniform parking function of size n and a
uniform unrestricted function from [n] to [n+1], after scaling counts by
n+1.  This script verifies the equality exactly by brute force, and shows
the boundary of the phenomenon with predicates where it genuinely fails.
"""

from parkfn import exact_equidistribution, weak_peak_check

N = 5

print(f"exact joint-distribution comparison at n={N} "
      f"(parking functions vs all functions into [n+1])\n")

print("equidistributed features:")
for feature in ("descent-pattern", "equality-pattern", "weak-descent-pattern",
                "species", "inversions", "longest-run", "longest-run<=",
                "longest-run>", "longest-run>=", "1<3;2>=4>=5"):
    report = exact_equidistribution(N, feature)
    print(f"  {feature:<22} {'equal' if report.equal else 'UNEQUAL'}")

for i in range(2, N):
    report = weak_peak_check(N, i)
    print(f"  weak peak at {i}          "
          f"{'equal' if report.equal else 'UNEQUAL'} "
          f"(counts {report.pf_count} vs {report.f_count} = (n+1) x {report.pf_count})")

print("\nnegative controls (the equality is sharp):")
for feature in ("strict-peak@2", "mixed-chain@2", "non-disjoint-chain", "forced-gap"):
    report = exact_equidistribution(N, feature)
    print(f"  {feature:<22} {'equal' if report.equal else 'UNEQUAL'}")
print("\nstrict peaks, mixed relations inside one chain, chains sharing a "
      "position, and gap predicates like f(1) < f(2) - 1 all distinguish "
      "the ensembles")
