"""Per-function statistics: descents, species, lucky cars, runs, shuffles."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import PrefSequence, park, queue_profile

_RELATIONS = {
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
    "=": operator.eq,
}


def repeats(seq: Sequence[int]) -> int:
    """Number of adjacent equal pairs, reading left to right."""
    v = tuple(seq)
    return sum(1 for a, b in zip(v, v[1:]) if a == b)


def lucky(pf: Sequence[int]) -> int:
    """Number of cars parking exactly at their preferred spot (always >= 1)."""
    outcome = park(pf)
    if not outcome.success:
        raise ValueError("lucky requires a parking function")
    return sum(outcome.lucky)


def value_counts(seq: Sequence[int]) -> dict[int, int]:
    """Exact multiplicity of each value present in the sequence."""
    counts: dict[int, int] = {}
    for v in seq:
        counts[v] = counts.get(v, 0) + 1
    return counts


def ones(seq: Sequence[int]) -> int:
    """Number of coordinates equal to 1."""
    return value_counts(seq).get(1, 0)


def descent_pattern(seq: Sequence[int], relation: str = "<") -> tuple[int, ...]:
    """Binary pattern X_1..X_{n-1} with X_i = 1 iff seq_{i+1} rel seq_i.

    relation "<" gives descents (strict drop), "=" the equality pattern,
    "<=" the weak-descent pattern; ">" and ">=" give the reversed analogs.
    """
    op = _RELATIONS[relation]
    v = tuple(seq)
    return tuple(1 if op(b, a) else 0 for a, b in zip(v, v[1:]))


def descents(seq: Sequence[int]) -> int:
    """Total number of descents."""
    return sum(descent_pattern(seq))


def species(seq: Sequence[int], m: Optional[int] = None) -> tuple[int, ...]:
    """Species vector (mu_0, ..., mu_n): mu_r = number of codomain values
    occurring exactly r times.  Satisfies sum mu_r = m, sum r*mu_r = n."""
    v = tuple(seq)
    n = len(v)
    if m is None:
        m = seq.m if isinstance(seq, PrefSequence) else n
    counts = value_counts(v)
    mu = [0] * (n + 1)
    mu[0] = m - len(counts)
    for c in counts.values():
        mu[c] += 1
    return tuple(mu)


def inversions(seq: Sequence[int]) -> int:
    """Number of pairs i < j with seq_i > seq_j."""
    v = tuple(seq)
    return sum(1 for i in range(len(v)) for j in range(i + 1, len(v)) if v[i] > v[j])


def longest_run(seq: Sequence[int], relation: str = "<") -> int:
    """Length (in values) of the longest consecutive run under the relation."""
    op = _RELATIONS[relation]
    v = tuple(seq)
    best = 1
    current = 1
    for a, b in zip(v, v[1:]):
        if op(a, b):
            current += 1
            best = max(best, current)
        else:
            current = 1
    return best


def max_discrepancy(pf: Sequence[int]) -> int:
    """max_k #{i : pi_i <= k} - k, i.e. the maximum of the queue profile."""
    return max(queue_profile(pf))


def scaled_area(pf: Sequence[int]) -> float:
    """(n^2/2 - sum pi_i) / n^{3/2}; converges to the Airy area law."""
    v = tuple(pf)
    n = len(v)
    return (n * n / 2 - sum(v)) / n**1.5


@dataclass(frozen=True)
class ShuffleDecomposition:
    """Witness that a suffix is a shuffle of alpha and beta + (k, ..., k),
    where k is the maximal feasible first coordinate.

    alpha collects the values <= k-1 (a parking function of size k-1) and
    beta the values >= k+1 shifted down by k (a parking function of size
    n-k); a suffix whose maximal feasible first coordinate is k never
    contains the value k itself.
    """

    k: int
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    interleaving: tuple[int, ...]  # 1-based positions (in the suffix) of alpha


def max_first_coordinate(suffix: Sequence[int]) -> Optional[ShuffleDecomposition]:
    """Largest k such that (k, suffix) is a parking function, with the
    canonical value-threshold decomposition; None if no prefix works."""
    v = tuple(suffix)
    n = len(v) + 1
    counts = [0] * (n + 1)
    for x in v:
        if not 1 <= x <= n:
            return None
        counts[x] += 1
    # g(i) = #{suffix <= i} - i; (j, suffix) valid iff g >= -1 everywhere
    # and g(i) = -1 only at i >= j.
    k = n
    running = 0
    for i in range(1, n + 1):
        running += counts[i]
        g = running - i
        if g <= -2:
            return None
        if g == -1:
            k = min(k, i)
    alpha = tuple(x for x in v if x <= k - 1)
    beta = tuple(x - k for x in v if x >= k)
    interleaving = tuple(i for i, x in enumerate(v, start=1) if x <= k - 1)
    return ShuffleDecomposition(k=k, alpha=alpha, beta=beta, interleaving=interleaving)


@dataclass(frozen=True)
class Chain:
    """An ordered chain of distinct positions with one relation symbol."""

    positions: tuple[int, ...]
    relation: str

    def __post_init__(self) -> None:
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        if len(self.positions) < 2:
            raise ValueError("chains need at least 2 positions")
        if len(set(self.positions)) != len(self.positions):
            raise ValueError("chain positions must be distinct")
        if min(self.positions) < 1:
            raise ValueError("chain positions are 1-based")


@dataclass(frozen=True)
class ChainPoset:
    """Disjoint chains over positions, one relation per chain.

    Mixed relations within a chain are rejected by construction (they break
    equidistribution between the ensembles).
    """

    chains: tuple[Chain, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for chain in self.chains:
            for p in chain.positions:
                if p in seen:
                    raise ValueError("chains must be position-disjoint")
                seen.add(p)

    @property
    def positions(self) -> set[int]:
        return {p for c in self.chains for p in c.positions}


def chain_monotone(seq: Sequence[int], poset: ChainPoset) -> bool:
    """True iff every chain's relation holds along consecutive chain positions."""
    v = tuple(seq)
    for chain in poset.chains:
        op = _RELATIONS[chain.relation]
        for a, b in zip(chain.positions, chain.positions[1:]):
            if not op(v[a - 1], v[b - 1]):
                return False
    return True
