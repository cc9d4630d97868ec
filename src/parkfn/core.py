"""Core parking-function types: validation, the parking process, Dyck coding."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

# Elements per block of functions: rows are drawn, shifted, enumerated and
# scored a block at a time.  Results do not depend on it; it bounds the memory
# of a block.
BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class PrefSequence:
    """A length-n sequence of 1-based preferences with codomain bound m.

    Houses both ensembles: m = n for plain functions, m = n + 1 for the
    extended ensemble used by the exact sampler and equidistribution checks.
    """

    values: tuple[int, ...]
    m: int

    def __post_init__(self) -> None:
        # operator.index: a float raises TypeError instead of being truncated
        values = tuple(map(operator.index, self.values))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "m", operator.index(self.m))
        if len(values) < 1:
            raise ValueError("preference sequence must have length >= 1")
        if self.m < 1:
            raise ValueError("codomain bound m must be >= 1")
        for v in values:
            if not 1 <= v <= self.m:
                raise ValueError(f"preference {v} outside [1, {self.m}]")

    @property
    def n(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


class ParkingFunction(tuple):
    """A validated parking function: sorted values satisfy pi'_i <= i.

    Constructed from any iterable of 1-based integers; invalid input raises
    ValueError (TypeError for a value that is not an integer) so downstream
    statistics carry no failure path.
    """

    __slots__ = ()

    def __new__(cls, values: Iterable[int]) -> "ParkingFunction":
        vals = tuple(map(operator.index, values))
        if not is_parking_function(vals):
            raise ValueError(f"{vals} is not a parking function")
        return tuple.__new__(cls, vals)

    @classmethod
    def _trusted(cls, values: tuple[int, ...]) -> "ParkingFunction":
        # Fast path for the sampler, whose shifted rows are parking functions
        # by construction; skips re-validation.
        return tuple.__new__(cls, values)

    @property
    def n(self) -> int:
        return len(self)


@dataclass(frozen=True)
class ParkOutcome:
    """Result of running the greedy parking process.

    On success `spots` is a permutation of [1, n], `lucky[i]` marks cars that
    got their preferred spot, and `inconvenience` totals the extra distance
    driven.  On failure `failed_at` is the 1-based index of the first car
    with no spot at or right of its preference.
    """

    spots: Optional[tuple[int, ...]]
    failed_at: Optional[int]
    lucky: Optional[tuple[bool, ...]]
    inconvenience: Optional[int]

    @property
    def success(self) -> bool:
        return self.failed_at is None


@dataclass(frozen=True)
class DyckCoding:
    """Labeled Dyck-path coding of a parking function.

    `column_labels[i-1]` lists the car indices (1-based, ascending) whose
    preference is i, stacked bottom-to-top in column i.  The labels fix the
    rest: `path` and `area`.  Labels that are not a partition of [1, n], or
    whose path dips below the diagonal, raise ValueError when the coding is
    built.
    """

    column_labels: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.n
        if sorted(car for labels in self.column_labels for car in labels) != list(range(1, n + 1)):
            raise ValueError(f"column labels are not a partition of [1, {n}]")
        running = 0
        for i, labels in enumerate(self.column_labels, start=1):
            running += len(labels)
            if running < i:
                raise ValueError("path dips below the main diagonal")

    @property
    def n(self) -> int:
        return len(self.column_labels)

    @property
    def path(self) -> str:
        """The lattice path as a string of 'N'/'E' steps: in column i, one
        north step per label, then one east step."""
        return "".join("N" * len(labels) + "E" for labels in self.column_labels)

    @property
    def area(self) -> int:
        """Labeled boxes strictly above the main diagonal: the box in row r
        of column i counts r - i when r > i."""
        area = base = 0
        for i, labels in enumerate(self.column_labels, start=1):
            area += sum(row - i for row in range(base + 1, base + len(labels) + 1) if row > i)
            base += len(labels)
        return area


def is_parking_function(seq: Sequence[int]) -> bool:
    """True iff seq is nonempty, its values lie in [1, n] for n = len(seq),
    and #{k : seq_k <= i} >= i for all i.

    O(n) via occurrence counting and prefix sums.
    """
    n = len(seq)
    if n < 1:
        return False
    counts = [0] * (n + 1)
    for v in seq:
        if not 1 <= v <= n:
            return False
        counts[v] += 1
    running = 0
    for i in range(1, n + 1):
        running += counts[i]
        if running < i:
            return False
    return True


def park(seq: Sequence[int]) -> ParkOutcome:
    """Simulate the greedy parking process: each car takes the first free
    spot at or right of its preference.

    Failure is a value (`failed_at`), not an error.  Uses a successor
    structure with path compression for near-linear total time.
    """
    values = tuple(seq)
    n = len(values)
    # nxt[s] = smallest free spot >= s (n + 1 acts as the "overflow" sentinel)
    nxt = list(range(n + 2))

    def find(s: int) -> int:
        root = s
        while nxt[root] != root:
            root = nxt[root]
        while nxt[s] != root:
            nxt[s], s = root, nxt[s]
        return root

    spots = [0] * n
    for i, pref in enumerate(values):
        if not 1 <= pref <= n:
            return ParkOutcome(spots=None, failed_at=i + 1, lucky=None, inconvenience=None)
        s = find(pref)
        if s > n:
            return ParkOutcome(spots=None, failed_at=i + 1, lucky=None, inconvenience=None)
        spots[i] = s
        nxt[s] = s + 1
    lucky = tuple(s == p for s, p in zip(spots, values))
    inconvenience = sum(s - p for s, p in zip(spots, values))
    return ParkOutcome(
        spots=tuple(spots), failed_at=None, lucky=lucky, inconvenience=inconvenience
    )


def inconvenience(pf: Sequence[int]) -> int:
    """Total extra distance driven: C(n+1, 2) - sum of preferences."""
    values = tuple(pf)
    n = len(values)
    return n * (n + 1) // 2 - sum(values)


def queue_profile(pf: Sequence[int]) -> tuple[int, ...]:
    """Profile y_k = #{i : pi_i <= k} - k for k = 0..n.

    Nonnegative with y_0 = y_n = 0 exactly when pf is a parking function.
    Values outside [1, n] raise ValueError.
    """
    values = tuple(pf)
    n = len(values)
    counts = [0] * (n + 1)
    for v in values:
        if not 1 <= v <= n:
            raise ValueError(f"value {v} outside [1, {n}]")
        counts[v] += 1
    profile = [0] * (n + 1)
    running = 0
    for k in range(1, n + 1):
        running += counts[k]
        profile[k] = running - k
    return tuple(profile)


def dyck_encode(pf: Sequence[int]) -> DyckCoding:
    """Encode a parking function as a labeled Dyck path.

    Column i holds the cars preferring spot i, stacked ascending by car
    index starting at height #{j : pi_j < i} + 1.  The path follows the left
    edges of the labeled boxes; area counts boxes strictly above the
    diagonal and equals the inconvenience.
    """
    values = tuple(pf)
    if not is_parking_function(values):
        raise ValueError("dyck_encode requires a parking function")
    columns: list[list[int]] = [[] for _ in values]
    for car, v in enumerate(values, start=1):
        columns[v - 1].append(car)
    return DyckCoding(column_labels=tuple(map(tuple, columns)))


def dyck_decode(coding: DyckCoding) -> ParkingFunction:
    """Invert the Dyck coding: car c prefers the column that lists it.  A
    `DyckCoding` checks its labels when it is built."""
    values = [0] * coding.n
    for i, labels in enumerate(coding.column_labels, start=1):
        for car in labels:
            values[car - 1] = i
    return ParkingFunction(values)
