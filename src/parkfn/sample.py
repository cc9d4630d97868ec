"""Seeded random generation of uniform functions and parking functions.

Uniformity over parking functions is exact: draw f uniform on [1, n+1]^n and
apply the unique cyclic shift (Pollak / cycle lemma) that lands in PF_n.
Streams are counter-based (Philox) so results are bit-reproducible for a
given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import ParkingFunction, PrefSequence
from .stats import queue_profiles, row_block

_U64 = 1 << 64
_ZEROS = (0, 0, 0, 0)
# 32-bit words a row of `draw_block` draws beyond its n values and the words
# it expects to skip.
SLACK = 32


def _philox_state(seed: int, index: int) -> dict:
    """Philox state of stream `index` under `seed`: key words [index, seed],
    counter 0, empty output buffer.  Both must lie in [0, 2^64); values
    outside would alias another stream."""
    if not 0 <= seed < _U64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    if not 0 <= index < _U64:
        raise ValueError(f"stream index must be in [0, 2^64), got {index}")
    return {"bit_generator": "Philox", "state": {"counter": _ZEROS, "key": (index, seed)},
            "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


@dataclass
class RngStream:
    """A deterministic random stream keyed by (seed, stream_index).

    Identical (seed, stream_index) yields an identical value sequence across
    runs and platforms (Philox is a fixed, platform-independent generator).
    """

    seed: int
    stream_index: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bitgen = np.random.Philox(0)
        bitgen.state = _philox_state(self.seed, self.stream_index)
        self._gen = np.random.Generator(bitgen)

    def integers(self, low: int, high: int, size=None):
        """Uniform integers on the inclusive range [low, high]."""
        return self._gen.integers(low, high + 1, size=size)


def split_stream(seed: int, index: int) -> RngStream:
    """Independent stream for sample `index` of an experiment."""
    return RngStream(seed=seed, stream_index=index)


def sample_uniform_function(n: int, m: int, rng: RngStream) -> PrefSequence:
    """Each coordinate independent uniform on [1, m]."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    values = rng.integers(1, m, size=n)
    return PrefSequence(values=tuple(int(v) for v in values), m=m)


def find_valid_shift(values: Sequence[int], n: int | None = None) -> int:
    """The unique k in [0, n] such that values +_{n+1} k(1,...,1) is in PF_n,
    for values in [1, n+1]: the k of `valid_shifts` for one row."""
    if n is None:
        n = len(values)
    block, _m = row_block(values, n + 1)
    return valid_shifts(block, n)[0].tolist()


def shift_sequence(values: Sequence[int], k: int, n: int | None = None) -> tuple[int, ...]:
    """Add k(1,...,1) mod n+1, representatives in [1, n+1]."""
    if n is None:
        n = len(values)
    mod = n + 1
    return tuple((v + k - 1) % mod + 1 for v in values)


def sample_parking_function(n: int, rng: RngStream) -> ParkingFunction:
    """Exactly uniform on PF_n via the shift map."""
    if n < 1:
        raise ValueError("n must be >= 1")
    values = shift_block(rng.integers(1, n + 1, size=(1, n)), n)[0]
    return ParkingFunction._trusted(tuple(int(v) for v in values))


def _bound(words: np.ndarray, high: int, out: np.ndarray) -> None:
    """Lemire's map of 32-bit words onto [1, high], into the uint64 `out`:
    1 + (u * high >> 32)."""
    np.multiply(words, np.uint64(high), out=out)
    out += 1 << 32
    out >>= 32


def draw_block(seed: int, start: int, stop: int, n: int, high: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """Rows start..stop-1 of an experiment, in the first rows of `out` if it
    is given: row r is `RngStream(seed, start + r).integers(1, high, size=n)`,
    for 1 <= high < 2^32.

    One bit generator serves the block; each row re-keys it by assigning its
    state and takes its raw 64-bit words in one call.  The block is then
    bounded at once as numpy bounds integers below 2^32 (Lemire's method):
    the 32-bit halves u of each word, low half first, map to
    1 + (u * high >> 32), and a word whose product has a low half below
    2^32 mod high is skipped.  A row left with fewer than n words is drawn
    again by numpy.
    """
    if not 1 <= high < 1 << 32:
        raise ValueError(f"high must be in [1, 2^32), got {high}")
    rows = stop - start
    block = np.empty((rows, n), dtype=np.int64) if out is None else out[:rows]
    threshold = (1 << 32) % high
    # about n * threshold / 2^32 words of a row are skipped; draw twice that
    # many more, plus SLACK, so that a redraw stays rare at any n
    words = (n + SLACK + 2 * (n * threshold >> 32) + 1) // 2
    raw = np.empty((rows, words), dtype=np.uint64)
    bitgen = np.random.Philox(0)
    for r, i in enumerate(range(start, stop)):
        bitgen.state = _philox_state(seed, i)
        raw[r] = bitgen.random_raw(words)
    u = raw.astype("<u8", copy=False).view("<u4")
    drawn = 2 * words
    rejecting = (u[:, :n] * np.uint32(high) < threshold).any(axis=1)
    prod = block.view(np.uint64)
    _bound(u[:, :n], high, prod)
    for r in np.flatnonzero(rejecting).tolist():
        skipped = np.flatnonzero(u[r] * np.uint32(high) < threshold).tolist()
        if drawn - len(skipped) < n:
            block[r] = RngStream(seed, start + r).integers(1, high, size=n)
            continue
        # the words between skipped words a and b fill the row from dst on
        dst = skipped[0]
        for a, b in zip(skipped, skipped[1:] + [drawn]):
            take = min(b - a - 1, n - dst)
            _bound(u[r, a + 1:a + 1 + take], high, prod[r, dst:dst + take])
            dst += take
            if dst == n:
                break
    return block


# The profile loop of `valid_shifts` beats the row-wise cumsum and argmin
# from 1024 rows at n <= 15 (0.45-0.8 times their time; at 512 rows
# 0.65-1.25).  It needs no temporary larger than one column, where a bincount
# of the block made glibc return and re-fault about 1.5 MB a block of PF_8.
_SHIFT_COLUMN_ROWS = 1024


def valid_shifts(block: np.ndarray, n: int) -> np.ndarray:
    """For each row of a block of functions [n] -> [n+1], the unique k in
    [0, n] such that the row +_{n+1} k(1,...,1) is in PF_n.  With steps
    c_j - 1 summing to -1 around the cycle, the valid rotation starts just
    after the first position j achieving the minimum partial sum, and
    k = n + 1 - j."""
    mod = n + 1
    rows = block.shape[0]
    if rows < _SHIFT_COLUMN_ROWS or n > 15:
        return (mod - 1 - np.argmin(queue_profiles(block, mod), axis=1)) % mod
    # Each row's value counts in 4-bit fields of one int64, the count of v in
    # field v - 1.  Multiplying by 0x1111... adds every field into the ones
    # above it (no carries: the sums are at most n <= 15), so field j - 1
    # becomes #{i : f_i <= j}, the partial sum plus j.  The first minimum
    # is then the running minimum of (partial sum << bits) | j, value by value.
    unit = np.zeros(mod + 1, dtype=np.int64)
    unit[1:] = np.left_shift(1, 4 * np.arange(mod))
    fields = np.zeros(rows, dtype=np.int64)
    for column in block.T:
        fields += unit[column]
    fields *= 0x1111111111111111  # wraps: fields past 15 fall off
    bits = mod.bit_length()
    key = np.empty(rows, dtype=np.int64)
    first_min = np.full(rows, np.iinfo(np.int64).max)
    for j in range(1, mod + 1):
        np.right_shift(fields, 4 * (j - 1), out=key)
        key &= 15
        key <<= bits
        key -= j * ((1 << bits) - 1)
        np.minimum(first_min, key, out=first_min)
    first_min &= (1 << bits) - 1
    return mod - first_min


def shift_block(block: np.ndarray, n: int) -> np.ndarray:
    """Apply `valid_shifts` and `shift_sequence` to every row of a block of
    functions [n] -> [n+1], in place; returns the block."""
    mod = n + 1
    block += (valid_shifts(block, n) - 1)[:, None]
    # values lie in [0, 2n]: one branch-free subtract is a mod n+1, of a
    # product in the narrowest dtype that holds n + 1
    block -= np.multiply(block >= mod, mod, dtype=np.min_scalar_type(mod))
    block += 1
    return block
