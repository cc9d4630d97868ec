"""Seeded random generation of uniform functions and parking functions.

Uniformity over parking functions is exact: draw f uniform on [1, n+1]^n and
apply the unique cyclic shift (Pollak / cycle lemma) that lands in PF_n.
Streams are counter-based (Philox) so results are bit-reproducible for a
given seed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import ParkingFunction, PrefSequence
from .stats import _walks, row_block

_U64 = 1 << 64
_ZEROS = (0, 0, 0, 0)
# 32-bit words a row of `draw_block` draws beyond its n values and the words
# it expects to skip.
SLACK = 32


def _philox_state(seed: int, index: int) -> dict:
    """Philox state of stream `index` under `seed`: key words [index, seed],
    counter 0, empty output buffer.  Both must be ints in [0, 2^64); values
    outside would alias another stream, and so would a float, which numpy
    truncates (callers take `operator.index` of them once)."""
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
        bitgen.state = _philox_state(operator.index(self.seed),
                                     operator.index(self.stream_index))
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


def find_valid_shift(values: Sequence[int]) -> int:
    """The unique k in [0, n] such that values +_{n+1} k(1,...,1) is in PF_n,
    for n = len(values) and values in [1, n+1] (ValueError otherwise): the k
    of `valid_shifts` for one row."""
    block, m = row_block(values, len(values) + 1)
    return valid_shifts(block, m - 1)[0].tolist()


def shift_sequence(values: Sequence[int], k: int) -> tuple[int, ...]:
    """Add k(1,...,1) mod n+1 to values in [1, n+1], n = len(values), with
    representatives in [1, n+1]; k must be an integer (TypeError otherwise)."""
    k = operator.index(k)
    block, mod = row_block(values, len(values) + 1)
    return tuple((v + k - 1) % mod + 1 for v in block[0].tolist())


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

    One bit generator and one state dict serve the block: each row sets the
    dict's key to its own index, assigns the dict and takes its raw 64-bit
    words in one call.  The block is then bounded at once as numpy bounds
    integers below 2^32 (Lemire's method):
    the 32-bit halves u of each word, low half first, map to
    1 + (u * high >> 32), and a word whose product has a low half below
    2^32 mod high is skipped.  A row left with fewer than n words is drawn
    again by numpy.
    """
    if not 1 <= high < 1 << 32:
        raise ValueError(f"high must be in [1, 2^32), got {high}")
    seed = operator.index(seed)  # the row indices come from range(): ints
    rows = stop - start
    block = np.empty((rows, n), dtype=np.int64) if out is None else out[:rows]
    threshold = (1 << 32) % high
    # about n * threshold / 2^32 words of a row are skipped; draw twice that
    # many more, plus SLACK, so that a redraw stays rare at any n
    words = (n + SLACK + 2 * (n * threshold >> 32) + 1) // 2
    raw = np.empty((rows, words), dtype=np.uint64)
    bitgen = np.random.Philox(0)
    state = _philox_state(seed, start)
    if rows > 0:
        _philox_state(seed, stop - 1)  # the last index; those between are in range too
    key = state["state"]
    for r, i in enumerate(range(start, stop)):
        key["key"] = (i, seed)
        bitgen.state = state
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


def valid_shifts(block: np.ndarray, n: int) -> np.ndarray:
    """For each row of a block of functions [n] -> [n+1], the unique k in
    [0, n] such that the row +_{n+1} k(1,...,1) is in PF_n.  The valid
    rotation of the walk (`_walks`) starts just after its first minimum J,
    and k = n + 1 - J."""
    return n + 1 - _walks(block, n)[1]


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
