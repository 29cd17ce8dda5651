"""The DRAM array simulator: data storage plus vulnerable-cell physics.

Vulnerable cells are the core physical fact the paper's constraints derive
from: only ~0.036 % of cells are flippable at all, each cell flips in exactly
one direction, and flips are sparse and uniformly scattered (Fig. 2).  Each
simulated device draws its cells deterministically from a seed, with density
set by the device's measured flips-per-page average (Table I).

A cell also carries a *strength* in [0, 1): hammering with more aggressor
rows reaches weaker cells (higher strength threshold), which reproduces the
n-sided yield curve of Fig. 5 and the 15- vs 7-sided trade-off of Fig. 6.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, Iterator, List, NamedTuple, Tuple

import numpy as np

from repro.errors import MemoryModelError
from repro.memory.geometry import DRAMGeometry, PAGE_FRAME_SIZE
from repro.utils.rng import SeedLike, new_rng

# Each drawn cell consumes three PCG64 words: the column and bit draws
# share one (low and high 32-bit halves), then one each for the direction
# coin and the strength.
_WORDS_PER_CELL = 3
_LOW32 = 0xFFFF_FFFF
_DOUBLE_SCALE = 2.0**-53  # Generator.random(): the top 53 bits of a word


class Cell(NamedTuple):
    """One vulnerable cell, as iterating :class:`RowCells` yields it."""

    column: int
    bit: int
    direction: int
    strength: float


@dataclasses.dataclass(frozen=True, eq=False)
class RowCells:
    """The Rowhammer-flippable cells of one DRAM row, in draw order.

    Parallel arrays, one entry per cell; ``(column, bit)`` pairs are unique.

    Attributes
    ----------
    column:
        Byte offset within the row.
    bit:
        Bit within the byte (0 = LSB).
    direction:
        +1: the cell can only flip 0 -> 1; -1: only 1 -> 0.
    strength:
        Hammer intensity in [0, 1) needed to flip the cell; stronger
        (more-sided) hammer patterns reach higher-strength cells.
    """

    column: np.ndarray
    bit: np.ndarray
    direction: np.ndarray
    strength: np.ndarray

    def __len__(self) -> int:
        return len(self.column)

    def __iter__(self) -> Iterator[Cell]:
        arrays = (self.column, self.bit, self.direction, self.strength)
        return map(Cell._make, zip(*(array.tolist() for array in arrays)))


def _decode_cells(bit_generator: np.random.BitGenerator, count: int, row_bytes: int) -> RowCells:
    """Decode ``count`` cell draws from a PCG64 stream in bulk.

    Byte-identical to drawing each cell with scalar calls: ``integers(0,
    row_bytes)`` and ``integers(0, 8)``, skipping a repeated ``(column,
    bit)``, else ``random() < 0.5`` for the direction and ``uniform(0, 1)``
    for the strength.  The two integer draws are Lemire reductions of one
    word's low and (buffered) high 32 bits; a skipped repeat consumes that
    word only, so the decode re-aligns after each repeat.  A Lemire draw
    can reject only when ``row_bytes`` is not a power of two; rows whose
    words could hit that are replayed exactly by :func:`_walk_cells`.
    """
    words = bit_generator.random_raw(_WORDS_PER_CELL * count)
    scaled = (words & _LOW32) * np.uint64(row_bytes)
    threshold = (1 << 32) % row_bytes
    if threshold and np.any((scaled & _LOW32) < threshold):
        return _walk_cells(bit_generator, words.tolist(), count, row_bytes)
    column = scaled >> 32  # integers(0, row_bytes), per word
    bit = words >> 61  # integers(0, 8): the high half's top 3 bits
    keys = column << 3 | bit

    # Cell k sits at word start + 3k until a repeat; it then shifts back 2.
    kept = [np.zeros(0, dtype=np.int64)]
    seen = keys[:0]
    start, remaining = 0, count
    while remaining:
        at = start + _WORDS_PER_CELL * np.arange(remaining)
        merged = np.concatenate([seen, keys[at]])
        order = np.argsort(merged, kind="stable")
        ordered = merged[order]
        # A stable sort puts each later copy of a key right after an earlier one.
        later = order[1:][ordered[1:] == ordered[:-1]]
        if not later.size:
            kept.append(at)
            break
        repeat = int(later.min()) - len(seen)
        kept.append(at[:repeat])
        seen = merged[: len(seen) + repeat]
        start = int(at[repeat]) + 1
        remaining -= repeat + 1
    at = np.concatenate(kept)
    unit = (words >> 11) * _DOUBLE_SCALE  # random() / uniform(0, 1), per word
    return RowCells(
        column=column[at].astype(np.int64),
        bit=bit[at].astype(np.int64),
        direction=np.where(unit[at + 1] < 0.5, 1, -1),
        strength=unit[at + 2],
    )


def _walk_cells(
    bit_generator: np.random.BitGenerator, words: List[int], count: int, row_bytes: int
) -> RowCells:
    """Replay the cell draws word by word, Lemire rejections included.

    A rejected column draw re-draws from the buffered high half, which
    shifts every later 32-bit draw by half a word; the stream is extended
    from ``bit_generator`` if the rejections outrun the words drawn.
    """
    stream = itertools.chain(words, iter(bit_generator.random_raw, None))
    buffered: List[int] = []  # the high half PCG64 holds back from a 32-bit draw

    def bounded(high: int) -> int:
        threshold = (1 << 32) % high
        while True:
            if buffered:
                half = buffered.pop()
            else:
                word = next(stream)
                buffered.append(word >> 32)
                half = word & _LOW32
            scaled = half * high
            if scaled & _LOW32 >= threshold:
                return scaled >> 32

    cells: List[Tuple[int, int, int, float]] = []
    seen = set()
    for _ in range(count):
        column, bit = bounded(row_bytes), bounded(8)
        if (column, bit) in seen:
            continue
        seen.add((column, bit))
        coin, strength = ((next(stream) >> 11) * _DOUBLE_SCALE for _ in range(2))
        cells.append((column, bit, 1 if coin < 0.5 else -1, strength))
    column, bit, direction, strength = zip(*cells) if cells else ((),) * 4
    return RowCells(
        column=np.array(column, dtype=np.int64),
        bit=np.array(bit, dtype=np.int64),
        direction=np.array(direction, dtype=np.int64),
        strength=np.array(strength, dtype=np.float64),
    )


class DRAMArray:
    """A simulated DRAM device with lazily materialized rows and faults.

    Parameters
    ----------
    geometry:
        Bank/row shape of the device.
    flips_per_page_mean:
        Average number of vulnerable cells per 4 KB page (Table I column).
    seed:
        Seed fixing the device's fault map; two arrays with the same seed
        and parameters have identical vulnerable cells (it is a *device*
        property, stable across profiling and attack runs).
    """

    def __init__(
        self,
        geometry: DRAMGeometry,
        flips_per_page_mean: float,
        seed: SeedLike = 0,
    ) -> None:
        if flips_per_page_mean < 0:
            raise MemoryModelError(
                f"flips_per_page_mean must be non-negative, got {flips_per_page_mean}"
            )
        self.geometry = geometry
        self.flips_per_page_mean = float(flips_per_page_mean)
        root = new_rng(seed)
        self._device_seed = int(root.integers(0, 2**63))
        self._rows: Dict[Tuple[int, int], np.ndarray] = {}
        self._cells: Dict[Tuple[int, int], RowCells] = {}

    # ------------------------------------------------------------------
    # Data storage
    # ------------------------------------------------------------------
    def row_data(self, bank: int, row: int) -> np.ndarray:
        """The row's backing bytes (zero-filled on first use); writes go through."""
        key = (bank, row)
        data = self._rows.get(key)
        if data is None:
            data = np.zeros(self.geometry.row_size_bytes, dtype=np.uint8)
            self._rows[key] = data
        return data

    def write_bytes(self, phys_addr: int, payload: np.ndarray) -> None:
        """Write raw bytes starting at a physical address (may span rows)."""
        payload = np.asarray(payload, dtype=np.uint8)
        cursor = 0
        while cursor < payload.size:
            address = self.geometry.address_of(phys_addr + cursor)
            row = self.row_data(address.bank, address.row)
            room = self.geometry.row_size_bytes - address.column
            take = min(room, payload.size - cursor)
            row[address.column : address.column + take] = payload[cursor : cursor + take]
            cursor += take

    def read_bytes(self, phys_addr: int, count: int) -> np.ndarray:
        """Read raw bytes starting at a physical address (may span rows)."""
        out = np.empty(count, dtype=np.uint8)
        cursor = 0
        while cursor < count:
            address = self.geometry.address_of(phys_addr + cursor)
            row = self.row_data(address.bank, address.row)
            room = self.geometry.row_size_bytes - address.column
            take = min(room, count - cursor)
            out[cursor : cursor + take] = row[address.column : address.column + take]
            cursor += take
        return out

    def write_frame(self, frame: int, payload: np.ndarray) -> None:
        """Write a full 4 KB page frame."""
        payload = np.asarray(payload, dtype=np.uint8)
        if payload.size != PAGE_FRAME_SIZE:
            raise MemoryModelError(
                f"frame payload must be {PAGE_FRAME_SIZE} bytes, got {payload.size}"
            )
        self.write_bytes(frame * PAGE_FRAME_SIZE, payload)

    def read_frame(self, frame: int) -> np.ndarray:
        """Read a full 4 KB page frame."""
        return self.read_bytes(frame * PAGE_FRAME_SIZE, PAGE_FRAME_SIZE)

    # ------------------------------------------------------------------
    # Fault map
    # ------------------------------------------------------------------
    def vulnerable_cells(self, bank: int, row: int) -> RowCells:
        """Deterministic vulnerable cells of one row (lazily drawn)."""
        key = (bank, row)
        cells = self._cells.get(key)
        if cells is None:
            rng = new_rng(np.random.SeedSequence([self._device_seed, bank, row]))
            expected = self.flips_per_page_mean * self.geometry.pages_per_row
            count = int(rng.poisson(expected))
            # A physical cell has exactly one flip direction: the decode
            # skips the (rare) duplicate (column, bit) draw.
            cells = _decode_cells(rng.bit_generator, count, self.geometry.row_size_bytes)
            self._cells[key] = cells
        return cells

    def hammer_row(self, bank: int, row: int, intensity: float) -> List[Tuple[int, int, int]]:
        """Disturb one victim row with the given hammer intensity.

        Every vulnerable cell with ``strength <= intensity`` whose stored bit
        currently opposes its flip direction is flipped in place.  Returns
        the flips as (column, bit, direction) tuples, in cell order.
        """
        if intensity <= 0:
            return []
        data = self.row_data(bank, row)
        cells = self.vulnerable_cells(bank, row)
        # (column, bit) is unique per cell, so no flip changes a bit another
        # cell tests: testing all cells against the pre-hammer bytes is exact.
        stored = data[cells.column] >> cells.bit & 1
        fires = (cells.strength <= intensity) & (stored == (cells.direction < 0))
        column, bit, direction = cells.column[fires], cells.bit[fires], cells.direction[fires]
        # A firing cell's bit opposes its direction, so flipping it is a
        # toggle.  Several cells can share a byte, hence the unbuffered at.
        np.bitwise_xor.at(data, column, (1 << bit).astype(np.uint8))
        return list(zip(column.tolist(), bit.tolist(), direction.tolist()))

    def observed_flip_fraction(self) -> float:
        """Fraction of cells that are vulnerable (for Fig. 2's 0.036 %)."""
        return self.flips_per_page_mean / (PAGE_FRAME_SIZE * 8)
