"""The DRAM fault model's bulk decode and array hammer against scalar oracles.

``scalar_cells`` is the per-cell generator the fault model used to run: one
scalar ``integers`` / ``random`` / ``uniform`` call per field, skipping a
repeated ``(column, bit)``.  ``DRAMArray.vulnerable_cells`` now decodes each
row's PCG64 words in bulk (DESIGN.md, "DRAM fault model: bulk stream
decode"), and ``DRAMArray.hammer_row`` applies one masked update per row.
These tests pin both to the scalar code exactly, in order.  They also pin
the decode to NumPy's ``Generator`` internals: a NumPy release that changes
how scalar draws consume the bit stream fails here first.
"""

from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.dram import DRAMArray
from repro.memory.geometry import DRAMGeometry, PAGE_FRAME_SIZE

# Table I's B1, L2, the paper-scale 54, K1, and a dense 300 flips/page.
DENSITIES = (1.05, 13.98, 54.0, 100.68, 300.0)
# 12288 is not a power of two, so its column draws can reject.
ROW_SIZES = (4096, 8192, 16384, 12288)
NUM_BANKS, ROWS_PER_BANK = 4, 64

# 12288-byte rows whose column draws hit an odd number of Lemire
# rejections, found by search; the test proves each rejection.  The second
# row repeats no draw, so its replay needs one word more than the bulk
# decode drew up front.
REJECTION_ROWS = (
    dict(seed=3, flips_per_page_mean=300.0, bank=3, row=44, repeats=3),
    dict(seed=57, flips_per_page_mean=54.0, bank=3, row=31, repeats=0),
)

Cells = List[Tuple[int, int, int, float]]


def row_generator(seed: int, bank: int, row: int) -> np.random.Generator:
    """The generator ``DRAMArray(seed=seed)`` draws one row's cells from."""
    device_seed = int(np.random.default_rng(seed).integers(0, 2**63))
    return np.random.default_rng(np.random.SeedSequence([device_seed, bank, row]))


def scalar_cells(rng: np.random.Generator, flips_per_page_mean: float, row_bytes: int) -> Cells:
    """One row's ``(column, bit, direction, strength)`` cells, drawn scalar by scalar."""
    count = int(rng.poisson(flips_per_page_mean * (row_bytes // PAGE_FRAME_SIZE)))
    cells: Cells = []
    seen = set()
    for _ in range(count):
        column = int(rng.integers(0, row_bytes))
        bit = int(rng.integers(0, 8))
        if (column, bit) in seen:
            continue
        seen.add((column, bit))
        direction = 1 if rng.random() < 0.5 else -1
        cells.append((column, bit, direction, float(rng.uniform(0.0, 1.0))))
    return cells


def scalar_hammer(data: np.ndarray, cells: Cells, intensity: float) -> List[Tuple[int, int, int]]:
    """Hammer ``data`` in place cell by cell; returns the flips in cell order."""
    flipped = []
    for column, bit, direction, strength in cells:
        if strength > intensity:
            continue
        mask = 1 << bit
        current = bool(data[column] & mask)
        if direction == 1 and not current:
            data[column] |= mask
            flipped.append((column, bit, 1))
        elif direction == -1 and current:
            data[column] &= 0xFF ^ mask
            flipped.append((column, bit, -1))
    return flipped


def make_dram(seed: int, flips_per_page_mean: float, row_bytes: int) -> DRAMArray:
    geometry = DRAMGeometry(
        num_banks=NUM_BANKS, rows_per_bank=ROWS_PER_BANK, row_size_bytes=row_bytes
    )
    return DRAMArray(geometry, flips_per_page_mean=flips_per_page_mean, seed=seed)


def decoded_cells(seed, flips_per_page_mean, row_bytes, bank, row) -> Cells:
    cells = make_dram(seed, flips_per_page_mean, row_bytes).vulnerable_cells(bank, row)
    assert len(cells) == len(cells.column) == len(cells.strength)
    return [tuple(cell) for cell in cells]


_ROWS = dict(
    seed=st.integers(0, 2**32 - 1),
    flips_per_page_mean=st.sampled_from(DENSITIES),
    row_bytes=st.sampled_from(ROW_SIZES),
    bank=st.integers(0, NUM_BANKS - 1),
    row=st.integers(0, ROWS_PER_BANK - 1),
)


@settings(max_examples=80, deadline=None)
@given(**_ROWS)
def test_bulk_decode_matches_scalar_draws(seed, flips_per_page_mean, row_bytes, bank, row):
    expected = scalar_cells(row_generator(seed, bank, row), flips_per_page_mean, row_bytes)
    assert decoded_cells(seed, flips_per_page_mean, row_bytes, bank, row) == expected


def test_dense_rows_with_repeated_draws_decode_exactly():
    skipped = 0
    for row in range(8):
        rng = row_generator(0, 1, row)
        expected = scalar_cells(rng, 300.0, 16384)
        draws = int(row_generator(0, 1, row).poisson(300.0 * 4))
        skipped += draws - len(expected)
        assert decoded_cells(0, 300.0, 16384, 1, row) == expected
    assert skipped >= 8  # the repeat re-alignment really ran


@pytest.mark.parametrize("spec", REJECTION_ROWS)
def test_lemire_rejection_rows_decode_exactly(spec):
    rng = row_generator(spec["seed"], spec["bank"], spec["row"])
    expected = scalar_cells(rng, spec["flips_per_page_mean"], 12288)
    draws = int(
        row_generator(spec["seed"], spec["bank"], spec["row"]).poisson(
            spec["flips_per_page_mean"] * 3
        )
    )
    assert draws - len(expected) == spec["repeats"]
    # Without a rejection every column/bit pair consumes one whole word,
    # so PCG64 ends with no 32-bit half buffered.
    assert rng.bit_generator.state["has_uint32"] == 1
    decoded = decoded_cells(
        spec["seed"], spec["flips_per_page_mean"], 12288, spec["bank"], spec["row"]
    )
    assert decoded == expected


@settings(max_examples=60, deadline=None)
@given(
    **_ROWS,
    intensity=st.floats(0.0, 1.0, exclude_min=True),
    data_seed=st.integers(0, 2**16),
)
def test_array_hammer_matches_scalar_loop(
    seed, flips_per_page_mean, row_bytes, bank, row, intensity, data_seed
):
    data = np.random.default_rng(data_seed).integers(0, 256, row_bytes, dtype=np.uint8)
    dram = make_dram(seed, flips_per_page_mean, row_bytes)
    dram.row_data(bank, row)[:] = data
    flips = dram.hammer_row(bank, row, intensity)

    expected_data = data.copy()
    cells = scalar_cells(row_generator(seed, bank, row), flips_per_page_mean, row_bytes)
    expected = scalar_hammer(expected_data, cells, intensity)
    assert flips == expected
    np.testing.assert_array_equal(dram.row_data(bank, row), expected_data)


def test_array_hammer_flips_every_cell_of_a_shared_byte():
    dram = make_dram(0, 300.0, 4096)
    flips = dram.hammer_row(0, 0, 1.0)  # an all-zero row: every 0->1 cell fires
    columns = [column for column, _, _ in flips]
    assert len(set(columns)) < len(columns)  # some byte takes several flips

    expected_data = np.zeros(4096, dtype=np.uint8)
    cells = scalar_cells(row_generator(0, 0, 0), 300.0, 4096)
    assert flips == scalar_hammer(expected_data, cells, 1.0)
    np.testing.assert_array_equal(dram.row_data(0, 0), expected_data)
