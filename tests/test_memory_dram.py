"""DRAM array data storage and vulnerable-cell physics."""

import numpy as np
import pytest

from repro.errors import MemoryModelError
from repro.memory.dram import DRAMArray
from repro.memory.geometry import DRAMGeometry, PAGE_FRAME_SIZE


@pytest.fixture
def geometry():
    return DRAMGeometry(num_banks=4, rows_per_bank=32, row_size_bytes=8192)


class TestDataStorage:
    def test_read_back_what_was_written(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=0.0, seed=0)
        payload = np.arange(100, dtype=np.uint8)
        dram.write_bytes(12345, payload)
        np.testing.assert_array_equal(dram.read_bytes(12345, 100), payload)

    def test_write_spanning_rows(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=0.0, seed=0)
        start = 8192 - 50  # crosses a row boundary
        payload = np.full(100, 0xAB, dtype=np.uint8)
        dram.write_bytes(start, payload)
        np.testing.assert_array_equal(dram.read_bytes(start, 100), payload)

    def test_frame_io(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=0.0, seed=0)
        payload = np.random.default_rng(0).integers(0, 256, PAGE_FRAME_SIZE).astype(np.uint8)
        dram.write_frame(5, payload)
        np.testing.assert_array_equal(dram.read_frame(5), payload)

    def test_frame_payload_size_checked(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=0.0, seed=0)
        with pytest.raises(MemoryModelError):
            dram.write_frame(0, np.zeros(100, dtype=np.uint8))

    def test_negative_flip_mean_raises(self, geometry):
        with pytest.raises(MemoryModelError):
            DRAMArray(geometry, flips_per_page_mean=-1.0)


CELL_FIELDS = ("column", "bit", "direction", "strength")


class TestVulnerableCells:
    def test_cells_are_deterministic_per_device(self, geometry):
        a = DRAMArray(geometry, flips_per_page_mean=10.0, seed=3)
        b = DRAMArray(geometry, flips_per_page_mean=10.0, seed=3)
        cells_a, cells_b = a.vulnerable_cells(1, 5), b.vulnerable_cells(1, 5)
        assert len(cells_a) > 0
        for field in CELL_FIELDS:
            np.testing.assert_array_equal(getattr(cells_a, field), getattr(cells_b, field))

    def test_different_seeds_differ(self, geometry):
        a = DRAMArray(geometry, flips_per_page_mean=10.0, seed=3)
        b = DRAMArray(geometry, flips_per_page_mean=10.0, seed=4)
        cells_a, cells_b = a.vulnerable_cells(1, 5), b.vulnerable_cells(1, 5)
        assert not all(
            np.array_equal(getattr(cells_a, field), getattr(cells_b, field))
            for field in CELL_FIELDS
        )

    def test_density_matches_profile(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=12.0, seed=0)
        counts = [
            len(dram.vulnerable_cells(bank, row))
            for bank in range(geometry.num_banks)
            for row in range(geometry.rows_per_bank)
        ]
        mean_per_page = np.mean(counts) / geometry.pages_per_row
        assert mean_per_page == pytest.approx(12.0, rel=0.2)

    def test_zero_mean_has_no_cells(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=0.0, seed=0)
        cells = dram.vulnerable_cells(0, 0)
        assert len(cells) == 0
        assert all(getattr(cells, field).size == 0 for field in CELL_FIELDS)


class TestHammering:
    def test_full_intensity_flips_direction_compatible_cells(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=30.0, seed=1)
        cells = dram.vulnerable_cells(2, 3)
        up_cells = [c for c in cells if c.direction == 1]
        # victim row all zeros: only 0->1 cells can fire
        flips = dram.hammer_row(2, 3, intensity=1.0)
        assert len(flips) == len(up_cells)
        assert all(direction == 1 for _, _, direction in flips)

    def test_flips_actually_change_stored_data(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=30.0, seed=1)
        flips = dram.hammer_row(0, 1, intensity=1.0)
        row_bytes = dram.read_bytes(
            dram.geometry.frames_in_row(0, 1)[0] * PAGE_FRAME_SIZE, 8192
        )
        for column, bit, _ in flips:
            assert row_bytes[column] & (1 << bit)

    def test_hammering_is_idempotent_on_same_data(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=30.0, seed=1)
        first = dram.hammer_row(1, 1, intensity=1.0)
        second = dram.hammer_row(1, 1, intensity=1.0)
        assert first and not second  # already flipped cells cannot re-flip

    def test_one_to_zero_direction(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=30.0, seed=1)
        base = geometry.frames_in_row(3, 7)[0] * PAGE_FRAME_SIZE
        dram.write_bytes(base, np.full(8192, 0xFF, dtype=np.uint8))
        flips = dram.hammer_row(3, 7, intensity=1.0)
        assert flips and all(direction == -1 for _, _, direction in flips)

    def test_intensity_gates_cells_by_strength(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=40.0, seed=2)
        weak = len(dram.hammer_row(0, 9, intensity=0.4))
        dram2 = DRAMArray(geometry, flips_per_page_mean=40.0, seed=2)
        strong = len(dram2.hammer_row(0, 9, intensity=1.0))
        assert weak < strong

    def test_zero_intensity_never_flips(self, geometry):
        dram = DRAMArray(geometry, flips_per_page_mean=40.0, seed=2)
        assert dram.hammer_row(0, 0, intensity=0.0) == []
