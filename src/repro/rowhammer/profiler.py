"""Memory profiling for faults (Section IV-A2).

Profiling scans attacker-owned memory for flippable cells before the victim
runs: victim rows are filled with all-zeros to expose 0->1 flips, hammered,
read back, then filled with all-ones for the 1->0 direction.  The result is
a :class:`FlipProfile`: the device's usable fault map in page coordinates,
which the templating step matches against the weight file's needed flips.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.errors import RowhammerError
from repro.memory.geometry import PAGE_FRAME_SIZE
from repro.memory.mmap import MappedFile, OSMemoryModel
from repro.rowhammer.hammer import HammerEngine

# Paper: profiling 128 MB takes 94 minutes (Section IV-A2).
PROFILE_MINUTES_PER_128MB = 94.0


@dataclasses.dataclass(frozen=True)
class FlipRecord:
    """One repeatable bit flip found during profiling."""

    frame: int  # physical page frame number
    byte_offset: int  # offset within the 4 KB page
    bit: int  # 0 = LSB .. 7 = MSB
    direction: int  # +1: 0->1, -1: 1->0
    n_sides: int  # hammer pattern that produced it

    @property
    def key(self) -> Tuple[int, int, int]:
        """Page-relative identity: (byte_offset, bit, direction)."""
        return (self.byte_offset, self.bit, self.direction)


@dataclasses.dataclass
class FlipProfile:
    """The fault map of a profiled buffer."""

    records: List[FlipRecord]
    profiled_frames: List[int]
    n_sides: int

    @property
    def num_flips(self) -> int:
        return len(self.records)

    @property
    def num_frames(self) -> int:
        return len(self.profiled_frames)

    def by_frame(self) -> Dict[int, List[FlipRecord]]:
        out: Dict[int, List[FlipRecord]] = {frame: [] for frame in self.profiled_frames}
        for record in self.records:
            out.setdefault(record.frame, []).append(record)
        return out

    def flips_per_page(self) -> np.ndarray:
        """Flip count for every profiled frame (zeros included)."""
        per_frame = self.by_frame()
        return np.array([len(per_frame[f]) for f in self.profiled_frames])

    @property
    def avg_flips_per_page(self) -> float:
        if not self.profiled_frames:
            return 0.0
        return self.num_flips / self.num_frames

    @property
    def flip_fraction(self) -> float:
        """Fraction of profiled cells that flipped (Fig. 2's 0.036 %)."""
        total_bits = self.num_frames * PAGE_FRAME_SIZE * 8
        return self.num_flips / total_bits if total_bits else 0.0

    def direction_counts(self) -> Tuple[int, int]:
        """(num 0->1, num 1->0); the paper observes these nearly equal."""
        up = sum(1 for r in self.records if r.direction == 1)
        return up, self.num_flips - up

    def estimated_minutes(self) -> float:
        """Profiling wall-clock estimate from the paper's 94 min / 128 MB."""
        profiled_bytes = self.num_frames * PAGE_FRAME_SIZE
        return PROFILE_MINUTES_PER_128MB * profiled_bytes / (128 * 1024 * 1024)

    def merge(self, other: "FlipProfile") -> "FlipProfile":
        """Combine profiles of disjoint buffers (multiple 128 MB passes)."""
        overlap = set(self.profiled_frames) & set(other.profiled_frames)
        if overlap:
            raise RowhammerError(f"profiles overlap on frames {sorted(overlap)[:5]}...")
        return FlipProfile(
            records=self.records + other.records,
            profiled_frames=self.profiled_frames + other.profiled_frames,
            n_sides=min(self.n_sides, other.n_sides),
        )


class MemoryProfiler:
    """Profiles attacker-owned frames for repeatable bit flips."""

    def __init__(self, os_model: OSMemoryModel, engine: HammerEngine) -> None:
        self.os = os_model
        self.engine = engine

    def profile_mapping(self, mapping: MappedFile, n_sides: int) -> FlipProfile:
        """Profile every frame of an (anonymous) attacker mapping."""
        frames = [mapping.frames[page] for page in sorted(mapping.frames)]
        return self.profile_frames(frames, n_sides)

    def profile_frames(self, frames: Sequence[int], n_sides: int) -> FlipProfile:
        """Profile explicit physical frames for both flip directions."""
        geometry = self.os.dram.geometry
        records: List[FlipRecord] = []
        # Group frames by the DRAM row that contains them; rows are the
        # hammering granularity, pages the reporting granularity.
        rows: Dict[Tuple[int, int], List[int]] = {}
        for frame in frames:
            address = geometry.frame_address(frame)
            rows.setdefault((address.bank, address.row), []).append(frame)

        frame_set = set(frames)
        with telemetry.span("profiler.sweep", frames=len(frames), n_sides=n_sides):
            for (bank, row), row_frames in rows.items():
                records.extend(
                    self._profile_row(bank, row, frame_set, n_sides)
                )
        if telemetry.enabled():
            telemetry.counter_add("profiler.rows_hammered", len(rows))
            telemetry.counter_add("profiler.flips_found", len(records))
            if frames:
                telemetry.gauge_set("profiler.flip_yield_per_page", len(records) / len(frames))
        if telemetry.events_enabled():
            telemetry.event(
                "profiler.summary",
                frames=len(frames),
                rows=len(rows),
                flips=len(records),
                n_sides=n_sides,
            )
        return FlipProfile(records=records, profiled_frames=list(frames), n_sides=n_sides)

    def _profile_row(
        self, bank: int, row: int, frame_set: set, n_sides: int
    ) -> List[FlipRecord]:
        dram = self.os.dram
        all_frames = dram.geometry.frames_in_row(bank, row)
        if not all_frames:
            return []
        base_frame = all_frames[0]
        owned = [base_frame + page in frame_set for page in range(dram.geometry.pages_per_row)]
        data = dram.row_data(bank, row)
        original = data.copy()

        records: List[FlipRecord] = []
        for fill, direction in ((0x00, 1), (0xFF, -1)):
            data.fill(fill)
            result = self.engine.hammer_victim(bank, row, n_sides)
            records.extend(
                FlipRecord(
                    frame=base_frame + column // PAGE_FRAME_SIZE,
                    byte_offset=column % PAGE_FRAME_SIZE,
                    bit=bit,
                    direction=direction,
                    n_sides=n_sides,
                )
                for column, bit, flip_direction in result.flips
                if flip_direction == direction and owned[column // PAGE_FRAME_SIZE]
            )
        # Restore whatever the row held before profiling.
        data[:] = original
        return records
