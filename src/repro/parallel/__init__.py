"""Parallel experiment fan-out: grids, journals, runner, queue and merge.

Reproducing a paper table is a grid of independent pipeline runs; this
package fans such grids out with deterministic output (worker count and
scheduling never change numbers), JSONL checkpoint/resume and structured
failure handling.  Three layers:

- **One host**: :func:`run_sweep` shards the grid across a process pool.
- **Many hosts, static**: `ShardSpec`/`run_sweep(shard=...)` partition the
  grid into contiguous slices, one journal per shard.
- **Many hosts, dynamic**: :func:`init_queue`/:func:`run_queue` expose the
  grid as a filesystem-backed work-stealing queue for heterogeneous hosts
  (:mod:`repro.parallel.scheduler`).

Every journal carries one header schema (grid SHA, grid task ids and the
owning ``worker``), so either multi-host mode -- or a mix of both -- ends
with :func:`merge_journals`, which reassembles the per-host journals into
the byte-identical unsharded result.  See
``README.md`` ("Running a multi-host sweep") and the DESIGN.md
"Distributed sweeps" chapter.
"""

from repro.parallel.grid import (
    ShardSpec,
    SweepGrid,
    SweepTask,
    ensure_unique,
    grid_sha_of,
    task_ids_of,
)
from repro.parallel.journal import (
    JOURNAL_SCHEMA,
    JournalState,
    SweepJournal,
)
from repro.parallel.merge import (
    MergeResult,
    ShardView,
    merge_journals,
    merged_events,
    merged_metrics,
    write_merged_events,
    write_merged_journal,
    write_merged_rows,
)
from repro.parallel.runner import SweepResult, TaskOutcome, run_sweep
from repro.parallel.scheduler import (
    QueueManifest,
    QueueRunResult,
    QueueStatus,
    init_queue,
    load_queue,
    queue_status,
    run_queue,
)
from repro.parallel.worker import execute_task, initialize_worker, reset_worker_state

__all__ = [
    "JOURNAL_SCHEMA",
    "JournalState",
    "MergeResult",
    "QueueManifest",
    "QueueRunResult",
    "QueueStatus",
    "ShardSpec",
    "ShardView",
    "SweepGrid",
    "SweepJournal",
    "SweepResult",
    "SweepTask",
    "TaskOutcome",
    "ensure_unique",
    "execute_task",
    "grid_sha_of",
    "init_queue",
    "initialize_worker",
    "load_queue",
    "merge_journals",
    "merged_events",
    "merged_metrics",
    "queue_status",
    "reset_worker_state",
    "run_queue",
    "run_sweep",
    "task_ids_of",
    "write_merged_events",
    "write_merged_journal",
    "write_merged_rows",
]
