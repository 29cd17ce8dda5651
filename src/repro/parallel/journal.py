"""JSONL checkpoint journal for parallel sweeps.

One line per event, appended and flushed as tasks finish, so a sweep killed
at any point leaves a journal whose intact prefix is a valid checkpoint:

- ``{"kind": "header", ...}``   -- grid identity (``grid_sha`` over the
  *full* canonical grid + ``total_tasks``), the ``worker`` that owns the
  journal and the full grid's ``grid_task_ids`` in canonical order, once;
- ``{"kind": "result", ...}``   -- one per finished task (``ok``,
  ``failed``, or ``superseded`` when a queue worker lost the commit race),
  carrying the row and -- when captured -- the task's metrics, span tree
  and flight-recorder events, so a journal is the *complete* output
  ``repro merge`` needs to reassemble the sweep;
- ``{"kind": "resume", ...}``   -- appended each time a sweep resumes.

Every journal has that one header, whoever wrote it: a queue worker
(:mod:`repro.parallel.scheduler`) names itself, ``run_sweep`` names its
shard (``shard-<i>-of-<n>``; an unsharded run is ``shard-0-of-1``), and a
``repro merge`` output is ``worker="merged"``.  The header never says
which tasks a journal owns: its result records do, which is what lets
``repro merge`` validate every journal the same way.

Loading tolerates a torn trailing line (the kill case) and skips malformed
interior lines rather than aborting, because losing one checkpoint entry
only costs re-running that task.  Later ``result`` lines for one task
supersede earlier ones, which is how a queue worker retracts a result that
lost the duplicate-completion race (``status="superseded"``).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, IO, List, Optional, Sequence, Tuple, Union

from repro.errors import SweepError
from repro.log import get_logger

JOURNAL_SCHEMA = 1

log = get_logger(__name__)


def build_result_record(
    task_id: str,
    status: str,
    attempts: int,
    duration_seconds: float,
    row: Optional[Dict[str, object]] = None,
    error: Optional[Dict[str, object]] = None,
    metrics: Optional[Dict[str, object]] = None,
    spans: Optional[List[Dict[str, object]]] = None,
    events: Optional[List[Dict[str, object]]] = None,
    **extra: object,
) -> Dict[str, object]:
    """One ``result`` journal line, shared by the pool runner and the queue
    scheduler so both journal byte-compatible records.

    Successful records carry the row plus any captured telemetry (metrics,
    span tree, flight-recorder events) -- the journal is a task's *complete*
    output, which is what lets ``repro merge`` reassemble a sweep without
    talking to the host that ran it.  Failed records carry the structured
    ``error`` instead.
    """
    record: Dict[str, object] = {
        "kind": "result",
        "task_id": task_id,
        "status": status,
        "attempts": attempts,
        "duration_seconds": duration_seconds,
        **extra,
    }
    if status == "ok":
        record["row"] = row
        if metrics is not None:
            record["metrics"] = metrics
        if spans is not None:
            record["spans"] = spans
        if events is not None:
            record["events"] = events
    elif status == "failed" or error is not None:
        record["error"] = error
    return record


@dataclasses.dataclass
class JournalState:
    """Parsed view of an on-disk journal."""

    header: Optional[Dict[str, object]] = None
    records: Dict[str, Dict[str, object]] = dataclasses.field(default_factory=dict)
    resumes: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    malformed_lines: int = 0

    @property
    def completed(self) -> Dict[str, Dict[str, object]]:
        """task_id -> record for every task that finished successfully."""
        return {
            task_id: record
            for task_id, record in self.records.items()
            if record.get("status") == "ok"
        }


class SweepJournal:
    """Append-only JSONL writer with crash-tolerant loading."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle: Optional[IO[str]] = None

    # -- writing ---------------------------------------------------------
    def open(self) -> "SweepJournal":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # A sweep killed mid-write leaves a torn line without a trailing
        # newline; terminate it so the next append starts a fresh line
        # instead of corrupting itself by concatenation.
        if self.path.exists():
            with open(self.path, "rb") as handle:
                handle.seek(0, 2)
                if handle.tell() > 0:
                    handle.seek(-1, 2)
                    torn = handle.read(1) != b"\n"
            if torn:
                log.warning("journal %s ends in a torn line; terminating it", self.path)
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write("\n")
        self._handle = open(self.path, "a", encoding="utf-8")
        return self

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self.open()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def append(self, record: Dict[str, object]) -> None:
        """Write one event line and flush it (the checkpoint guarantee)."""
        if self._handle is None:
            raise SweepError("journal is not open for appending")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def append_header(self, grid_sha: str, total_tasks: int, **extra: object) -> None:
        self.append(
            {
                "kind": "header",
                "schema": JOURNAL_SCHEMA,
                "grid_sha": grid_sha,
                "total_tasks": total_tasks,
                **extra,
            }
        )

    # -- reading ---------------------------------------------------------
    @classmethod
    def load(cls, path: Union[str, Path]) -> JournalState:
        """Parse a journal, skipping torn/malformed lines.

        Later ``result`` lines for the same task supersede earlier ones
        (a failed attempt followed by a successful retry on resume).
        """
        state = JournalState()
        journal_path = Path(path)
        if not journal_path.exists():
            return state
        with open(journal_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    state.malformed_lines += 1
                    continue
                kind = event.get("kind")
                if kind == "header":
                    if state.header is None:
                        state.header = event
                elif kind == "result" and "task_id" in event:
                    state.records[str(event["task_id"])] = event
                elif kind == "resume":
                    state.resumes.append(event)
                else:
                    state.malformed_lines += 1
        if state.malformed_lines:
            log.warning(
                "journal %s: skipped %d malformed/torn line(s)",
                journal_path,
                state.malformed_lines,
            )
        return state


def open_journal(
    path: Union[str, Path],
    grid_sha: str,
    worker: str,
    grid_task_ids: Sequence[str],
    resume: bool = True,
) -> Tuple[SweepJournal, JournalState]:
    """Open ``worker``'s journal for appending; returns it and its prior state.

    A journal that already has a header must be this run's: the grid SHA
    is checked first, then the worker.  A journal that already holds
    results is refused unless ``resume``.  A journal without a header gets
    one, so every sweep journal carries the same identity.
    """
    state = SweepJournal.load(path)
    if state.header is not None:
        # Fail fast on *any* reopen whose header disagrees with this run: a
        # mismatched journal would otherwise only surface at merge time.
        if state.header.get("grid_sha") != grid_sha:
            raise SweepError(
                f"journal {str(path)!r} was written for a different grid "
                f"(journal sha {state.header.get('grid_sha')!r} != run sha {grid_sha!r})"
            )
        if state.header.get("worker") != worker:
            raise SweepError(
                f"journal {path} belongs to worker "
                f"{state.header.get('worker')!r}, not {worker!r}"
            )
    if state.records and not resume:
        raise SweepError(
            f"journal {str(path)!r} already holds {len(state.records)} results; "
            "pass resume=True to continue it or point --journal elsewhere"
        )
    journal = SweepJournal(path).open()
    if state.header is None:
        journal.append_header(
            grid_sha=grid_sha,
            total_tasks=len(grid_task_ids),
            worker=worker,
            grid_task_ids=list(grid_task_ids),
        )
    return journal, state
