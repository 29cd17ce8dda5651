#!/usr/bin/env python3
"""Outside-in benchmark of the Rowhammer-backdoor reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload attack-resnet20 --seed 1 --seconds 50 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` is a separate
run that wraps each layer's public entry points with spans (from this
directory only; ``src/`` is never edited) and prints the per-layer metrics
plus a "where the time went" tree.  The last stdout line is always one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before it
(``perfbench-detail ...``) carries every other metric, the inputs the seed
generated and the run metadata.  The exit code is 0 only when every output
check passed.  See ``README.md`` here for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from tracer import BACKEND_KERNELS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
EXPECTED = HERE / "expected.json"
FILL_RECORD = CACHE / "fill.json"

WORKLOAD_NAMES = ("attack-resnet20", "sweep-table2")
# Fresh-process set-up probes per run, half taken before the timed loop and
# half after it, so that their median spans the run and not one moment of
# it.  A short set-up is the noisiest relative to its length, and its probes
# are the cheapest, so it gets the most.
SETUP_PROBES = {"attack-resnet20": 4, "sweep-table2": 6}
# Later performance claims must also hold on this seed; it was not used
# while the benchmark was tuned.
HELD_OUT_SEED = 9001

END_TO_END = (
    ("setup_s", "s"),
    ("attack_s", "s"),
    ("tasks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_hammer_s", "sim_s"),
)

PER_LAYER = (
    ("profiler.profile_s", "s"),
    ("profiler.rows_per_s", "1/s"),
    ("hammer.victim_s", "s"),
    ("hammer.attempts", "count"),
    ("hammer.flips", "count"),
    ("dram.vulnerable_cells_s", "s"),
    ("dram.vulnerable_cells.calls", "count"),
    ("dram.hammer_row_s", "s"),
    ("dram.hammer_row.calls", "count"),
    ("dram.cells_drawn", "count"),
    ("profiler.flip_yield", "ratio"),
    ("cft.offline_s", "s"),
    ("cft.grads_s", "s"),
    ("cft.grads.calls", "count"),
    ("cft.candidates_evaluated", "count"),
    ("cft.flips_committed", "count"),
    ("cft.commit_ratio", "ratio"),
    ("online.inject_s", "s"),
    ("templating.match_s", "s"),
    ("online.pages_required", "count"),
    ("online.pages_matched", "count"),
    ("engine.forward_s", "s"),
    ("engine.forward.calls", "count"),
    ("engine.score_s", "s"),
    ("engine.score.calls", "count"),
    ("engine.cache.hit_rate", "ratio"),
    *(
        metric
        for kernel in BACKEND_KERNELS
        for metric in (
            (f"backend.{kernel}_s", "s"),
            (f"backend.{kernel}.calls", "count"),
            (f"backend.{kernel}.gflop", "GFLOP"),
        )
    ),
    ("train.train_s", "s"),
    ("train.victim_load_s", "s"),
    ("analysis.evaluate_s", "s"),
    ("sweep.task_p50_s", "s"),
    ("sweep.task_sum_s", "s"),
    ("sweep.worker_busy_ratio", "ratio"),
    ("sweep.task_inflation", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------
def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _tail(values: List[float]) -> Dict[str, object]:
    """Median plus the highest percentile that has >= 10 samples beyond it."""
    n = len(values)
    out: Dict[str, object] = {
        "median": _median(values),
        "samples": n,
        "tail_pct": None,
        "tail": None,
        "values": values,
    }
    if n > 10:
        pct = int(100 * (1 - 10 / n))
        if pct >= 1:
            ordered = sorted(values)
            out["tail_pct"] = pct
            out["tail"] = ordered[min(n - 1, int(pct / 100 * n))]
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ChildPeakRSS:
    """Polls the peak resident memory (VmHWM) of this process's children.

    Sweep workers are pool processes that exit when the drain ends, so
    ``RUSAGE_CHILDREN`` would also count the fill and set-up probes; this
    monitor sees only the children alive while it runs.
    """

    def __init__(self, interval: float = 0.5) -> None:
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def __enter__(self) -> "ChildPeakRSS":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _poll(self) -> None:
        me = str(os.getpid())
        while True:
            for entry in os.listdir("/proc"):
                if not entry.isdigit():
                    continue
                try:
                    with open(f"/proc/{entry}/status") as handle:
                        status = handle.read()
                except OSError:
                    continue
                fields = dict(
                    line.split(":", 1) for line in status.splitlines() if ":" in line
                )
                if fields.get("PPid", "").strip() == me and "VmHWM" in fields:
                    self.peak_kb = max(self.peak_kb, int(fields["VmHWM"].split()[0]))
            if self._stop.wait(self.interval):
                return


def _run_child(args: List[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=str(ROOT),
    )


def run_metadata() -> Dict[str, object]:
    import numpy as np

    from repro.backend import current_backend

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_vars = (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "REPRO_BACKEND",
        "REPRO_ENGINE",
        "REPRO_ENGINE_BATCH",
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_env": {name: os.environ.get(name) for name in thread_vars},
        "backend": current_backend().describe(),
        "held_out_seed": HELD_OUT_SEED,
    }


def load_expected() -> Dict[str, Dict[str, dict]]:
    if not EXPECTED.exists():
        return {}
    with open(EXPECTED) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Fill: train the fixed victims into the benchmark's own model cache
# ---------------------------------------------------------------------------
def _fill_key(workload: str, seed: int) -> str:
    """The victim a run needs: one for the attack, one per seed for the sweep."""
    return f"{workload}:{seed}" if workload == "sweep-table2" else workload


def _fill_record() -> Dict[str, float]:
    return json.loads(FILL_RECORD.read_text()) if FILL_RECORD.exists() else {}


def fill(workload: str, seed: int) -> Dict[str, float]:
    """Train the run's victim if missing; returns {victim: train seconds} if trained."""
    import fcntl

    import workloads

    CACHE.mkdir(parents=True, exist_ok=True)
    trained: Dict[str, float] = {}
    with open(CACHE / "fill.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        seconds = workloads.WORKLOADS[workload].fill_seed(seed)
        if seconds is not None:
            trained[_fill_key(workload, seed)] = seconds
            record = _fill_record()
            record.update(trained)
            FILL_RECORD.write_text(json.dumps(record, indent=1, sort_keys=True))
    return trained


def _fill_in_child(workload: str, seed: int) -> Dict[str, object]:
    """Fill in a child process so its memory and time stay out of the run.

    A victim this checkout already trained is not checked again.
    """
    if _fill_key(workload, seed) in _fill_record():
        return {"seconds": 0.0, "trained": {}}
    start = time.perf_counter()
    proc = _run_child(["--fill", "--workload", workload, "--seed", str(seed)], timeout=850)
    if proc.returncode != 0:
        raise RuntimeError(f"victim fill failed:\n{proc.stderr[-4000:]}")
    return {"seconds": time.perf_counter() - start, "trained": json.loads(proc.stdout.splitlines()[-1])}


def _setup_probes(workload: str, seed: int, count: int) -> List[float]:
    """Wall-clock of fresh processes from start to a prepared workload."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        proc = _run_child(["--setup-probe", "--workload", workload, "--seed", str(seed)], timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-4000:]}")
        samples.append(time.perf_counter() - start)
    return samples


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------
class Checker:
    """Compares every operation's record against the run's first record and
    against the expectation recorded for (workload, seed), if there is one."""

    def __init__(self, workload, expected: Optional[dict]) -> None:
        self.workload = workload
        self.expected = expected
        self.first: Optional[dict] = None
        self.errors: List[str] = []

    def check(self, record: dict) -> bool:
        errors = list(self.workload.invariant_errors(record))
        canonical = json.loads(json.dumps(record, sort_keys=True))
        if self.first is None:
            self.first = canonical
        elif canonical != self.first:
            errors.append("result differs from this run's first repetition")
        if self.expected is not None and canonical != self.expected["record"]:
            errors.append("result differs from the recorded expectation for this seed")
        self.errors.extend(errors)
        return not errors


def _another(start: float, seconds: float, durations: List[float]) -> bool:
    """Start another operation while it would mostly fit in ``seconds``."""
    if not durations:
        return True
    return time.perf_counter() - start + _median(durations) / 2 < seconds


def attack_loop(workload, prepared, seconds: float, checker: Checker, span=None) -> Dict[str, object]:
    """Closed loop of one client: attacks back to back for ``seconds``."""
    samples: List[float] = []
    outcomes: List[dict] = []
    durations: List[float] = []
    busy = 0.0  # new_op through run_op, without the collections in between
    attempted = failed = 0
    start = time.perf_counter()
    while _another(start, seconds, durations):
        attempted += 1
        began = time.perf_counter()
        op = workload.new_op(prepared)
        built = time.perf_counter()
        gc.collect()  # every attack starts from the same heap state
        resumed = time.perf_counter()
        try:
            if span is None:
                elapsed, record, outcome = workload.run_op(prepared, op)
            else:
                elapsed, record, outcome = span("attack", workload.run_op, prepared, op)
        except Exception as exc:  # a raising attack is a failed operation
            failed += 1
            checker.errors.append(f"attack raised {type(exc).__name__}: {exc}")
            continue
        finally:
            ended = time.perf_counter()
            durations.append(ended - began)
            busy += (built - began) + (ended - resumed)
        del op
        if checker.check(record):
            samples.append(elapsed)
            outcomes.append(outcome)
        else:
            failed += 1
    return {
        "samples": samples,
        "outcomes": outcomes,
        "busy_s": busy,
        "attempted": attempted,
        "failed": failed,
    }


def sweep_drains(workload, prepared, seconds: float, workers: int, checker: Checker) -> Dict[str, object]:
    """Drains of the grid back to back for ``seconds`` (at least one)."""
    drain_seconds: List[float] = []
    task_seconds: List[float] = []
    records: List[dict] = []
    counters: List[dict] = []
    attempted = failed = 0
    start = time.perf_counter()
    with ChildPeakRSS() as rss:
        while _another(start, seconds, drain_seconds):
            gc.collect()
            elapsed, result = workload.drain(prepared, workers)
            attempted += len(result.outcomes)
            failed += len(result.failures)
            for outcome in result.failures:
                checker.errors.append(f"task {outcome.task.task_id} failed: {outcome.error}")
            record = workload.record(result)
            if not result.failures and not checker.check(record):
                failed += len(result.outcomes)
            drain_seconds.append(elapsed)
            task_seconds.extend(o.duration_seconds for o in result.outcomes if o.status == "ok")
            records.append(record)
            counters.extend((o.metrics or {}).get("counters") for o in result.outcomes)
    return {
        "drain_seconds": drain_seconds,
        "task_seconds": task_seconds,
        "records": records,
        "counters": _counter_totals(counters),
        "attempted": attempted,
        "failed": failed,
        "worker_peak_rss_mb": rss.peak_kb / 1024.0,
    }


def _sweep_outcomes(record: dict) -> Dict[str, float]:
    rows = record["rows"]
    return {
        "online_ta": statistics.fmean(r["online_ta"] for r in rows) / 100.0,
        "online_asr": statistics.fmean(r["online_asr"] for r in rows) / 100.0,
        "online_n_flip": sum(r["online_n_flip"] for r in rows),
        "r_match": statistics.fmean(r["r_match"] for r in rows),
        "sim_hammer_s": record["counters"].get("hammer.simulated_seconds", 0.0),
    }


def measure(args, workload, prepared, checker: Checker) -> Dict[str, object]:
    """The untraced run: every end-to-end metric."""
    if workload.name == "sweep-table2":
        loop = sweep_drains(workload, prepared, args.seconds, os.cpu_count() or 1, checker)
        samples = loop["task_seconds"]
        tasks = len(samples)
        tasks_per_s = tasks / sum(loop["drain_seconds"]) if tasks else 0.0
        outcome = _sweep_outcomes(loop["records"][0])
        peak = max(_peak_rss_mb(), loop["worker_peak_rss_mb"])
        # The grid mixes two cost classes (K1 tasks run ~2x longer than M1),
        # so a median would fall in the gap between them: use the mean.
        attack_s = statistics.fmean(samples) if samples else 0.0
    else:
        loop = attack_loop(workload, prepared, args.seconds, checker)
        samples = loop["samples"]
        tasks_per_s = len(samples) / loop["busy_s"] if samples else 0.0
        # Every repetition reproduced the first one, or the run failed.
        outcome = loop["outcomes"][0] if loop["outcomes"] else dict.fromkeys(
            ("online_ta", "online_asr", "online_n_flip", "r_match", "sim_hammer_s"), 0.0
        )
        peak = _peak_rss_mb()
        attack_s = _median(samples)
    return {
        "loop": loop,
        "attack_s": attack_s,
        "attack": _tail(samples),
        "tasks_per_s": tasks_per_s,
        "peak_rss_mb": peak,
        "outcome": outcome,
    }


def layer_metrics(tracer, ops: int, counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from one traced phase, per operation (attack or task)."""
    ops = max(ops, 1)
    metrics: Dict[str, float] = {}

    def timed(metric: str, span: str, calls_metric: Optional[str] = None) -> float:
        seconds, calls = tracer.total(span)
        metrics[metric] = seconds / ops
        if calls_metric is not None:
            metrics[calls_metric] = calls / ops
        return seconds

    profile_s = timed("profiler.profile_s", "profiler.profile")
    rows = tracer.calls_under("hammer.victim", "profiler.profile") / 2  # two fills per row
    metrics["profiler.rows_per_s"] = rows / profile_s if profile_s else 0.0
    timed("hammer.victim_s", "hammer.victim", "hammer.attempts")
    metrics["hammer.flips"] = counters.get("hammer.flips", 0.0) / ops
    timed("dram.vulnerable_cells_s", "dram.vulnerable_cells", "dram.vulnerable_cells.calls")
    timed("dram.hammer_row_s", "dram.hammer_row", "dram.hammer_row.calls")
    cells = tracer.counts.get("dram.cells_drawn", 0.0)
    metrics["dram.cells_drawn"] = cells / ops
    metrics["profiler.flip_yield"] = counters.get("profiler.flips_found", 0.0) / cells if cells else 0.0
    timed("cft.offline_s", "cft.offline")
    timed("cft.grads_s", "cft.grads", "cft.grads.calls")
    candidates = counters.get("cft.candidates_evaluated", 0.0)
    committed = counters.get("cft.flips_committed", 0.0)
    metrics["cft.candidates_evaluated"] = candidates / ops
    metrics["cft.flips_committed"] = committed / ops
    metrics["cft.commit_ratio"] = committed / candidates if candidates else 0.0
    timed("online.inject_s", "online.inject")
    timed("templating.match_s", "templating.match")
    metrics["online.pages_required"] = tracer.counts.get("online.pages_required", 0.0) / ops
    metrics["online.pages_matched"] = tracer.counts.get("online.pages_matched", 0.0) / ops
    timed("engine.forward_s", "engine.forward", "engine.forward.calls")
    timed("engine.score_s", "engine.score", "engine.score.calls")
    hits = counters.get("engine.cache.hit", 0.0)
    lookups = hits + counters.get("engine.cache.miss", 0.0)
    metrics["engine.cache.hit_rate"] = hits / lookups if lookups else 0.0
    for kernel in BACKEND_KERNELS:
        timed(f"backend.{kernel}_s", f"backend.{kernel}", f"backend.{kernel}.calls")
        metrics[f"backend.{kernel}.gflop"] = tracer.counts.get(f"backend.{kernel}.flop", 0.0) / ops / 1e9
    seconds, calls = tracer.total("train.victim_load")
    metrics["train.victim_load_s"] = seconds / calls if calls else 0.0
    timed("analysis.evaluate_s", "analysis.evaluate")
    return metrics


def _counter_totals(snapshots) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for counters in snapshots:
        for name, value in (counters or {}).items():
            totals[name] = totals.get(name, 0.0) + value
    return totals


def measure_traced(args, workload, prepared, checker: Checker):
    """The traced run: per-layer metrics and the "where the time went" tree."""
    from repro import telemetry

    from tracer import Tracer

    tracer = Tracer()
    if workload.name == "sweep-table2":
        workers = os.cpu_count() or 1
        pooled = sweep_drains(workload, prepared, 0, workers, checker)
        inline = sweep_drains(workload, prepared, 0, 1, checker)
        tracer.install()
        try:
            traced = sweep_drains(workload, prepared, 0, 1, checker)
        finally:
            tracer.uninstall()
        pooled_sum = sum(pooled["task_seconds"])
        inline_sum = sum(inline["task_seconds"])
        sweep = {
            "sweep.task_p50_s": _median(pooled["task_seconds"]),
            "sweep.task_sum_s": pooled_sum,
            "sweep.worker_busy_ratio": pooled_sum / (workers * pooled["drain_seconds"][0]),
            "sweep.task_inflation": pooled_sum / inline_sum if inline_sum else 0.0,
            "trace.overhead_ratio": sum(traced["task_seconds"]) / inline_sum if inline_sum else 0.0,
        }
        ops = len(traced["task_seconds"])
        counters = traced["counters"]  # per-task telemetry the program recorded
        attempted = pooled["attempted"] + inline["attempted"] + traced["attempted"]
        failed = pooled["failed"] + inline["failed"] + traced["failed"]
    else:
        half = args.seconds / 2.0
        untraced = attack_loop(workload, prepared, half, checker)
        tracer.install()
        telemetry.enable()
        telemetry.reset()
        try:
            tracer.span("train.victim_load", workload.load_victim)
            traced = attack_loop(workload, prepared, half, checker, span=tracer.span)
            counters = dict(telemetry.get_registry().snapshot()["counters"])
        finally:
            telemetry.disable()
            tracer.uninstall()
        ops = len(traced["samples"])
        sweep = dict.fromkeys(
            ("sweep.task_p50_s", "sweep.task_sum_s", "sweep.worker_busy_ratio", "sweep.task_inflation"), 0.0
        )
        sweep["trace.overhead_ratio"] = (
            _median(traced["samples"]) / _median(untraced["samples"])
            if untraced["samples"] and traced["samples"]
            else 0.0
        )
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
    metrics = layer_metrics(tracer, ops, counters)
    metrics.update(sweep)
    metrics["train.train_s"] = float(_fill_record().get(_fill_key(workload.name, prepared.seed), 0.0))
    return metrics, tracer.render(), attempted, failed


# ---------------------------------------------------------------------------
def benchmark(args) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    filled = _fill_in_child(args.workload, args.seed)
    probes = 0 if args.trace else SETUP_PROBES[workload.name]
    setup_samples = _setup_probes(workload.name, args.seed, (probes + 1) // 2)
    prepared = workload.prepare(args.seed)
    expected = load_expected().get(workload.name, {}).get(str(args.seed))
    checker = Checker(workload, expected)

    detail: Dict[str, object] = {
        "workload": workload.name,
        "seed": args.seed,
        "inputs": prepared.inputs,
        "expectation": "recorded" if expected is not None else "not recorded for this seed",
        "fill": filled,
        "meta": run_metadata(),
    }
    if args.trace:
        metrics, tree, attempted, failed = measure_traced(args, workload, prepared, checker)
        units = dict(PER_LAYER)
        print(f"where the time went ({workload.name}, seed {args.seed}; totals over the traced operations):")
        for line in tree:
            print("  " + line)
    else:
        result = measure(args, workload, prepared, checker)
        setup_samples += _setup_probes(workload.name, args.seed, probes // 2)
        loop = result["loop"]
        attempted, failed = loop["attempted"], loop["failed"]
        outcome = result["outcome"]
        metrics = {
            "setup_s": _median(setup_samples),
            "attack_s": result["attack_s"],
            "tasks_per_s": result["tasks_per_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "sim_hammer_s": outcome["sim_hammer_s"],
        }
        units = dict(END_TO_END)
        detail["attack_s"] = result["attack"]
        detail["setup_s_samples"] = setup_samples

    victim_ta = workload.victim_ta(prepared)
    if expected is not None and victim_ta != expected["victim_ta"]:
        checker.errors.append(f"victim_ta {victim_ta} differs from the recorded {expected['victim_ta']}")
    if workload.name != "sweep-table2" and victim_ta < workloads.VICTIM_TA_FLOOR:
        checker.errors.append(f"victim_ta {victim_ta:.3f} is not clearly above chance")
    if not args.trace:
        detail["quality"] = {
            "victim_ta": {"value": victim_ta, "unit": "fraction"},
            "online_ta": {"value": outcome["online_ta"], "unit": "fraction"},
            "online_asr": {"value": outcome["online_asr"], "unit": "fraction"},
            "online_n_flip": {"value": outcome["online_n_flip"], "unit": "bits"},
            "r_match": {"value": outcome["r_match"], "unit": "%"},
            "error_rate": {"value": failed / attempted if attempted else 1.0, "unit": "fraction"},
        }
    correct = not checker.errors and failed == 0
    detail["errors"] = checker.errors[:20]
    print("perfbench-detail " + json.dumps(workloads.plain(detail), sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal modes, run in child processes by the benchmark itself.
    parser.add_argument("--fill", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def bootstrap() -> bool:
    """Point the process at the checkout's program; False if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from a repository checkout", file=sys.stderr)
        return False
    # The benchmark owns its model cache: results never depend on a cache
    # outside the checkout.  Thread counts are deliberately left alone.
    os.environ["REPRO_CACHE_DIR"] = str(CACHE / "models")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process that spawn-context pools start.

    It would exit on its own once this process ends; stopping it here means
    the benchmark has waited for every process it started.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not bootstrap():
        return 2
    if args.fill:
        print(json.dumps(fill(args.workload, args.seed)))
        return 0
    if args.setup_probe:
        import workloads

        workloads.WORKLOADS[args.workload].prepare(args.seed)
        return 0
    try:
        return benchmark(args)
    finally:
        _stop_resource_tracker()


if __name__ == "__main__":
    sys.exit(main())
