"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files: :meth:`Tracer.install` wraps
public functions and methods of the ``repro`` layers at run time (the
program's sources are never edited) and :meth:`Tracer.uninstall` puts the
originals back.  Spans nest on one thread, so a span's self time is its
duration minus the time its direct children cover.  Spans are aggregated
in memory by call path and rendered when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
import weakref
from typing import Callable, Dict, List, Tuple

Path = Tuple[str, ...]

# (span name, module, class or None for a module-level function, attribute).
# A module-level function is wrapped where its caller looks it up.
TARGETS = (
    ("profiler.profile", "repro.rowhammer.profiler", "MemoryProfiler", "profile_mapping"),
    ("hammer.victim", "repro.rowhammer.hammer", "HammerEngine", "hammer_victim"),
    ("dram.hammer_row", "repro.memory.dram", "DRAMArray", "hammer_row"),
    ("dram.vulnerable_cells", "repro.memory.dram", "DRAMArray", "vulnerable_cells"),
    ("cft.offline", "repro.attacks.cft", "CFTAttack", "run"),
    ("badnet.offline", "repro.attacks.badnet", "BadNetAttack", "run"),
    ("ft.offline", "repro.attacks.ft", "LastLayerFTAttack", "run"),
    ("cft.grads", "repro.attacks.cft", None, "attack_loss_and_grads"),
    ("online.inject", "repro.attacks.online", "OnlineInjector", "inject"),
    ("templating.match", "repro.rowhammer.templating", "PageTemplater", "match"),
    ("engine.forward", "repro.engine.engine", "EvalEngine", "forward"),
    ("engine.score", "repro.engine.engine", "EvalEngine", "score_candidates"),
    ("analysis.evaluate", "repro.core.pipeline", None, "evaluate_attack"),
    ("train.victim_load", "repro.core.experiment", None, "pretrained_quantized_model"),
    ("sweep.task", "repro.core.experiment", None, "run_single_experiment"),
)

BACKEND_KERNELS = (
    "conv_cols_matmul",
    "conv_grads",
    "im2col_backward",
    "linear",
    "linear_grads",
    "batchnorm_stats",
    "batchnorm_apply",
)


def kernel_flops(kernel: str, args: tuple) -> float:
    """Floating-point operations of one backend kernel call.

    GEMMs count a multiply-add as two operations; the scatter-add counts
    one per patch element, batch-norm statistics three per element (sum,
    square, sum) and batch-norm apply four (subtract, scale, multiply, add).
    """
    if kernel == "conv_cols_matmul":
        cols, w_mat = args[0], args[1]
        return 2.0 * cols.size * w_mat.shape[0]
    if kernel == "conv_grads":
        grad_mat, cols = args[0], args[1]
        return 4.0 * cols.size * grad_mat.shape[-1]
    if kernel == "im2col_backward":
        return float(args[0].size)
    if kernel == "linear":
        x, w_t = args[0], args[1]
        return 2.0 * x.size * w_t.shape[1]
    if kernel == "linear_grads":
        grad, x = args[0], args[1]
        return 4.0 * x.size * grad.shape[-1]
    if kernel == "batchnorm_stats":
        return 3.0 * args[0].size
    if kernel == "batchnorm_apply":
        return 4.0 * args[0].size
    raise KeyError(kernel)


class Tracer:
    """Aggregates nested spans by call path, plus plain work counters."""

    def __init__(self) -> None:
        self.nodes: Dict[Path, List[float]] = {}  # path -> [seconds, calls]
        self.counts: Dict[str, float] = {}
        self._stack: List[str] = []
        self._restore: List[Callable[[], None]] = []
        self._rows_seen: "weakref.WeakKeyDictionary[object, set]" = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def timed(self, name: str, fn: Callable, after: Callable = None) -> Callable:
        """``fn`` wrapped in a span; ``after(args, result)`` records counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(name)
            path = tuple(self._stack)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                node = self.nodes.setdefault(path, [0.0, 0])
                node[0] += elapsed
                node[1] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self.timed(name, fn)(*args, **kwargs)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point in :data:`TARGETS` and the kernels."""
        for name, module_name, class_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            self._patch(owner, attr, name, self._after_hook(name))
        from repro.backend import current_backend

        backend = current_backend()
        for kernel in BACKEND_KERNELS:
            self._patch_instance(backend, kernel, f"backend.{kernel}", self._kernel_hook(kernel))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _patch(self, owner, attr: str, name: str, after) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, self.timed(name, original, after))
        self._restore.append(lambda: setattr(owner, attr, original))

    def _patch_instance(self, instance, attr: str, name: str, after) -> None:
        original = getattr(instance, attr)
        instance.__dict__[attr] = self.timed(name, original, after)
        self._restore.append(lambda: instance.__dict__.pop(attr, None))

    def _kernel_hook(self, kernel: str):
        def after(args, result):
            self.count(f"backend.{kernel}.flop", kernel_flops(kernel, args))

        return after

    def _after_hook(self, name: str):
        if name == "dram.vulnerable_cells":

            def after(args, result):
                dram, bank, row = args[0], args[1], args[2]
                seen = self._rows_seen.setdefault(dram, set())
                if (bank, row) not in seen:
                    seen.add((bank, row))
                    self.count("dram.cells_drawn", len(result))

            return after
        if name == "online.inject":

            def after(args, result):
                matched = len(result.matched_pages)
                self.count("online.pages_matched", matched)
                self.count("online.pages_required", matched + len(result.unmatched_pages))

            return after
        return None

    # ------------------------------------------------------------------
    def total(self, name: str) -> Tuple[float, int]:
        """(seconds, calls) summed over every path that ends in ``name``."""
        seconds, calls = 0.0, 0
        for path, (node_seconds, node_calls) in self.nodes.items():
            if path[-1] == name:
                seconds += node_seconds
                calls += node_calls
        return seconds, calls

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` made (at any depth) inside an ``ancestor`` span."""
        return sum(
            int(calls)
            for path, (_, calls) in self.nodes.items()
            if path[-1] == name and ancestor in path[:-1]
        )

    def render(self, coverage_floor: float = 0.9) -> List[str]:
        """The "where the time went" tree: total, self time and calls per span.

        Where a span's children cover less than ``coverage_floor`` of it,
        the unattributed remainder is printed as its own line.
        """
        children: Dict[Path, List[Path]] = {}
        for path in self.nodes:
            children.setdefault(path[:-1], []).append(path)
        lines = [f"{'span':<52} {'total s':>9} {'self s':>9} {'calls':>8}"]

        def walk(path: Path) -> None:
            seconds, calls = self.nodes[path]
            kids = sorted(children.get(path, []), key=lambda p: -self.nodes[p][0])
            covered = sum(self.nodes[kid][0] for kid in kids)
            indent = "  " * (len(path) - 1)
            lines.append(
                f"{indent + path[-1]:<52} {seconds:>9.3f} {seconds - covered:>9.3f} {int(calls):>8}"
            )
            for kid in kids:
                walk(kid)
            if kids and seconds - covered >= 0.001 and covered < coverage_floor * seconds:
                lines.append(
                    f"{indent + '  (unattributed)':<52} {seconds - covered:>9.3f}"
                    f" {100.0 * (seconds - covered) / seconds:>8.1f}%"
                )

        for root in sorted(children.get((), []), key=lambda p: -self.nodes[p][0]):
            walk(root)
        return lines
