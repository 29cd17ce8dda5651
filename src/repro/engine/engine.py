"""The evaluation engine: version-checked prefix-cached ``no_grad`` forwards."""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Optional, Union

import numpy as np

from repro import telemetry
from repro.autodiff.tensor import Tensor, no_grad
from repro.engine.cache import ActivationCache
from repro.engine.plan import LayerPlan, compile_plan
from repro.nn.module import Module


def _fingerprint(x: np.ndarray) -> bytes:
    """Content digest of a batch: dtype, shape and raw bytes.

    sha256 because CPython routes it through OpenSSL's hardware-accelerated
    implementation -- this runs on every engine forward, so digest throughput
    directly bounds the best-case cache-hit latency.
    """
    h = hashlib.sha256()
    h.update(str(x.dtype).encode())
    h.update(str(x.shape).encode())
    h.update(np.ascontiguousarray(x))
    return h.digest()


class _FingerprintMemo:
    """Identity-keyed memo of input digests.

    Evaluation loops pass the same batch objects over and over (the fixed
    attacker subset, a hoisted trigger-stamped copy), and content-hashing a
    batch costs as much as a small recomputed suffix -- so digests are
    memoized per array *object*.  The memo holds strong references, so a
    memoized id() can never be recycled by a new array while the entry
    lives; entries rotate out LRU.  The one contract: arrays handed to the
    engine must not be mutated in place afterwards (no evaluation path in
    this codebase does -- eval sets are fixed and stamped copies are
    freshly allocated).
    """

    def __init__(self, capacity: int = 8) -> None:
        self._entries: "OrderedDict[int, tuple]" = OrderedDict()
        self._capacity = capacity

    def fingerprint(self, x: np.ndarray) -> bytes:
        key = id(x)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is x:
            self._entries.move_to_end(key)
            return entry[1]
        digest = _fingerprint(x)
        self._entries[key] = (x, digest)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
        return digest


class EvalEngine:
    """Serve batched evaluation forwards from a layer-prefix cache.

    ``forward(x)`` is byte-identical to ``module(Tensor(x)).data`` under
    ``no_grad``: the compiled plan replays the model's op sequence exactly,
    and cached activations are the bit-for-bit outputs of earlier identical
    computations (guaranteed by keying every stage on the version-signature
    prefix of all stages up to and including it).

    Caching only engages in eval mode — a training-mode forward mutates
    batch-norm running statistics, so it is executed plainly and never
    cached (results still match the engine-less path exactly).
    """

    def __init__(self, module: Module, byte_budget: Optional[int] = None) -> None:
        from repro.engine import default_byte_budget

        self.plan: LayerPlan = compile_plan(module)
        self.cache = ActivationCache(
            default_byte_budget() if byte_budget is None else byte_budget
        )
        self._memo = _FingerprintMemo()

    @property
    def module(self) -> Module:
        return self.plan.module

    def forward(self, x: Union[np.ndarray, Tensor]) -> np.ndarray:
        """Run a batched forward, reusing the deepest valid cached prefix."""
        if isinstance(x, Tensor):
            x = x.data
        module = self.plan.module
        if module.training:
            with no_grad():
                return module(Tensor(x)).data

        sigs = self.plan.signatures()
        fp = self._memo.fingerprint(x)
        # The full forward is the degenerate prefix: the "input" of the
        # stage one past the end of the plan.
        return self.prefix_input(x, fp, sigs, len(self.plan.stages))

    def prefix_input(
        self,
        x: np.ndarray,
        fp: bytes,
        sigs: tuple,
        upto: int,
    ) -> np.ndarray:
        """The input activation of stage ``upto`` (output of stage ``upto-1``).

        Served from the deepest valid cached prefix below ``upto``; any
        missing stages are computed and written through the cache under the
        supplied version signatures.  ``upto == len(stages)`` yields the
        model output; ``upto == 0`` returns ``x`` untouched (no probe, no
        hit/miss accounting).
        """
        if upto == 0:
            return x
        stages = self.plan.stages

        # Probe from the deepest stage down: the first (deepest) key whose
        # version-signature prefix still matches gives the longest reusable
        # prefix of the forward pass.
        start = 0
        h = x
        for i in range(upto - 1, -1, -1):
            cached = self.cache.get((fp, i, sigs[: i + 1]))
            if cached is not None:
                start = i + 1
                h = cached
                break

        stats = self.cache.stats
        if start > 0:
            stats.hits += 1
        else:
            stats.misses += 1
        if telemetry.enabled():
            telemetry.counter_add(
                "engine.cache.hit" if start > 0 else "engine.cache.miss", 1
            )

        evicted_before = self.cache.stats.evicted_bytes
        with no_grad():
            for i in range(start, upto):
                h = stages[i].fn(Tensor(h)).data
                self.cache.put((fp, i, sigs[: i + 1]), h)
        if telemetry.enabled():
            # A zero add still registers the counter, so every bench report
            # exports the full engine.cache.* triple even when nothing was
            # evicted.
            telemetry.counter_add(
                "engine.cache.evicted_bytes",
                self.cache.stats.evicted_bytes - evicted_before,
            )
        return h

    def score_candidates(self, qmodel, proposals, images):
        """Batched round-level candidate scoring (see :mod:`repro.engine.batch`)."""
        from repro.engine.batch import score_candidates

        return score_candidates(self, qmodel, proposals, images)

    __call__ = forward

    def counters(self) -> Dict[str, int]:
        """Cache statistics under the exported telemetry counter names."""
        stats = self.cache.stats
        return {
            "engine.cache.hit": stats.hits,
            "engine.cache.miss": stats.misses,
            "engine.cache.evicted_bytes": stats.evicted_bytes,
        }
