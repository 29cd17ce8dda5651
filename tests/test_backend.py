"""Compute backend registry and the opt-in ``fast`` profile.

The default ``numpy`` backend IS the historical code path -- its GEMM
expression is character-for-character what ``Conv2dFunction.forward``
inlined before the abstraction existed, so byte-identity tests pin it.
The ``fast`` profile trades that byte-level determinism for fused
contiguous float32 GEMMs (conv forward/backward, dense backward), so those
overrides are covered by *tolerance* parity only and explicitly excluded
from the golden suites; every kernel it inherits must stay byte-identical
to ``numpy``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor, no_grad
from repro.backend import (
    available_backends,
    backend_name,
    current_backend,
    reset_backend,
    set_backend,
)
from repro.errors import BackendError, ReproError
from tests.conftest import TinyCNN


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test leaves the process-wide backend as it found it."""
    yield
    reset_backend()


def _logits(model, x):
    with no_grad():
        return model(Tensor(x)).data


def _images(seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((4, 3, 16, 16)).astype(np.float32)


# ---------------------------------------------------------------------------
# Registry


def test_registry_lists_all_backends():
    assert available_backends() == ["fast", "numpy"]


def test_default_backend_is_numpy_and_byte_identical(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    reset_backend()
    backend = current_backend()
    assert backend.name == "numpy"
    assert backend.byte_identical is True
    assert backend_name() == "numpy"


def test_set_backend_switches_and_describes():
    set_backend("fast")
    assert backend_name() == "fast"
    assert current_backend().byte_identical is False
    assert current_backend().describe() == {
        "name": "fast",
        "byte_identical": False,
    }


def test_unknown_backend_raises_backend_error():
    with pytest.raises(BackendError, match="unknown backend"):
        set_backend("cuda")
    assert issubclass(BackendError, ReproError)


def test_unparameterized_backend_rejects_param_suffix():
    with pytest.raises(BackendError, match="unknown backend 'numpy:2'"):
        set_backend("numpy:2")


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "fast")
    reset_backend()
    assert backend_name() == "fast"
    monkeypatch.delenv("REPRO_BACKEND")
    reset_backend()
    assert backend_name() == "numpy"


def test_env_var_unknown_backend_raises(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "tpu")
    reset_backend()
    with pytest.raises(BackendError):
        current_backend()
    # A removed profile name fails like any other unknown name.
    monkeypatch.setenv("REPRO_BACKEND", "threads")
    reset_backend()
    with pytest.raises(BackendError, match="available: fast, numpy"):
        current_backend()


# ---------------------------------------------------------------------------
# Numpy backend: the historical bytes


def test_numpy_backend_matmul_matches_historical_expression():
    rng = np.random.default_rng(0)
    cols = rng.standard_normal((3, 25, 72)).astype(np.float32)
    w_mat = rng.standard_normal((16, 72)).astype(np.float32)
    set_backend("numpy")
    out = current_backend().conv_cols_matmul(cols, w_mat)
    assert out.tobytes() == (cols @ w_mat.T).tobytes()


def test_conv_forward_unchanged_under_default_backend():
    # The backend indirection itself must not perturb conv bytes: a model
    # forward with the backend explicitly set to numpy equals one with the
    # process default untouched.
    model = TinyCNN(rng=0)
    model.eval()
    x = _images()
    reset_backend()
    baseline = _logits(model, x)
    set_backend("numpy")
    assert _logits(model, x).tobytes() == baseline.tobytes()


# ---------------------------------------------------------------------------
# Fast backend: tolerance parity only (separately marked, never golden)


@pytest.mark.fast_backend
def test_fast_backend_tolerance_parity_on_model_forward():
    model = TinyCNN(rng=0)
    model.eval()
    x = _images()
    set_backend("numpy")
    reference = _logits(model, x)
    set_backend("fast")
    fast = _logits(model, x)
    assert fast.shape == reference.shape and fast.dtype == np.float32
    np.testing.assert_allclose(fast, reference, rtol=1e-4, atol=1e-5)


@pytest.mark.fast_backend
def test_fast_backend_tolerance_parity_on_batched_scoring():
    from repro.engine import EvalEngine
    from repro.quant.bits import flip_bit
    from repro.quant.qmodel import QuantizedModel

    model = TinyCNN(rng=0)
    model.eval()
    qmodel = QuantizedModel(model)
    x = _images()
    proposals = []
    for offset in (0, qmodel.total_params // 2, qmodel.total_params - 1):
        name, local = qmodel.locate(offset)
        current = qmodel.quantized(name).reshape(-1)[local]
        proposals.append(
            (offset, int(flip_bit(np.array([current], dtype=np.int8), 6)[0]))
        )

    set_backend("numpy")
    reference = EvalEngine(model).score_candidates(qmodel, proposals, x)
    set_backend("fast")
    fast = EvalEngine(model).score_candidates(qmodel, proposals, x)
    np.testing.assert_allclose(fast, reference, rtol=1e-4, atol=1e-5)


@pytest.mark.fast_backend
def test_fast_backend_output_is_contiguous_float32():
    rng = np.random.default_rng(1)
    cols = rng.standard_normal((2, 9, 27)).astype(np.float32)
    w_mat = rng.standard_normal((8, 27)).astype(np.float32)
    set_backend("fast")
    out = current_backend().conv_cols_matmul(cols, w_mat)
    assert out.shape == (2, 9, 8)
    assert out.dtype == np.float32
    np.testing.assert_allclose(out, cols @ w_mat.T, rtol=1e-5, atol=1e-6)


def _kernel_calls():
    """Arguments for each inherited kernel, on small bench-CNN-like shapes."""
    rng = np.random.default_rng(4)
    cols = rng.standard_normal((8, 64, 72)).astype(np.float32)
    # A lifted 10-class head: (K, N, in) @ (in, out).
    x3 = rng.standard_normal((4, 8, 32)).astype(np.float32)
    w_t = rng.standard_normal((10, 32)).astype(np.float32).T
    bias = rng.standard_normal((10,)).astype(np.float32)
    xbn = rng.standard_normal((8, 16, 8, 8)).astype(np.float32)
    stats = (xbn.mean(axis=(0, 2, 3)), xbn.var(axis=(0, 2, 3)))
    gamma = rng.standard_normal((16,)).astype(np.float32)
    beta = rng.standard_normal((16,)).astype(np.float32)
    return {
        "im2col_backward": (cols, (8, 8, 16, 16), 3, 3, 2, 1, 8, 8),
        "linear": (x3, w_t, bias),
        "batchnorm_stats": (xbn,),
        "batchnorm_apply": (xbn, gamma, beta, *stats, 1e-5),
    }


def _result_bytes(result):
    parts = result if isinstance(result, tuple) else (result,)
    return [None if p is None else p.tobytes() for p in parts]


# Kernels ``fast`` inherits from ``numpy``.  An override must beat the
# per-kernel bench's noise floor in every run (see repro.backend.fast), so
# moving a kernel out of this list has to come with that measurement.
FAST_INHERITED = (
    "im2col_backward",
    "linear",
    "batchnorm_stats",
    "batchnorm_apply",
)


@pytest.mark.parametrize("kernel", FAST_INHERITED)
def test_fast_backend_inherited_kernels_are_numpy_bytes(kernel):
    args = _kernel_calls()[kernel]
    reference = _result_bytes(getattr(set_backend("numpy"), kernel)(*args))
    fast = _result_bytes(getattr(set_backend("fast"), kernel)(*args))
    assert fast == reference


@pytest.mark.fast_backend
def test_fast_backend_cft_training_step_tolerance_parity():
    """A full CFT fine-tune run (forward + backward) under ``fast``.

    The training path now routes its dense forward, all backward GEMMs,
    the col2im scatter and batch-norm through the backend; the loss
    trajectory under ``fast`` must track the reference within tolerance.
    """
    from repro.attacks import AttackConfig, CFTAttack
    from repro.data.dataset import ArrayDataset
    from repro.nn import BatchNorm2d, Conv2d, GlobalAvgPool2d, Module
    from repro.nn import Linear as NNLinear
    from repro.quant.qmodel import QuantizedModel

    class BNNet(Module):
        def __init__(self, rng=0):
            super().__init__()
            self.conv = Conv2d(3, 4, 3, padding=1, rng=rng)
            self.bn = BatchNorm2d(4)
            self.pool = GlobalAvgPool2d()
            self.fc = NNLinear(4, 4, rng=rng)

        def forward(self, x):
            return self.fc(self.pool(self.bn(self.conv(x)).relu()))

    rng = np.random.default_rng(7)
    data = ArrayDataset(
        rng.random((16, 3, 8, 8), dtype=np.float32),
        rng.integers(0, 4, size=16),
    )
    config = AttackConfig(
        target_class=1, iterations=3, n_flip_budget=1, batch_size=8,
        trigger_size=3, seed=0,
    )

    set_backend("numpy")
    reference = CFTAttack(config, strategy="sgd").run(QuantizedModel(BNNet(rng=0)), data)
    set_backend("fast")
    fast = CFTAttack(config, strategy="sgd").run(QuantizedModel(BNNet(rng=0)), data)

    assert len(fast.loss_history) == len(reference.loss_history)
    np.testing.assert_allclose(
        fast.loss_history, reference.loss_history, rtol=1e-3, atol=1e-4
    )


# ---------------------------------------------------------------------------
# CLI surface


@pytest.mark.parametrize(
    "spec", ["bogus", "threads:x", "threads:", "numpy:4", "threads", "threads:2"]
)
def test_cli_rejects_invalid_backend_spec(spec, capsys):
    from repro.cli import main

    assert main(["--backend", spec, "devices"]) == 2
    assert "--backend:" in capsys.readouterr().err


def test_cli_backend_flag_mirrors_env_for_spawn_workers(monkeypatch, capsys):
    import os

    from repro.cli import main

    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    assert main(["--backend", "fast", "devices"]) == 0
    capsys.readouterr()
    assert os.environ["REPRO_BACKEND"] == "fast"
    assert backend_name() == "fast"
