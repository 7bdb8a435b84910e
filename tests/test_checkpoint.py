"""Tests for factorization checkpointing."""

import numpy as np
import pytest

from repro.kernels import build_t_factor
from repro.kernels.lapack import IB
from repro.runtime import tiled_qr
from repro.runtime.checkpoint import (
    CheckpointError,
    load_factorization,
    save_factorization,
)


class TestCheckpoint:
    @pytest.mark.parametrize(
        "shape,b,elim",
        [((64, 64), 16, "TS"), ((50, 50), 16, "TS"), ((48, 48), 16, "TT"),
         ((80, 48), 16, "TS")],
    )
    def test_roundtrip_preserves_everything(self, rng, tmp_path, shape, b, elim):
        a = rng.standard_normal(shape)
        f = tiled_qr(a, b, elimination=elim)
        path = tmp_path / "fact.npz"
        save_factorization(f, path)
        g = load_factorization(path)
        np.testing.assert_array_equal(g.r_dense(), f.r_dense())
        np.testing.assert_allclose(g.q_dense(), f.q_dense(), atol=1e-13)
        assert g.shape == f.shape
        assert g.tile_size == f.tile_size

    def test_restored_solve(self, rng, tmp_path):
        a = rng.standard_normal((64, 64)) + 6 * np.eye(64)
        f = tiled_qr(a, 16)
        path = tmp_path / "fact.npz"
        save_factorization(f, path)
        g = load_factorization(path)
        x = rng.standard_normal(64)
        np.testing.assert_allclose(g.solve(a @ x), x, atol=1e-8)

    def test_full_t_checkpoint_applies(self, rng, tmp_path):
        # Checkpoints written before inner blocking hold each factor's
        # full b x b T; rewrite one that way and apply it.
        a = rng.standard_normal((128, 128))
        f = tiled_qr(a, 64)
        path = tmp_path / "fact.npz"
        save_factorization(f, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        ops = [k[: -len("_tf")] for k in arrays if k.endswith("_tf")]
        for op in ops:
            v = arrays[f"{op}_v"]
            if arrays[f"{op}_id"][0] != 0:  # TSQRT/TTQRT store V2 under V = [I; V2]
                v = np.vstack([np.eye(v.shape[1]), v])
            assert arrays[f"{op}_tf"].shape == (IB, 64)
            arrays[f"{op}_tf"] = build_t_factor(v, arrays[f"{op}_taus"])
        np.savez(path, **arrays)
        g = load_factorization(path)
        assert all(factors.tf.shape == (64, 64) for _, factors in g.log)
        x = rng.standard_normal((128, 3))
        np.testing.assert_allclose(g.apply_qt(x), f.apply_qt(x), atol=1e-12)
        np.testing.assert_allclose(g.q_dense(), f.q_dense(), atol=1e-12)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_factorization(tmp_path / "nope.npz")

    def test_truncated_file(self, rng, tmp_path):
        f = tiled_qr(rng.standard_normal((32, 32)), 16)
        path = tmp_path / "fact.npz"
        save_factorization(f, path)
        # Corrupt: rewrite with a subset of arrays.
        with np.load(path) as data:
            keep = {k: data[k] for k in list(data.files)[:2]}
        np.savez(path, **keep)
        with pytest.raises(CheckpointError):
            load_factorization(path)

    def test_float32_roundtrip(self, rng, tmp_path):
        a = rng.standard_normal((48, 48)).astype(np.float32)
        f = tiled_qr(a, 16)
        path = tmp_path / "f32.npz"
        save_factorization(f, path)
        g = load_factorization(path)
        assert g.r_dense().dtype == np.float32
        err = np.linalg.norm(g.apply_q(g.r_dense()) - a) / np.linalg.norm(a)
        assert err < 5e-6
