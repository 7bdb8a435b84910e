"""The LAPACK tile kernels against the Python code they replace, which
runs with the OpenBLAS loader patched out: GEQRT/TSQRT/TTQRT through
``?geqrt``/``?tpqrt`` against the reflector loops, and UNMQR/TSMQR/TTMQR
through ``?gemqrt``/``?tpmqrt`` against the NumPy GEMMs.  The kernel
table's workspace, aliasing, read-only-input and float32 checks run on
both paths."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.kernels import (
    Workspace,
    build_t_factor,
    geqrt,
    lapack,
    tsmqr,
    tsmqr_batch,
    tsqrt,
    ttmqr,
    ttmqr_batch,
    ttqrt,
    unmqr,
    unmqr_batch,
)
from repro.runtime import blas
from repro.tiles import TiledMatrix

pytestmark = pytest.mark.skipif(
    blas._symbols() is None or len(blas._symbols().lapack) < len(blas.LAPACK_ROUTINES),
    reason="NumPy's OpenBLAS does not export the LAPACK tile kernels",
)

TILE_SIZES = (1, 2, 16, 64, 128)
#: A column whose sum of squares (4.8e-322) underflows to a denormal.
TINY = 2.2e-161
#: Agreement bound per dtype: 1e-12 absolute in float64; float32 gets
#: about 100x its machine epsilon.
TOLERANCES = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 1e-4}


def tolerance_for(dtype) -> float:
    return TOLERANCES[np.dtype(dtype)]


def _factors(f):
    arrays = [f.r, f.tf, f.taus]
    return arrays + [f.v if hasattr(f, "v") else f.v2]


def _full_t(f) -> np.ndarray:
    """The full ``k x k`` T of a factor's reflectors, from its V and taus."""
    if hasattr(f, "v"):
        return build_t_factor(f.v, f.taus)
    k = f.v2.shape[1]
    return build_t_factor(np.vstack([np.eye(k, dtype=f.v2.dtype), f.v2]), f.taus)


def _both(monkeypatch, kernel, *args):
    """``(lapack, loops)``: the kernel's factors with and without LAPACK."""
    fast = kernel(*args)
    with monkeypatch.context() as m:
        m.setattr(blas, "_symbols", lambda: None)
        slow = kernel(*args)
    return fast, slow


def _assert_agree(fast, slow, atol=1e-12):
    for got, want in zip(_factors(fast), _factors(slow)):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)
    # LAPACK's block-T holds the diagonal ib x ib blocks of the loops' full T.
    k = fast.tf.shape[1]
    ib = min(k, lapack.IB)
    assert fast.tf.shape == (ib, k)
    full = _full_t(slow)
    for j0 in range(0, k, ib):
        j1 = min(j0 + ib, k)
        np.testing.assert_allclose(
            fast.tf[: j1 - j0, j0:j1], full[j0:j1, j0:j1], rtol=0, atol=atol
        )
    np.testing.assert_allclose(fast.taus, np.diag(full), rtol=0, atol=atol)


def _orthogonality(f) -> float:
    q = f.q_dense()
    return float(np.abs(q.T @ q - np.eye(len(q))).max())


def _triangle(rng, b, dtype=np.float64):
    return geqrt(rng.standard_normal((b, b)).astype(dtype)).r


@pytest.mark.parametrize("b", TILE_SIZES)
class TestAgainstLoops:
    def test_geqrt_square_and_tall(self, monkeypatch, rng, b):
        for m in (b, b + 7):
            fast, slow = _both(monkeypatch, geqrt, rng.standard_normal((m, b)))
            _assert_agree(fast, slow)
            assert not np.any(np.tril(fast.r, -1))
            assert np.array_equal(np.diag(fast.v), np.ones(b))

    def test_tsqrt_full_and_ragged_bottom(self, monkeypatch, rng, b):
        for m2 in sorted({b, max(1, b // 3), b + 5}):
            r1 = _triangle(rng, b)
            fast, slow = _both(monkeypatch, tsqrt, r1, rng.standard_normal((m2, b)))
            _assert_agree(fast, slow)
            assert fast.kind == "TS"

    def test_ttqrt(self, monkeypatch, rng, b):
        # Garbage below r2's diagonal must not reach the factors.
        r2 = _triangle(rng, b) + np.tril(rng.standard_normal((b, b)), -1)
        fast, slow = _both(monkeypatch, ttqrt, _triangle(rng, b), r2)
        _assert_agree(fast, slow)
        assert fast.kind == "TT"
        assert not np.any(np.tril(fast.v2, -1))

    def test_float32_keeps_its_dtype(self, monkeypatch, rng, b):
        a = rng.standard_normal((b, b)).astype(np.float32)
        r1 = _triangle(rng, b, np.float32)
        bottom = rng.standard_normal((b, b)).astype(np.float32)
        for kernel, args in ((geqrt, (a,)), (tsqrt, (r1, bottom)), (ttqrt, (r1, np.triu(bottom)))):
            fast, slow = _both(monkeypatch, kernel, *args)
            _assert_agree(fast, slow, atol=tolerance_for(np.float32))
            assert all(x.dtype == np.float32 for x in _factors(fast))


class TestEdgeColumns:
    def test_zero_column(self, monkeypatch, rng):
        a = rng.standard_normal((16, 16))
        a[:, 3] = 0.0
        fast, slow = _both(monkeypatch, geqrt, a)
        _assert_agree(fast, slow)
        r1 = _triangle(rng, 16)
        r1[3, 3] = 0.0
        bottom = rng.standard_normal((16, 16))
        bottom[:, 0] = 0.0
        for kernel, args in ((tsqrt, (r1, bottom)), (ttqrt, (r1, np.triu(bottom)))):
            fast, slow = _both(monkeypatch, kernel, *args)
            _assert_agree(fast, slow)
            assert fast.taus[0] == 0.0

    @pytest.mark.parametrize(
        "kernel, args",
        [
            (geqrt, (np.array([[0.0, 1.0], [TINY, 1.0]]),)),
            (tsqrt, (np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([[TINY, 1.0]]))),
            (ttqrt, (np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([[TINY, 1.0], [0.0, 1.0]]))),
        ],
        ids=["geqrt", "tsqrt", "ttqrt"],
    )
    def test_underflowing_column(self, monkeypatch, kernel, args):
        fast, slow = _both(monkeypatch, kernel, *args)
        _assert_agree(fast, slow)
        assert _orthogonality(fast) <= 1e-12
        assert abs(fast.r[0, 0]) == pytest.approx(TINY, rel=1e-15)


# -- update kernels ------------------------------------------------------------


@pytest.fixture
def lapack_calls(monkeypatch):
    """Whether LAPACK ran, for every ``?gemqrt``/``?tpmqrt`` attempt made
    with the loader in place (a wrapper re-entering itself to pin BLAS
    threads counts once)."""
    ran, depth = [], []

    def spy(real, *args):
        depth.append(real)
        try:
            done = real(*args)
        finally:
            depth.pop()
        if not depth and blas._symbols() is not None:
            ran.append(done)
        return done

    for name in ("gemqrt", "tpmqrt"):
        monkeypatch.setattr(lapack, name, lambda *a, _real=getattr(lapack, name): spy(_real, *a))
    return ran


def _update_both(monkeypatch, kernel, f, tiles, transpose):
    """``(lapack, numpy)``: ``tiles`` after the update, with and without
    LAPACK; ``tiles`` (possibly views) receive the LAPACK result."""
    slow = [t.copy() for t in tiles]
    kernel(f, *tiles, transpose=transpose)
    with monkeypatch.context() as m:
        m.setattr(blas, "_symbols", lambda: None)
        kernel(f, *slow, transpose=transpose)
    return tiles, slow


def _assert_updates_agree(fast, slow, atol=1e-12):
    for got, want in zip(fast, slow):
        assert got.dtype == want.dtype
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)


@pytest.mark.parametrize("transpose", [True, False])
@pytest.mark.parametrize("b", TILE_SIZES)
class TestUpdatesAgainstNumPy:
    def test_unmqr_square_and_tall(self, monkeypatch, lapack_calls, rng, b, transpose):
        for m in (b, b + 7):
            f = geqrt(rng.standard_normal((m, b)))
            for width in (1, b, 3 * b):
                c = rng.standard_normal((m, width))
                _assert_updates_agree(*_update_both(monkeypatch, unmqr, f, [c], transpose))
        assert all(lapack_calls)

    def test_tsmqr_full_and_ragged_bottom(self, monkeypatch, lapack_calls, rng, b, transpose):
        for m2 in sorted({b, max(1, b // 3), b + 5}):
            f = tsqrt(_triangle(rng, b), rng.standard_normal((m2, b)))
            tiles = [rng.standard_normal((b, 2 * b)), rng.standard_normal((m2, 2 * b))]
            _assert_updates_agree(*_update_both(monkeypatch, tsmqr, f, tiles, transpose))
        assert all(lapack_calls)

    def test_ttmqr(self, monkeypatch, lapack_calls, rng, b, transpose):
        f = ttqrt(_triangle(rng, b), _triangle(rng, b))
        tiles = [rng.standard_normal((b, 2 * b)), rng.standard_normal((b, 2 * b))]
        _assert_updates_agree(*_update_both(monkeypatch, ttmqr, f, tiles, transpose))
        assert lapack_calls == [True]

    def test_float32(self, monkeypatch, lapack_calls, rng, b, transpose):
        f32 = np.float32
        fg = geqrt(rng.standard_normal((b, b)).astype(f32))
        c = rng.standard_normal((b, b)).astype(f32)
        _assert_updates_agree(
            *_update_both(monkeypatch, unmqr, fg, [c], transpose), atol=tolerance_for(f32)
        )
        r1 = _triangle(rng, b, f32)
        bottom = rng.standard_normal((b, b)).astype(f32)
        for kernel, f in ((tsmqr, tsqrt(r1, bottom)), (ttmqr, ttqrt(r1, np.triu(bottom)))):
            tiles = [rng.standard_normal((b, b)).astype(f32) for _ in range(2)]
            fast, slow = _update_both(monkeypatch, kernel, f, tiles, transpose)
            _assert_updates_agree(fast, slow, atol=tolerance_for(f32))
        assert lapack_calls == [True] * 3

    def test_row_major_panel_views(self, monkeypatch, lapack_calls, rng, b, transpose):
        # Tiles of a row-major matrix are views with leading dimension q*b.
        q = 3
        tm = TiledMatrix.from_dense(rng.standard_normal((2 * b, q * b)), b, storage="rowmajor")
        top, bot = tm.tile(0, 1), tm.tile(1, 2)
        assert top.strides[0] == q * b * top.itemsize or b == 1
        fg = geqrt(rng.standard_normal((b, b)))
        fe = tsqrt(_triangle(rng, b), rng.standard_normal((b, b)))
        _assert_updates_agree(*_update_both(monkeypatch, unmqr, fg, [top], transpose))
        _assert_updates_agree(*_update_both(monkeypatch, tsmqr, fe, [top, bot], transpose))
        # A panel of two tiles (the batched kernels' operand) is a view too.
        panels = [tm.row_panel(0, 1, 3), tm.row_panel(1, 1, 3)]
        _assert_updates_agree(*_update_both(monkeypatch, tsmqr, fe, panels, transpose))
        assert all(lapack_calls)
        assert np.array_equal(tm.tile(0, 1), top) and np.shares_memory(tm.tile(0, 1), top)

    def test_non_contiguous_rows_fall_back(self, monkeypatch, lapack_calls, rng, b, transpose):
        fg = geqrt(rng.standard_normal((b, b)))
        fe = tsqrt(_triangle(rng, b), rng.standard_normal((b, b)))
        strided = rng.standard_normal((b, 4 * b))[:, ::2]  # column stride 2
        fortran = np.asfortranarray(rng.standard_normal((b, 2 * b)))
        _assert_updates_agree(*_update_both(monkeypatch, unmqr, fg, [strided], transpose))
        _assert_updates_agree(
            *_update_both(monkeypatch, tsmqr, fe, [fortran, strided], transpose)
        )
        assert lapack_calls == [False, False]


@pytest.mark.parametrize("numpy_path", [False, True])
@pytest.mark.parametrize("b", (16, 64, 128))
def test_full_t_factors_apply_like_block_t(monkeypatch, rng, b, numpy_path):
    """A full ``k x k`` T (``nb = k``), as checkpoints written before
    inner blocking hold it, applies like the block-T, on both paths."""
    fg = geqrt(rng.standard_normal((b, b)))
    fe = tsqrt(_triangle(rng, b), rng.standard_normal((b, b)))
    ft = ttqrt(_triangle(rng, b), _triangle(rng, b))
    for f, kernel, rows in ((fg, unmqr, (b,)), (fe, tsmqr, (b, b)), (ft, ttmqr, (b, b))):
        full = dataclasses.replace(f, tf=_full_t(f))
        assert full.tf.shape == (b, b)
        if numpy_path:
            monkeypatch.setattr(blas, "_symbols", lambda: None)
        for transpose in (True, False):
            tiles = [rng.standard_normal((m, 2 * b)) for m in rows]
            want = [t.copy() for t in tiles]
            kernel(f, *want, transpose=transpose)
            got = [t.copy() for t in tiles]
            kernel(full, *got, transpose=transpose)
            _assert_updates_agree(got, want)


def test_factors_pickle_without_lapack_addresses(rng):
    import pickle

    f = tsqrt(_triangle(rng, 64), rng.standard_normal((64, 64)))
    tsmqr(f, rng.standard_normal((64, 8)), rng.standard_normal((64, 8)))
    assert f._lapack is not None  # taken on first use
    g = pickle.loads(pickle.dumps(f))
    assert g._lapack is None
    np.testing.assert_array_equal(g.tf, f.tf)


def test_workers_racing_on_a_fresh_factor(rng):
    """Workers apply a factor whose operand addresses are not taken yet.
    With a C-order V each takes its own Fortran copy, and the one that
    loses the race must keep its copy alive through its LAPACK call."""
    import sys
    import threading

    from repro.kernels import Workspace
    from repro.runtime.blas import blas_threads

    b, workers = 64, 6
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with blas_threads(1):
            for _ in range(120):
                f = geqrt(rng.standard_normal((b, b)))
                f = dataclasses.replace(f, v=np.ascontiguousarray(f.v))
                tiles = [rng.standard_normal((b, b)) for _ in range(workers)]
                want = [t.copy() for t in tiles]
                for t in want:
                    unmqr(f, t)
                f = dataclasses.replace(f)  # addresses not taken yet
                start = threading.Barrier(workers)

                def work(tile):
                    start.wait()
                    [np.empty_like(tile) + 1.0 for _ in range(3)]  # reuse freed memory
                    unmqr(f, tile, workspace=Workspace())

                threads = [threading.Thread(target=work, args=(t,)) for t in tiles]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
                for got, expected in zip(tiles, want):
                    np.testing.assert_array_equal(got, expected)
    finally:
        sys.setswitchinterval(old)


def test_direct_calls_run_on_one_blas_thread(monkeypatch, rng):
    """Outside a runtime, each kernel pins BLAS to one thread for its
    LAPACK call and restores the caller's count."""
    syms = blas._symbols()
    seen = []

    def recording(fn):
        return lambda *args: (seen.append(syms.get()), fn(*args))

    patched = syms._replace(lapack={k: recording(fn) for k, fn in syms.lapack.items()})
    monkeypatch.setattr(blas, "_symbols", lambda: patched)
    saved = blas.get_num_threads()
    blas.set_num_threads(2)
    try:
        fg = geqrt(rng.standard_normal((64, 64)))
        fe = tsqrt(fg.r, rng.standard_normal((64, 64)))
        unmqr(fg, rng.standard_normal((64, 8)))
        tsmqr(fe, rng.standard_normal((64, 8)), rng.standard_normal((64, 8)))
        assert blas.get_num_threads() == 2
    finally:
        blas.set_num_threads(saved)
    assert seen == [1, 1, 1, 1]


@pytest.mark.parametrize("shape", [(32, 32), (65, 64), (64,)])
def test_malformed_block_t_is_rejected(rng, shape):
    """LAPACK reads ``nb * k`` entries of T: a T of any other shape is
    refused before a pointer is passed."""
    from repro.errors import KernelError

    fg = geqrt(rng.standard_normal((64, 64)))
    fe = tsqrt(_triangle(rng, 64), rng.standard_normal((64, 64)))
    tf = np.zeros(shape)
    with pytest.raises(KernelError, match="Tf must have shape"):
        unmqr(dataclasses.replace(fg, tf=tf), rng.standard_normal((64, 4)))
    with pytest.raises(KernelError, match="Tf must have shape"):
        tsmqr(dataclasses.replace(fe, tf=tf), *rng.standard_normal((2, 64, 4)))


# -- the kernel table's contract, on both paths ---------------------------------


@pytest.fixture(params=["lapack", "loops"])
def path(request, monkeypatch):
    """Run the test on LAPACK and on the Python loops and NumPy GEMMs."""
    if request.param == "loops":
        monkeypatch.setattr(blas, "_symbols", lambda: None)
    return request.param


@pytest.mark.usefixtures("path")
class TestKernelContract:
    def test_shared_workspace_matches_fresh_workspaces(self, rng):
        b = 8
        fg = geqrt(rng.standard_normal((b, b)))
        fe = tsqrt(np.triu(rng.standard_normal((b, b))), rng.standard_normal((b, b)))
        c = rng.standard_normal((b, 3 * b))
        c1 = rng.standard_normal((b, 3 * b))
        c2 = rng.standard_normal((b, 3 * b))

        def run(ws_factory):
            a, x, y = c.copy(), c1.copy(), c2.copy()
            unmqr(fg, a, workspace=ws_factory())
            tsmqr(fe, x, y, workspace=ws_factory())
            unmqr_batch(fg, a, workspace=ws_factory())
            return a, x, y

        shared = Workspace()
        got = run(lambda: shared)
        want = run(Workspace)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_later_kernel_calls_leave_earlier_outputs_alone(self, rng):
        b = 8
        ws = Workspace()
        fg = geqrt(rng.standard_normal((b, b)))
        first = rng.standard_normal((b, 2 * b))
        unmqr(fg, first, workspace=ws)
        snapshot = first.copy()
        # Hammer the same arena with other work at other widths.
        for width in (b, 4 * b, 1):
            unmqr(fg, rng.standard_normal((b, width)), workspace=ws)
        fe = tsqrt(np.triu(rng.standard_normal((b, b))), rng.standard_normal((b, b)))
        tsmqr(fe, rng.standard_normal((b, b)), rng.standard_normal((b, b)), workspace=ws)
        np.testing.assert_array_equal(first, snapshot)

    @pytest.mark.parametrize("b", (1, 5, 16, 33))
    def test_read_only_inputs_are_untouched(self, rng, b):
        """Factorizations leave their inputs alone and updates their
        factors, ragged bottom tiles and row panels included."""
        ws = Workspace()
        a = rng.standard_normal((b + 3, b))
        r1 = _triangle(rng, b)
        for kernel, args in (
            (geqrt, (a,)),
            (tsqrt, (r1, rng.standard_normal((b, b)))),
            (tsqrt, (r1, rng.standard_normal((max(1, b - 1), b)))),
            (ttqrt, (r1, np.triu(rng.standard_normal((b, b))))),
        ):
            before = [x.copy() for x in args]
            kernel(*args)
            for x, x0 in zip(args, before):
                np.testing.assert_array_equal(x, x0)
        fg = geqrt(rng.standard_normal((b, b)))
        fe = tsqrt(r1, rng.standard_normal((b, b)))
        ft = ttqrt(r1, np.triu(rng.standard_normal((b, b))))
        updates = (
            (unmqr, fg, 1), (tsmqr, fe, 2), (ttmqr, ft, 2),
            (unmqr_batch, fg, 1), (tsmqr_batch, fe, 2), (ttmqr_batch, ft, 2),
        )
        for kernel, f, npanels in updates:
            before = [x.copy() for x in _factors(f)]
            for transpose in (True, False):
                panels = [rng.standard_normal((b, 4 * b)) for _ in range(npanels)]
                kernel(f, *panels, transpose=transpose, workspace=ws)
            for x, x0 in zip(_factors(f), before):
                np.testing.assert_array_equal(x, x0)

    @pytest.mark.parametrize("b", (2, 8, 16))
    def test_float32_agrees_with_float64(self, rng, b):
        """Each factorization and its update, run in float32, keeps its
        dtype and agrees with the same inputs run in float64."""
        f32 = np.float32
        a = rng.standard_normal((b, b)).astype(f32)
        r1 = _triangle(rng, b, f32)
        bottom = rng.standard_normal((b, b)).astype(f32)
        c = rng.standard_normal((2 * b, 3 * b)).astype(f32)
        pairs = (
            (geqrt, unmqr, (a,), 1),
            (tsqrt, tsmqr, (r1, bottom), 2),
            (ttqrt, ttmqr, (r1, np.triu(bottom)), 2),
        )
        for factor, update, args, ntiles in pairs:
            tiles = [c[:b], c[b:]][:ntiles]
            results = {}
            for dtype in (f32, np.float64):
                f = factor(*(x.astype(dtype) for x in args))
                out = [t.astype(dtype) for t in tiles]
                update(f, *out, workspace=Workspace())
                results[dtype] = (f.r, *out)
            for got, want in zip(results[f32], results[np.float64]):
                assert got.dtype == f32
                np.testing.assert_allclose(got, want, rtol=0, atol=tolerance_for(f32))


# -- prepared update calls -------------------------------------------------------


@pytest.fixture
def prepared_runs(monkeypatch):
    """``(factor, ran)`` for each update call: whether it repeated the
    factor's prepared LAPACK call."""
    runs, real = [], lapack.prepared

    def spy(f, *args):
        ran = real(f, *args)
        runs.append((f, ran))
        return ran

    monkeypatch.setattr(lapack, "prepared", spy)
    return runs


class TestPreparedCall:
    """A factor's later update calls repeat the argument tuple its first
    call prepared; each result is bit-identical to the same call on a
    freshly made factor, and any call the tuple does not fit falls back."""

    B = 16

    @staticmethod
    def _check(kernel, f, make, **kwargs):
        """Apply ``f`` and a fresh copy of it to tiles from ``make()``."""
        want, got = make(), make()
        kernel(dataclasses.replace(f), *want, **kwargs)
        kernel(f, *got, **kwargs)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @staticmethod
    def _tiles(*shapes, dtype=np.float64, seed=0):
        def make():
            rng = np.random.default_rng(seed)
            return [rng.standard_normal(s).astype(dtype) for s in shapes]

        return make

    def _factors(self, rng, dtype=np.float64):
        b = self.B
        fe = tsqrt(_triangle(rng, b, dtype), rng.standard_normal((b, b)).astype(dtype))
        fg = geqrt(rng.standard_normal((b, b)).astype(dtype))
        return fe, fg

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_factor_through_two_workspaces(self, prepared_runs, rng, dtype):
        b = self.B
        fe, fg = self._factors(rng, dtype)
        pair, tile = self._tiles((b, b), (b, b), dtype=dtype), self._tiles((b, b), dtype=dtype)
        workspaces = [Workspace(), Workspace()]
        with blas.blas_threads(1):
            for transpose in (True, False):
                for i in range(6):
                    ws = workspaces[i // 2 % 2]
                    self._check(tsmqr, fe, pair, transpose=transpose, workspace=ws)
                    self._check(unmqr, fg, tile, transpose=transpose, workspace=ws)
        # A call repeats the prepared call only when the one before it on
        # this factor had the same workspace and direction.
        for f in (fe, fg):
            assert [r for g, r in prepared_runs if g is f] == [False, True] * 6

    def test_work_buffer_grows_between_calls(self, prepared_runs, rng):
        b = self.B
        fe, fg = self._factors(rng)
        other, _ = self._factors(rng)
        pair, panels = self._tiles((b, b), (b, b)), self._tiles((b, 8 * b), (b, 8 * b))
        tile, panel = self._tiles((b, b)), self._tiles((b, 8 * b))
        ws = Workspace()
        with blas.blas_threads(1):
            self._check(tsmqr, fe, pair, workspace=ws)
            self._check(unmqr, fg, tile, workspace=ws)
            # A row panel needs a larger WORK: the workspace replaces the
            # buffer the prepared calls point at.
            self._check(tsmqr_batch, other, panels, workspace=ws)
            [np.ones(8 * b * b) for _ in range(4)]  # reuse freed memory
            for _ in range(2):
                self._check(tsmqr, fe, pair, workspace=ws)
                self._check(unmqr, fg, tile, workspace=ws)
                self._check(tsmqr_batch, fe, panels, workspace=ws)
                self._check(unmqr_batch, fg, panel, workspace=ws)
        for f in (fe, fg):
            assert [r for g, r in prepared_runs if g is f] == [False, True, False, False, False]

    def test_read_only_and_strided_tiles_fall_back(self, prepared_runs, rng):
        b = self.B
        fe, fg = self._factors(rng)
        pair, tile = self._tiles((b, b), (b, b)), self._tiles((b, b))

        def strided():  # column stride 2, then a contiguous tile
            return [np.random.default_rng(1).standard_normal((b, 2 * b))[:, ::2], tile()[0]]

        ws = Workspace()
        with blas.blas_threads(1):
            self._check(tsmqr, fe, pair, workspace=ws)
            self._check(unmqr, fg, tile, workspace=ws)
            self._check(tsmqr, fe, strided, workspace=ws)
            self._check(unmqr, fg, lambda: strided()[:1], workspace=ws)
            read_only = tile()[0]
            read_only.flags.writeable = False
            for kernel, f, tiles in ((tsmqr, fe, [read_only, tile()[0]]), (unmqr, fg, [read_only])):
                for factor in (dataclasses.replace(f), f):
                    with pytest.raises(ValueError, match="read-only"):
                        kernel(factor, *tiles, workspace=ws)
            np.testing.assert_array_equal(read_only, tile()[0])
            self._check(tsmqr, fe, pair, workspace=ws)
            self._check(unmqr, fg, tile, workspace=ws)
        for f in (fe, fg):
            assert [r for g, r in prepared_runs if g is f] == [False] * 3 + [True]
