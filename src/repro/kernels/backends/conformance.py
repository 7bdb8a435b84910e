"""Differential conformance harness: every backend vs the reference.

What makes multiple kernel backends safe to ship is an oracle that
proves they are numerically interchangeable.  This module runs each
registered backend against the ``reference`` backend over a
deterministic grid of tile sizes, shapes, and dtypes and checks, per
kernel:

* **elementwise agreement** — every output array within ``1e-12`` of
  the reference in float64 (``1e-4`` in float32, where 1e-12 is below
  the representable resolution);
* **input safety** — read-only operands (factor arrays, GEQRT/TSQRT
  inputs) are bitwise untouched, i.e. ``out=`` workspace buffers never
  alias or corrupt inputs;
* **end-to-end bit-identity** — a full serial factorization under the
  backend reproduces the reference R *bitwise* when the backend
  declares ``bit_exact``, and within ``1e-12`` relative otherwise.

The same checks back three consumers: ``tiledqr backends --check`` (CLI
+ CI artifact), the hypothesis-driven property suite in
``tests/test_backend_conformance.py``, and ad-hoc vetting of
out-of-tree backends before registration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ...errors import KernelError

#: Conformance bound per dtype: 1e-12 absolute in float64 (the ISSUE
#: contract); float32 gets ~100x its machine epsilon.
TOLERANCES = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 1e-4}

#: Deterministic sweep defaults: 1x1, tiny, paper-ish, and one
#: above the geqrt auto-blocking threshold (48).
DEFAULT_TILE_SIZES = (1, 2, 5, 8, 16, 33, 64)
DEFAULT_DTYPES = (np.float64, np.float32)
_SEED = 0x7150


def tolerance_for(dtype) -> float:
    dt = np.dtype(dtype)
    try:
        return TOLERANCES[dt]
    except KeyError:
        raise KernelError(f"no conformance tolerance defined for dtype {dt}") from None


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest elementwise deviation, inf on shape/non-finite mismatch."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return float("inf")
    if a.size == 0:
        return 0.0
    both = np.concatenate([np.ravel(a), np.ravel(b)])
    if not np.all(np.isfinite(both)):
        finite_match = np.array_equal(np.isfinite(a), np.isfinite(b))
        if not finite_match:
            return float("inf")
    diff = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
    return float(np.nanmax(diff)) if diff.size else 0.0


@dataclass
class ConformanceCase:
    """Result of one backend/kernel/configuration comparison."""

    backend: str
    kernel: str
    config: str
    max_err: float
    tol: float
    ok: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "kernel": self.kernel,
            "config": self.config,
            "max_err": self.max_err,
            "tol": self.tol,
            "ok": self.ok,
            "note": self.note,
        }


@dataclass
class ConformanceReport:
    """Full sweep outcome, serializable for the CI artifact."""

    backends: list[str] = field(default_factory=list)
    cases: list[ConformanceCase] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.cases) and bool(self.cases)

    def failures(self) -> list[ConformanceCase]:
        return [c for c in self.cases if not c.ok]

    def to_dict(self) -> dict:
        return {
            "kind": "backend-conformance-report",
            "backends": list(self.backends),
            "passed": self.passed,
            "num_cases": len(self.cases),
            "failures": [c.to_dict() for c in self.failures()],
            "cases": [c.to_dict() for c in self.cases],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    def to_text(self) -> str:
        by_backend: dict[str, list[ConformanceCase]] = {}
        for c in self.cases:
            by_backend.setdefault(c.backend, []).append(c)
        lines = [
            f"backend conformance vs reference: "
            f"{len(self.cases)} case(s) over {', '.join(self.backends) or '(none)'}"
        ]
        for name, cases in sorted(by_backend.items()):
            bad = [c for c in cases if not c.ok]
            worst = max((c.max_err for c in cases), default=0.0)
            status = "PASS" if not bad else f"FAIL ({len(bad)} case(s))"
            lines.append(
                f"  {name:12s} {status:18s} worst |err| {worst:.3e} "
                f"over {len(cases)} case(s)"
            )
            for c in bad:
                lines.append(
                    f"    FAIL {c.kernel} [{c.config}]: "
                    f"max err {c.max_err:.3e} > tol {c.tol:.0e} {c.note}"
                )
        lines.append("conformance: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _rng(*salt: int) -> np.random.Generator:
    return np.random.default_rng([_SEED, *salt])


def _compare(cases, backend_name, kernel, config, pairs, tol, extra_ok=True, note=""):
    """Record one case comparing named (candidate, oracle) array pairs."""
    err = max((max_abs_diff(got, want) for got, want in pairs), default=0.0)
    cases.append(
        ConformanceCase(
            backend=backend_name,
            kernel=kernel,
            config=config,
            max_err=err,
            tol=tol,
            ok=bool(err <= tol) and extra_ok,
            note=note,
        )
    )


def _factor_pairs(got, want):
    if hasattr(got, "v2"):
        return [(got.r, want.r), (got.v2, want.v2), (got.tf, want.tf), (got.taus, want.taus)]
    return [(got.r, want.r), (got.v, want.v), (got.tf, want.tf), (got.taus, want.taus)]


def check_kernels(backend, reference, tile_sizes=DEFAULT_TILE_SIZES,
                  dtypes=DEFAULT_DTYPES) -> list[ConformanceCase]:
    """Per-kernel differential checks for one backend."""
    from ..workspace import Workspace

    cases: list[ConformanceCase] = []
    ws = Workspace()
    for dtype in dtypes:
        tol = tolerance_for(dtype)
        for b in tile_sizes:
            cfg = f"b={b} {np.dtype(dtype).name}"
            rng = _rng(b, np.dtype(dtype).itemsize)

            # GEQRT: square and tall, input untouched.
            for shape_tag, m in (("sq", b), ("tall", b + 3)):
                a = rng.standard_normal((m, b)).astype(dtype)
                before = a.copy()
                got = backend.geqrt(a)
                want = reference.geqrt(a)
                _compare(
                    cases, backend.name, "GEQRT", f"{cfg} {shape_tag}",
                    _factor_pairs(got, want), tol,
                    extra_ok=np.array_equal(a, before),
                    note="" if np.array_equal(a, before) else "(input modified)",
                )

            # TSQRT / TTQRT (TT needs a square bottom; TS also ragged).
            r1 = np.triu(rng.standard_normal((b, b))).astype(dtype)
            for kname, bot_rows, tt in (
                ("TSQRT", b, False),
                ("TSQRT", max(1, b - 1), False),  # ragged bottom boundary tile
                ("TTQRT", b, True),
            ):
                a2 = rng.standard_normal((bot_rows, b)).astype(dtype)
                if tt:
                    a2 = np.triu(a2)
                in1, in2 = r1.copy(), a2.copy()
                fn = backend.ttqrt if tt else backend.tsqrt
                ref_fn = reference.ttqrt if tt else reference.tsqrt
                got = fn(r1, a2)
                want = ref_fn(r1, a2)
                untouched = np.array_equal(r1, in1) and np.array_equal(a2, in2)
                _compare(
                    cases, backend.name, kname, f"{cfg} m2={bot_rows}",
                    _factor_pairs(got, want), tol,
                    extra_ok=untouched,
                    note="" if untouched else "(input modified)",
                )

            # Update kernels: both directions, factor arrays untouched.
            fg = reference.geqrt(rng.standard_normal((b, b)).astype(dtype))
            fe_ts = reference.tsqrt(
                fg.r.copy(), rng.standard_normal((b, b)).astype(dtype)
            )
            fe_tt = reference.ttqrt(
                fg.r.copy(), np.triu(rng.standard_normal((b, b))).astype(dtype)
            )
            width = 3 * b  # one "row panel" worth of columns
            for transpose in (True, False):
                tdir = "QT" if transpose else "Q"
                c = rng.standard_normal((b, width)).astype(dtype)
                got_c = c.copy()
                want_c = c.copy()
                v_before = fg.v.copy()
                tf_before = fg.tf.copy()
                backend.unmqr(fg, got_c, transpose=transpose, workspace=ws)
                reference.unmqr(fg, want_c, transpose=transpose)
                factors_safe = np.array_equal(fg.v, v_before) and np.array_equal(
                    fg.tf, tf_before
                )
                _compare(
                    cases, backend.name, "UNMQR", f"{cfg} {tdir}",
                    [(got_c, want_c)], tol,
                    extra_ok=factors_safe,
                    note="" if factors_safe else "(factors corrupted)",
                )

                for kname, fe, fn, ref_fn in (
                    ("TSMQR", fe_ts, backend.tsmqr, reference.tsmqr),
                    ("TTMQR", fe_tt, backend.ttmqr, reference.ttmqr),
                ):
                    c1 = rng.standard_normal((b, width)).astype(dtype)
                    c2 = rng.standard_normal((b, width)).astype(dtype)
                    g1, g2 = c1.copy(), c2.copy()
                    w1, w2 = c1.copy(), c2.copy()
                    v2_before = fe.v2.copy()
                    fn(fe, g1, g2, transpose=transpose, workspace=ws)
                    ref_fn(fe, w1, w2, transpose=transpose)
                    factors_safe = np.array_equal(fe.v2, v2_before)
                    _compare(
                        cases, backend.name, kname, f"{cfg} {tdir}",
                        [(g1, w1), (g2, w2)], tol,
                        extra_ok=factors_safe,
                        note="" if factors_safe else "(factors corrupted)",
                    )

            # Batched variants over a 4-tile panel.
            panel = rng.standard_normal((b, 4 * b)).astype(dtype)
            gp, wp = panel.copy(), panel.copy()
            backend.unmqr_batch(fg, gp, workspace=ws)
            reference.unmqr_batch(fg, wp)
            _compare(cases, backend.name, "UNMQR_BATCH", cfg, [(gp, wp)], tol)
            for kname, fe, fn, ref_fn in (
                ("TSMQR_BATCH", fe_ts, backend.tsmqr_batch, reference.tsmqr_batch),
                ("TTMQR_BATCH", fe_tt, backend.ttmqr_batch, reference.ttmqr_batch),
            ):
                p1 = rng.standard_normal((b, 4 * b)).astype(dtype)
                p2 = rng.standard_normal((b, 4 * b)).astype(dtype)
                g1, g2 = p1.copy(), p2.copy()
                w1, w2 = p1.copy(), p2.copy()
                fn(fe, g1, g2, workspace=ws)
                ref_fn(fe, w1, w2)
                _compare(cases, backend.name, kname, cfg, [(g1, w1), (g2, w2)], tol)

    # Underflowing column: its sum of squares falls below LAPACK's safe
    # minimum, so the reflector needs dlarfg's rescale.  Q must also stay
    # orthogonal, which checks the reference against more than itself.
    col = 2.2e-161
    for kname, fn, ref_fn, args in (
        ("GEQRT", backend.geqrt, reference.geqrt, (np.array([[0.0, 1.0], [col, 1.0]]),)),
        ("TSQRT", backend.tsqrt, reference.tsqrt,
         (np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([[col, 1.0]]))),
    ):
        got = fn(*args)
        q = got.q_dense()
        pairs = _factor_pairs(got, ref_fn(*args)) + [(q.T @ q, np.eye(len(q)))]
        _compare(cases, backend.name, kname, f"underflow {col:g} float64", pairs, 1e-12)
    return cases


def check_end_to_end(backend, reference, n: int = 48, b: int = 8,
                     elimination: str = "TS") -> ConformanceCase:
    """Full serial factorization: bitwise R for bit-exact backends."""
    from ...runtime.serial import SerialRuntime

    a = _rng(n, b).standard_normal((n, n))
    r_ref = (
        SerialRuntime(elimination=elimination, backend=reference)
        .factorize(a.copy(), tile_size=b)
        .r_dense()
    )
    r_got = (
        SerialRuntime(elimination=elimination, backend=backend)
        .factorize(a.copy(), tile_size=b)
        .r_dense()
    )
    err = max_abs_diff(r_got, r_ref)
    if backend.bit_exact:
        ok = bool(np.array_equal(r_got, r_ref))
        tol = 0.0
        note = "" if ok else "(bit_exact backend: R differs bitwise)"
    else:
        tol = 1e-12 * max(1.0, float(np.abs(r_ref).max()))
        ok = bool(err <= tol)
        note = ""
    return ConformanceCase(
        backend=backend.name,
        kernel="END_TO_END",
        config=f"n={n} b={b} {elimination} float64",
        max_err=err,
        tol=tol,
        ok=ok,
        note=note,
    )


def run_conformance(
    backends=None,
    tile_sizes=DEFAULT_TILE_SIZES,
    dtypes=DEFAULT_DTYPES,
    end_to_end: bool = True,
) -> ConformanceReport:
    """Sweep every (or the named) registered backend against reference.

    The reference backend is included in the sweep — compared against
    itself it must come out bitwise clean, which keeps the harness
    honest about its own plumbing.
    """
    from . import DEFAULT_BACKEND, available_backends, get_backend

    reference = get_backend(DEFAULT_BACKEND)
    names = list(backends) if backends is not None else list(available_backends())
    report = ConformanceReport(
        backends=[n if isinstance(n, str) else n.name for n in names]
    )
    for name in names:
        backend = get_backend(name) if isinstance(name, str) else name
        report.cases.extend(
            check_kernels(backend, reference, tile_sizes=tile_sizes, dtypes=dtypes)
        )
        if end_to_end:
            report.cases.append(check_end_to_end(backend, reference))
            report.cases.append(
                check_end_to_end(backend, reference, elimination="TT")
            )
    return report
