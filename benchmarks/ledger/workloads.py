"""The ledger's workloads: what a user calls, on which inputs, checked how.

Each workload is the call a user writes, the LAPACK call that solves the
same problem on the same array, and the check that the two agree.  The
inputs are Gaussian matrices drawn from the run's seed; the program
receives only the arrays.

``repro`` is imported inside the methods, not at module import, so the
set-up probe (see :mod:`.measure`) can time ``import repro`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

#: Relative Frobenius agreement required between the program's result
#: and LAPACK's (R up to row signs, or the least-squares solution).
RTOL = 1e-8

#: Edge of the square matrix of the set-up call (``setup_s``).
SETUP_EDGE = 128


def relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    return float(np.linalg.norm(actual - expected) / np.linalg.norm(expected))


def unsigned(r: np.ndarray) -> np.ndarray:
    """``r`` with every row scaled so its diagonal entry is non-negative.

    QR is unique only up to the signs of R's rows; two correct
    factorizations agree after this normalisation.
    """
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return r * signs[:, None]


@dataclass(frozen=True)
class Factorize:
    """Base workload: factor an ``m x n`` matrix at tile edge ``tile``."""

    name: str
    m: int
    n: int
    tile: int
    #: LAPACK calls timed after each program call: 50-150 per run, and
    #: at most ~15% of the loop, so the program keeps most samples.
    lapack_reps: int

    def grid(self) -> tuple[int, int]:
        return -(-self.m // self.tile), -(-self.n // self.tile)

    def inputs(self, seed: int, shape: tuple[int, int] | None = None) -> dict:
        rng = np.random.default_rng(seed)
        return {"A": rng.standard_normal(shape or (self.m, self.n))}

    def prepare(self):
        """The plan a user builds once before calling (none by default)."""
        return None

    def workers(self, plan) -> int:
        return 1

    def call(self, plan, inputs):
        raise NotImplementedError

    def lapack(self, inputs):
        return np.linalg.qr(inputs["A"], mode="r")

    def error(self, out, reference) -> float:
        """Relative distance of the program's result from LAPACK's."""
        return relative_error(unsigned(out.r_dense()[: self.n]), unsigned(reference))

    def factorization(self, out, inputs):
        """The tiled factorization behind ``out`` (for the backward error)."""
        return out

    def serial_reference(self, inputs):
        """The serial runtime on the same matrix and tile edge."""
        from repro import SerialRuntime

        return SerialRuntime().factorize(inputs["A"], self.tile)

    def resized(self, m: int, n: int, tile: int) -> "Factorize":
        return replace(self, m=m, n=n, tile=tile)


class FineSerial(Factorize):
    def call(self, plan, inputs):
        from repro import tiled_qr

        # The quickstart call: the default tile edge, which ``tile`` mirrors.
        return tiled_qr(inputs["A"])


class CoarseThreaded(Factorize):
    WORKERS = 2

    def workers(self, plan) -> int:
        return self.WORKERS

    def call(self, plan, inputs):
        from repro import ThreadedRuntime

        return ThreadedRuntime(num_workers=self.WORKERS).factorize(inputs["A"], self.tile)


class Multiprocess(Factorize):
    def prepare(self):
        from repro import Optimizer, paper_testbed

        return Optimizer(paper_testbed()).plan(
            matrix_size=self.m, tile_size=self.tile, num_devices=2
        )

    def workers(self, plan) -> int:
        return len(plan.participants)

    def call(self, plan, inputs):
        from repro.runtime.multiprocess import MultiprocessRuntime

        return MultiprocessRuntime(plan).factorize(inputs["A"], self.tile)


@dataclass(frozen=True)
class TallLstsq(Factorize):
    rhs: int = 4

    def inputs(self, seed: int, shape: tuple[int, int] | None = None) -> dict:
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(shape or (self.m, self.n))
        return {"A": a, "B": rng.standard_normal((a.shape[0], self.rhs))}

    def call(self, plan, inputs):
        from repro.linalg import lstsq

        return lstsq(inputs["A"], inputs["B"], tile_size=self.tile)

    def lapack(self, inputs):
        return np.linalg.lstsq(inputs["A"], inputs["B"], rcond=None)[0]

    def error(self, out, reference) -> float:
        return relative_error(out[0], reference)

    def factorization(self, out, inputs):
        # lstsq returns only x; this is the factorization it runs.
        from repro import tiled_qr

        return tiled_qr(inputs["A"], tile_size=self.tile)


WORKLOADS: dict[str, Factorize] = {
    w.name: w
    for w in (
        FineSerial("fine-serial", 512, 512, 16, lapack_reps=5),
        CoarseThreaded("coarse-threaded", 1024, 1024, 128, lapack_reps=1),
        TallLstsq("tall-lstsq", 8192, 256, 64, lapack_reps=2),
        Multiprocess("multiprocess", 1024, 1024, 128, lapack_reps=1),
    )
}

#: Small shapes with the same tile grids' character, for the smoke test.
TINY: dict[str, tuple[int, int, int]] = {
    "fine-serial": (64, 64, 16),
    "coarse-threaded": (256, 256, 64),
    "tall-lstsq": (512, 64, 16),
    "multiprocess": (256, 256, 64),
}


def get(name: str, tiny: bool = False) -> Factorize:
    wl = WORKLOADS[name]
    return wl.resized(*TINY[name]) if tiny else wl


def backward_error(fact, a: np.ndarray) -> float:
    """``||A - QR||_F / (||A||_F * n * eps)`` of a tiled factorization."""
    qr = fact.apply_q(fact.r_dense())
    eps = np.finfo(np.float64).eps
    return float(np.linalg.norm(a - qr) / (np.linalg.norm(a) * a.shape[1] * eps))
