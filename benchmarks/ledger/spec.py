"""Paths of the ledger and the metric declarations in ``BENCHMARK.json``."""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_OUT = HERE / "out"


def load() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)
