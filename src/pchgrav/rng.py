"""Deterministic counter-based random streams for the check suites.

Every random draw in a suite comes from a Philox stream keyed by
(seed, suite name, draw counter), the counter numbering the suite's streams
in the order it draws them, so results are independent of execution order
and parallelism.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _stable_u64(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "little")


def stream(seed: int, suite: str, draw: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, suite, draw counter)."""
    key = np.array([np.uint64(seed), np.uint64(_stable_u64(f"{suite}:{draw}"))])
    return np.random.Generator(np.random.Philox(key=key))
