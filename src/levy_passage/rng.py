"""Reproducible random streams.

Every (seed, level index, replication) triple owns an independent
counter-based Philox stream, so replications can run in any order, in any
batch split, serially or across workers, and produce identical draws.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]

_MASK32 = (1 << 32) - 1


def stream(seed: int, level_index: int = 0, replication: int = 0) -> np.random.Generator:
    """Generator for one replication at one level of an experiment."""
    if not 0 <= level_index <= _MASK32:
        raise ValueError("level_index out of range")
    if not 0 <= replication <= _MASK32:
        raise ValueError("replication out of range")
    packed = (level_index << 32) | replication
    key = np.array([np.uint64(seed & (1 << 64) - 1), np.uint64(packed)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
