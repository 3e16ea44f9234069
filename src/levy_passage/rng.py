"""Reproducible random streams.

Every (seed, level index, replication) triple owns an independent
counter-based Philox stream, so replications can run in any order, in any
batch split, serially or across workers, and produce identical draws.

The stream's key is (seed, level_index << 32 | replication): seeds are
64-bit, level indices and replications 32-bit, and anything outside those
ranges is refused rather than wrapped. A batch reads its rows' streams
through one Philox whose state is rekeyed per row (_RowStreams), which
draws the same words as a fresh `stream` for each row at a fraction of the
cost of building a Generator.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["stream"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def _check_seed(seed) -> int:
    """seed as an int, refused unless it is a 64-bit key word."""
    seed = operator.index(seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed out of range [0, 2**64): {seed}")
    return seed


def _keys(seed, level_index: int, replications) -> np.ndarray:
    """Philox keys of the streams (seed, level_index, r), one row per r."""
    seed = _check_seed(seed)
    if not 0 <= level_index <= _MASK32:
        raise ValueError("level_index out of range")
    r = np.asarray(replications).reshape(-1)
    if r.size and not (r.min() >= 0 and r.max() <= _MASK32):
        raise ValueError("replication out of range")
    keys = np.empty((r.size, 2), dtype=np.uint64)
    keys[:, 0] = seed
    keys[:, 1] = np.uint64(level_index << 32) | r.astype(np.uint64)
    return keys


def stream(seed: int, level_index: int = 0, replication: int = 0) -> np.random.Generator:
    """Generator for one replication at one level of an experiment."""
    key = _keys(seed, level_index, replication)[0]
    return np.random.Generator(np.random.Philox(key=key))


class _RowStreams:
    """The streams (seed, level_index, r) of the replications r of one
    batch, read through one Philox and its Generator, rng.

    start(i) points rng at the start of the stream of replications[i].
    save() returns the position reached, and restore(state) returns to it,
    so that rows can draw in turns. Each batch owns its object: two batches
    in flight at once never share a Philox.
    """

    def __init__(self, seed, level_index: int, replications):
        self._keys = _keys(seed, level_index, replications)
        self._bitgen = np.random.Philox(key=0)
        self.rng = np.random.Generator(self._bitgen)
        # a fresh stream: counter 0 and an empty buffer (buffer_pos 4)
        self._fresh = self._bitgen.state

    def start(self, i: int) -> None:
        self._fresh["state"]["key"] = self._keys[i]
        self._bitgen.state = self._fresh

    def save(self) -> dict:
        return self._bitgen.state

    def restore(self, state: dict) -> None:
        self._bitgen.state = state
