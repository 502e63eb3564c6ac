"""Bloom-filter pre-shuffle pruning (the classic big-join byte-saver).

At 100 TB the dominant join cost is the all-to-all exchange; when one
side is a key-existence probe (semi-join, EXISTS), a Bloom filter of
the other side's keys — built in one cheap pass, broadcast once via
``ray.put`` — drops most non-matching rows BEFORE they enter the
shuffle. False positives are fine: the exact co-group downstream
removes them, so the final output is identical with or without the
filter (the driver hash pins this). False negatives are impossible.

Sizing: ``m_bits ≈ 10 x expected keys`` with ``k=4`` double-hash
probes gives ~1-2% fpr. At 10^9-key scale one filter is ~1.2 GB —
still one ``ray.put`` object read by every task, or build per key
shard and route accordingly; the partial-OR merge below is associative
either way.

Hashing is a fixed splitmix64-style mix (vectorized, no Python per
row) with double hashing ``h1 + i*h2`` — deterministic across runs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray, seed: int) -> np.ndarray:
    # wrap seed*GOLD in python ints: numpy emits a RuntimeWarning for
    # SCALAR uint64 overflow (array ops wrap silently) — same value,
    # no per-batch warning spam from worker processes
    off = np.uint64((seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
    z = (x.astype(np.uint64) + off)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _probe_positions(keys: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """(n, k) bit positions via double hashing h1 + i*h2."""
    h1 = _splitmix64(keys, 1)
    h2 = _splitmix64(keys, 2) | np.uint64(1)  # odd -> full-period step
    i = np.arange(k, dtype=np.uint64)[None, :]
    return ((h1[:, None] + i * h2[:, None]) % np.uint64(m_bits))


def bloom_build(keys: np.ndarray, m_bits: int, k: int = 4) -> np.ndarray:
    """Bit array as uint64 words; associative to OR-merge."""
    words = np.zeros((m_bits + 63) // 64, dtype=np.uint64)
    if len(keys):
        pos = _probe_positions(np.asarray(keys), m_bits, k).reshape(-1)
        np.bitwise_or.at(words, (pos >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (pos & np.uint64(63)))
    return words


def bloom_contains(words: np.ndarray, m_bits: int, keys: np.ndarray,
                   k: int = 4) -> np.ndarray:
    """Boolean membership mask (false positives possible, negatives
    not)."""
    if len(keys) == 0:
        return np.zeros(0, dtype=bool)
    pos = _probe_positions(np.asarray(keys), m_bits, k)
    bits = (words[(pos >> np.uint64(6)).astype(np.int64)]
            >> (pos & np.uint64(63))) & np.uint64(1)
    return bits.all(axis=1)


def bloom_from_dataset(ds, col: str, m_bits: int, k: int = 4) -> np.ndarray:
    """One streaming pass: per-batch partial filters OR-merged on the
    driver (constant size per batch — m_bits/8 bytes — regardless of
    rows)."""
    words = np.zeros((m_bits + 63) // 64, dtype=np.uint64)
    for b in ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        if col not in b.column_names or b.num_rows == 0:
            continue
        keys = b.column(col).to_numpy(zero_copy_only=False)
        words |= bloom_build(keys, m_bits, k)
    return words


def bloom_prune_stage(words_ref, m_bits: int, col: str, k: int = 4):
    """map_batches fn: keep only rows whose ``col`` MAY be in the
    filter — run this BEFORE the shuffle so pruned rows never enter
    the exchange."""
    import ray

    def fn(batch: pa.Table) -> pa.Table:
        words = ray.get(words_ref)
        keys = batch.column(col).to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(bloom_contains(words, m_bits, keys, k)))

    return fn
