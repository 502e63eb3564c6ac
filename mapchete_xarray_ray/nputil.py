"""Small shared numpy kernels used across join/dedup stages."""

from __future__ import annotations

import numpy as np


def segments(*keys: np.ndarray):
    """Sort rows by ``keys`` (first key most significant, stable) and
    find the runs of equal keys. Returns ``(order, starts, ends)``: run
    ``i`` is rows ``order[starts[i]:ends[i]]``. Owns the sort/boundary-
    mask idiom and its empty-input edge case once instead of per call
    site; keys may be any sortable arrays, strings included."""
    order = (np.argsort(keys[0], kind="stable") if len(keys) == 1
             else np.lexsort(keys[::-1]))
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for k in keys:
        k = k[order]
        new[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(new)
    ends = np.empty_like(starts)
    ends[:-1], ends[-1:] = starts[1:], len(order)
    return order, starts, ends


def segment_pairs(starts: np.ndarray, lens: np.ndarray):
    """Every pair of rows inside one segment: returns global index
    arrays ``(i, j)`` with ``i < j`` for each segment ``[starts[s],
    starts[s] + lens[s])``. Segments come out in ``starts`` order (which
    must be ascending), each in ``np.triu_indices`` order. Loops over the
    DISTINCT segment lengths, not the segments: one broadcast of
    ``starts[:, None] + triu`` per length, then one stable argsort by
    segment start restores segment order."""
    parts_i, parts_j, parts_s = [], [], []
    for L in np.unique(lens[lens >= 2]):
        st = starts[lens == L][:, None]
        ia, ib = np.triu_indices(L, k=1)
        parts_i.append((st + ia).ravel())
        parts_j.append((st + ib).ravel())
        parts_s.append(np.repeat(st.ravel(), len(ia)))
    if not parts_i:
        z = np.empty(0, dtype=np.int64)
        return z, z
    o = np.argsort(np.concatenate(parts_s), kind="stable")
    return np.concatenate(parts_i)[o], np.concatenate(parts_j)[o]


def topk_per_id(ids: np.ndarray, nbs: np.ndarray, key: np.ndarray,
                k: int):
    """Merge partial top-k rows ``(id, neighbour, key)`` into each id's
    global top-k: drop duplicate (id, neighbour) rows, keeping the copy
    with the smallest key; order by (id, key, neighbour); rank within
    each id and keep rank <= k. Returns ``(sel, rank)``: ``sel`` indexes
    the input rows in that order, ``rank`` is 1-based. NaN keys sort
    last, as in ``np.lexsort``."""
    o = np.lexsort((key, nbs, ids))
    dup = np.zeros(len(o), dtype=bool)
    dup[1:] = (ids[o[1:]] == ids[o[:-1]]) & (nbs[o[1:]] == nbs[o[:-1]])
    u = o[~dup]
    # u is in (id, neighbour) order, so a stable sort by (id, key)
    # breaks key ties by neighbour
    sel = u[np.lexsort((key[u], ids[u]))]
    s = ids[sel]
    rank = np.arange(1, len(s) + 1) - np.searchsorted(s, s)  # s is sorted
    keep = rank <= k
    return sel[keep], rank[keep]


def group_reduce(keys: np.ndarray, *pairs):
    """Vectorized group-by-reduce over sortable keys: each ``pairs``
    entry is ``(ufunc, values)`` (e.g. ``(np.add, x)``,
    ``(np.maximum, x)``). Returns
    ``(uniq_keys, reduced_0, reduced_1, ...)`` with ``uniq_keys``
    ascending."""
    o, starts, _ = segments(keys)
    outs = tuple(uf.reduceat(v[o], starts) if len(o) else v[:0]
                 for uf, v in pairs)
    return (keys[o[starts]],) + outs


def group_sum(keys: np.ndarray, *vals: np.ndarray):
    """Vectorized group-by-sum over integer keys — the per-batch
    combiner kernel used before every shuffle in the join family.
    Returns ``(uniq_keys, summed_0, summed_1, ...)`` with
    ``uniq_keys`` ascending; to count group sizes, pass a ones array.
    Sum-only sugar over :func:`group_reduce`."""
    return group_reduce(keys, *((np.add, v) for v in vals))


def sorted_lookup(sorted_keys: np.ndarray,
                  probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized membership probe against a SORTED key array — the
    inner step of every searchsorted-based hash-join/semi-join in this
    repo. Returns ``(hit, idx)``: ``hit[i]`` is True iff ``probes[i]``
    occurs in ``sorted_keys`` and then ``idx[i]`` is a matching
    position (the leftmost); where ``hit`` is False, ``idx`` is 0 —
    always a VALID index, so callers can gather unconditionally and
    select with ``np.where(hit, values[idx], default)``.

    Owns the two sharp edges the inlined copies kept re-implementing:
    out-of-range searchsorted positions and the empty-key-array case.
    """
    pos = np.searchsorted(sorted_keys, probes)
    hit = pos < len(sorted_keys)
    if len(sorted_keys):
        hit[hit] = sorted_keys[pos[hit]] == probes[hit]
    idx = np.where(hit, pos, 0)
    return hit, idx
