"""Exact-equality tests for the partition-based kNN/ANN top-k kernel, the
per-id partial top-k merge and the loop-free PPJoin pair expansion.

Each kernel is compared against the straightforward implementation it
replaced, kept here as the oracle: the full per-row lexsort for
``rowwise_topk``, the old kNN merge body for ``topk_per_id`` and the
per-gram ``triu_indices`` loop for ``ppjoin_pairs_bucketed``. Equality
is on every output array, in order and dtype — not only on value keys —
so tie order and NaN handling are pinned too.
"""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapchete_xarray_ray.nputil import topk_per_id
from mapchete_xarray_ray.stages.ann import rowwise_topk
from mapchete_xarray_ray.stages.dedup import ppjoin_pairs_bucketed
from mapchete_xarray_ray.stages.knn import _merge_topk


def _topk_oracle(key, q_ids, c_ids, k):
    """Full two-key lexsort along every row, then the first
    ``min(k, C - n_self)`` entries of each row."""
    Q, C = key.shape
    z = np.empty(0, dtype=np.int64)
    if Q == 0 or C == 0:
        return z, z, z
    invalid = q_ids[:, None] == c_ids[None, :]
    s = np.where(invalid, np.inf, key)
    order = np.lexsort((np.broadcast_to(c_ids, s.shape), s), axis=-1)
    t = np.minimum(k, C - invalid.sum(axis=1))
    kept = np.arange(C)[None, :] < t[:, None]
    q_sel = np.repeat(np.arange(Q), t)
    c_sel = order[kept]
    rank = np.broadcast_to(np.arange(1, C + 1), (Q, C))[kept]
    return q_sel, c_sel, rank.astype(np.int64)


def _assert_same(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def _case(rng, Q, C, pool, n_ids, nan_frac=0.0):
    key = rng.choice(pool, size=(Q, C)).astype(np.float64)
    if nan_frac:
        key[rng.random((Q, C)) < nan_frac] = np.nan
    q_ids = rng.integers(0, n_ids, size=Q)
    c_ids = rng.integers(0, n_ids, size=C)
    return key, q_ids, c_ids


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_rowwise_topk_equals_full_sort(data):
    """Tie-heavy integer keys (negative ones too, as ANN's ``-sims``),
    duplicate candidate ids, NaN keys, and k below, at and above C."""
    Q = data.draw(st.integers(0, 9))
    C = data.draw(st.integers(0, 14))
    k = data.draw(st.integers(1, 16))
    nan_frac = data.draw(st.sampled_from([0.0, 0.3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    key, q_ids, c_ids = _case(rng, Q, C, [-2, -1, 0, 1, 2], 6, nan_frac)
    _assert_same(rowwise_topk(key, q_ids, c_ids, k),
                 _topk_oracle(key, q_ids, c_ids, k))


@pytest.mark.parametrize("Q,C", [(0, 5), (5, 0), (0, 0)])
def test_rowwise_topk_empty_sides(Q, C):
    key = np.zeros((Q, C))
    got = rowwise_topk(key, np.arange(Q), np.arange(C), 3)
    _assert_same(got, _topk_oracle(key, np.arange(Q), np.arange(C), 3))
    assert all(len(a) == 0 and a.dtype == np.int64 for a in got)


def test_rowwise_topk_rows_with_only_self_candidates():
    """A row whose every candidate is the query itself keeps nothing;
    the neighbouring rows are unaffected."""
    key = np.array([[1.0, 0.0, 2.0], [3.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    q_ids = np.array([7, 1, 9])
    c_ids = np.array([7, 7, 7])
    for k in (1, 2, 3, 5):
        got = rowwise_topk(key, q_ids, c_ids, k)
        _assert_same(got, _topk_oracle(key, q_ids, c_ids, k))
        assert 0 not in got[0].tolist()


@pytest.mark.parametrize("k", [1, 3, 40, 200])
def test_rowwise_topk_large_random(k):
    """A cell-sized matrix: continuous keys, ANN-style negated
    similarities with a few NaN, and k up to above C."""
    rng = np.random.default_rng(k)
    key = rng.random((300, 120))
    q_ids = rng.integers(0, 400, 300)
    c_ids = rng.integers(0, 400, 120)
    _assert_same(rowwise_topk(key, q_ids, c_ids, k),
                 _topk_oracle(key, q_ids, c_ids, k))
    neg = -np.round(key, 2)
    neg[rng.random(neg.shape) < 0.05] = np.nan
    _assert_same(rowwise_topk(neg, q_ids, c_ids, k),
                 _topk_oracle(neg, q_ids, c_ids, k))


# --- per-id partial top-k merge --------------------------------------------


def _merge_oracle(ids, nbs, d2s, k, guaranteed_d2=np.inf, need=0):
    """The kNN merge as it was: sort by (id, d2, neighbor), drop later
    copies of an (id, neighbor) pair by a second sort, rank by run
    arithmetic, then fold the per-id resolved flag."""
    order = np.lexsort((nbs, d2s, ids))
    ids, nbs, d2s = ids[order], nbs[order], d2s[order]
    first = np.ones(len(ids), dtype=bool)
    if len(ids) > 1:
        o2 = np.lexsort((d2s, nbs, ids))
        dup = np.zeros(len(ids), dtype=bool)
        dup[1:] = (ids[o2][1:] == ids[o2][:-1]) & (nbs[o2][1:] == nbs[o2][:-1])
        keep_mask = np.ones(len(ids), dtype=bool)
        keep_mask[o2[dup]] = False
        first = keep_mask
    ids, nbs, d2s = ids[first], nbs[first], d2s[first]
    new_run = np.ones(len(ids), dtype=bool)
    new_run[1:] = ids[1:] != ids[:-1]
    run_starts = np.flatnonzero(new_run)
    rank = np.arange(len(ids)) - np.repeat(run_starts, np.diff(
        np.append(run_starts, len(ids)))) + 1
    keep = rank <= k
    ids, nbs, d2s, rank = ids[keep], nbs[keep], d2s[keep], rank[keep]
    new_run = np.ones(len(ids), dtype=bool)
    new_run[1:] = ids[1:] != ids[:-1]
    starts = np.flatnonzero(new_run)
    counts = np.diff(np.append(starts, len(ids)))
    last_d2 = d2s[starts + counts - 1]
    resolved = np.repeat((counts >= need) & (last_d2 < guaranteed_d2), counts)
    return ids, nbs, d2s, rank, resolved


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_topk_per_id_equals_old_knn_merge(data):
    """Duplicate (id, neighbor) rows with equal and unequal keys, tie-
    heavy keys, NaN keys, and k below, at and above the run length."""
    n = data.draw(st.integers(0, 40))
    k = data.draw(st.integers(1, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    ids = rng.integers(0, 5, n)
    nbs = rng.integers(0, 7, n)
    key = rng.choice([0.0, 0.5, 1.0, 2.0], n)
    if data.draw(st.booleans()):
        key[rng.random(n) < 0.2] = np.nan
    sel, rank = topk_per_id(ids, nbs, key, k)
    for g, w in zip((ids[sel], nbs[sel], key[sel], rank),
                    _merge_oracle(ids, nbs, key, k)):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w, equal_nan=w.dtype.kind == "f")

    # the kNN merge reads a self row (id == neighbor) as a marker of an
    # unresolved query without candidates: it is no neighbour, and an id
    # with nothing else keeps one unresolved marker row after the others
    guaranteed = data.draw(st.sampled_from([0.75, 1.5, np.inf]))
    need = data.draw(st.integers(0, 4))
    got = _merge_topk(k, guaranteed, need)(pa.table({
        "id": pa.array(ids, pa.int64()),
        "neighbor_id": pa.array(nbs, pa.int64()),
        "dist2": pa.array(key, pa.float64())}))
    real = ids != nbs
    lone = np.setdiff1d(ids[~real], ids[real])
    want = _merge_oracle(ids[real], nbs[real], key[real], k, guaranteed, need)
    markers = (lone, lone, np.full(len(lone), np.inf),
               np.zeros(len(lone), np.int64), np.zeros(len(lone), bool))
    for name, w, m in zip(["id", "neighbor_id", "dist2", "rank", "resolved"],
                          want, markers):
        w = np.concatenate([w, m])
        g = got.column(name).to_numpy(zero_copy_only=False)
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w, equal_nan=w.dtype.kind == "f"), name


# --- PPJoin pair expansion ------------------------------------------------


def _ppjoin_oracle(group: pa.Table, tau: float = 0.5) -> pa.Table:
    """One ``triu_indices`` expansion and filter pass per gram."""
    k = group.column("gram_hash").to_numpy(zero_copy_only=False)
    ids = group.column("doc_id").to_numpy(zero_copy_only=False)
    n = group.column("n").to_numpy(zero_copy_only=False)
    r = group.column("rank").to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, k))
    k, ids, n, r = k[order], ids[order], n[order], r[order]
    new = np.ones(len(k), dtype=bool)
    new[1:] = k[1:] != k[:-1]
    starts = np.flatnonzero(new)
    lens = np.diff(np.append(starts, len(k)))
    out_a, out_b = [], []
    for s, L in zip(starts[lens >= 2], lens[lens >= 2]):
        ia, ib = np.triu_indices(L, k=1)
        A, B = ids[s:s + L][ia], ids[s:s + L][ib]
        na, nb = n[s:s + L][ia], n[s:s + L][ib]
        ra, rb = r[s:s + L][ia], r[s:s + L][ib]
        alpha = np.ceil((tau / (1.0 + tau)) * (na + nb)).astype(np.int64)
        keep = ((np.minimum(na, nb) >= tau * np.maximum(na, nb))
                & (np.minimum(na - ra, nb - rb) >= alpha))
        out_a.append(np.minimum(A[keep], B[keep]))
        out_b.append(np.maximum(A[keep], B[keep]))
    cat = (lambda p: np.concatenate(p) if p else np.empty(0, np.int64))
    return pa.table({"id_a": pa.array(cat(out_a), pa.int64()),
                     "id_b": pa.array(cat(out_b), pa.int64())})


def _prefix_table(rng, n_rows, n_grams, n_docs):
    """A random prefix table: few grams give long posting lists, many
    give segments of length 1 and 2."""
    n = rng.integers(1, 12, n_docs)
    doc = rng.integers(0, n_docs, n_rows)
    return pa.table({
        "doc_id": pa.array(doc, pa.int64()),
        "gram_hash": pa.array(rng.integers(-n_grams, n_grams, n_rows),
                              pa.int64()),
        "n": pa.array(n[doc], pa.int64()),
        "rank": pa.array(rng.integers(0, n[doc]), pa.int64()),
    })


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_ppjoin_pairs_equal_per_gram_loop(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    tbl = _prefix_table(rng, data.draw(st.integers(1, 120)),
                        data.draw(st.sampled_from([1, 3, 40, 500])),
                        data.draw(st.integers(2, 60)))
    tau = data.draw(st.sampled_from([0.3, 0.5, 0.8]))
    got = ppjoin_pairs_bucketed(tbl, tau=tau)
    assert got.equals(_ppjoin_oracle(tbl, tau=tau))


def test_ppjoin_pairs_lengths_one_two_and_many():
    """Singleton grams emit nothing, a 2-posting gram at most one pair,
    and a long posting list its pairs in segment order."""
    rng = np.random.default_rng(5)
    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5, 6, 7, 8, 9], pa.int64()),
        "gram_hash": pa.array([10, 20, 20, 30, 30, 30, 30, 30, 40],
                              pa.int64()),
        "n": pa.array(rng.integers(4, 6, 9), pa.int64()),
        "rank": pa.array(np.zeros(9, dtype=np.int64), pa.int64()),
    })
    got = ppjoin_pairs_bucketed(tbl, tau=0.5)
    assert got.equals(_ppjoin_oracle(tbl, tau=0.5))
    assert got.num_rows == 1 + 10
