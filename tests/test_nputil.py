import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mapchete_xarray_ray.nputil import sorted_lookup


def test_sorted_lookup_membership_and_positions():
    keys = np.array([2, 5, 5, 9], dtype=np.int64)
    probes = np.array([1, 2, 5, 9, 10], dtype=np.int64)
    hit, idx = sorted_lookup(keys, probes)
    assert hit.tolist() == [False, True, True, True, False]
    # leftmost match positions; misses give a VALID index (0)
    assert idx.tolist() == [0, 0, 1, 3, 0]
    assert (keys[idx[hit]] == probes[hit]).all()


def test_sorted_lookup_empty_keys_and_empty_probes():
    hit, idx = sorted_lookup(np.empty(0, np.int64),
                             np.array([3, 7], dtype=np.int64))
    assert hit.tolist() == [False, False]
    assert idx.tolist() == [0, 0]
    hit, idx = sorted_lookup(np.array([1], dtype=np.int64),
                             np.empty(0, np.int64))
    assert len(hit) == 0 and len(idx) == 0


def test_group_sum_multi_values_and_empty():
    from mapchete_xarray_ray.nputil import group_sum

    k = np.array([7, 2, 7, 2, 5], dtype=np.int64)
    a = np.array([1, 10, 2, 20, 5], dtype=np.int64)
    b = np.array([100, 1, 200, 2, 50], dtype=np.int64)
    uk, sa, sb = group_sum(k, a, b)
    assert uk.tolist() == [2, 5, 7]
    assert sa.tolist() == [30, 5, 3]
    assert sb.tolist() == [3, 50, 300]
    uk, sa = group_sum(np.empty(0, np.int64), np.empty(0, np.int64))
    assert len(uk) == 0 and len(sa) == 0


def test_group_reduce_mixed_ufuncs():
    from mapchete_xarray_ray.nputil import group_reduce

    k = np.array([7, 2, 7, 2, 5], dtype=np.int64)
    v = np.array([1, 10, 2, 20, 5], dtype=np.int64)
    uk, mx, tot = group_reduce(k, (np.maximum, v), (np.add, v))
    assert uk.tolist() == [2, 5, 7]
    assert mx.tolist() == [20, 5, 2]
    assert tot.tolist() == [30, 5, 3]
    uk, mx = group_reduce(np.empty(0, np.int64),
                          (np.maximum, np.empty(0, np.int64)))
    assert len(uk) == 0 and len(mx) == 0


def test_segments_multi_key_and_empty():
    from mapchete_xarray_ray.nputil import segments

    urls = np.array(["b", "a", "b", "a", "c"], dtype=object)
    ts = np.array([2, 1, 1, 1, 0])
    order, starts, ends = segments(urls, ts)
    runs = [[(urls[i], ts[i]) for i in order[s:e]] for s, e in zip(starts, ends)]
    # sorted by (url, ts); equal keys stay in input order (stable)
    assert runs == [[("a", 1), ("a", 1)], [("b", 1)], [("b", 2)], [("c", 0)]]
    assert list(order[starts[:1]]) == [1]
    order, starts, ends = segments(np.empty(0, np.int64))
    assert len(order) == len(starts) == len(ends) == 0


@given(st.lists(st.integers(0, 6), max_size=12))
@settings(max_examples=200, deadline=None)
def test_segment_pairs_equals_per_segment_triu(lens):
    from mapchete_xarray_ray.nputil import segment_pairs

    lens = np.array(lens, dtype=np.int64)
    starts = np.cumsum(lens) - lens
    want_i, want_j = [], []
    for s, L in zip(starts, lens):
        ia, ib = np.triu_indices(L, k=1)
        want_i += (s + ia).tolist()
        want_j += (s + ib).tolist()
    i, j = segment_pairs(starts, lens)
    assert i.dtype == j.dtype == np.int64
    assert i.tolist() == want_i and j.tolist() == want_j
