"""Exact kNN (``stages/knn.py``) against a numpy brute force on the
layouts that stress its one-exchange round 1 — clusters, points on
cell edges and corners, duplicate coordinates, empty neighbour cells,
one occupied cell, ``k >= n`` and points clipped in from outside the
grid — and the shape of that round: about two rows per point, and no
per-id merge when every query resolves."""

import numpy as np
import pyarrow as pa
import pytest
import ray
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mapchete_xarray_ray.stages.knn as K
from mapchete_xarray_ray.collect import collect_table


def _brute(ids, x, y, k):
    """Sorted (id, neighbor_id, rank, dist2) rows: per point, the k
    nearest other ids by (dist2, neighbor id), with the kernel's float64
    distance expression."""
    rows = []
    for i in range(len(ids)):
        other = ids != ids[i]
        nb = ids[other]
        d2 = (x[i] - x[other]) ** 2 + (y[i] - y[other]) ** 2
        o = np.lexsort((nb, d2))[:k]
        rows += zip([int(ids[i])] * len(o), nb[o].tolist(),
                    range(1, len(o) + 1), d2[o].tolist())
    return sorted(rows)


def _knn(ids, x, y, k, **grid):
    tbl = pa.table({"id": pa.array(ids, pa.int64()),
                    "x": pa.array(x), "y": pa.array(y)})
    # several blocks, so the driver-side cell-count fold sees partials
    cut = sorted({len(ids) // 3, 2 * len(ids) // 3} - {0, len(ids)})
    blocks = [tbl.slice(a, b - a) for a, b in zip([0] + cut, cut + [len(ids)])]
    got = collect_table(K.knn_pipeline(ray.data.from_arrow(blocks), k=k, **grid))
    if "id" not in got.column_names:
        return []
    return sorted(zip(*(got.column(c).to_pylist()
                        for c in ("id", "neighbor_id", "rank", "dist2"))))


def _layout(case, n, ncols, nrows, span, rng):
    """(x, y) relative to the grid origin."""
    w, h = ncols * span, nrows * span
    if case == "clustered":
        c = rng.uniform((0, 0), (w, h), size=(rng.integers(1, 4), 2))
        p = c[rng.integers(0, len(c), n)] + rng.normal(0, 0.05 * span, (n, 2))
        return np.clip(p[:, 0], 0, w), np.clip(p[:, 1], 0, h)
    if case == "edges":  # cell edges and corners, the far grid edge included
        x = rng.integers(0, ncols + 1, n) * span
        y = rng.integers(0, nrows + 1, n) * span
        mode = rng.integers(0, 3, n)  # 0: corner, 1: vertical edge, 2: horizontal
        return (np.where(mode == 2, rng.uniform(0, w, n), x),
                np.where(mode == 1, rng.uniform(0, h, n), y))
    if case == "duplicates":
        pool = rng.uniform((0, 0), (w, h), size=(rng.integers(1, 6), 2))
        p = pool[rng.integers(0, len(pool), n)]
        return p[:, 0], p[:, 1]
    if case == "empty_neighbours":  # only cells with even row and column
        r = 2 * rng.integers(0, (nrows + 1) // 2, n)
        c = 2 * rng.integers(0, (ncols + 1) // 2, n)
        return (c + rng.random(n)) * span, (r + rng.random(n)) * span
    if case == "one_cell":
        r, c = rng.integers(0, nrows), rng.integers(0, ncols)
        return (c + rng.random(n)) * span, (r + rng.random(n)) * span
    if case == "outside":  # clipped into the edge cells
        return rng.uniform(-2 * span, w + 2 * span, n), rng.uniform(-2 * span, h + 2 * span, n)
    return rng.uniform(0, w, n), rng.uniform(0, h, n)  # uniform, k >= n


CASES = ["clustered", "edges", "duplicates", "empty_neighbours", "one_cell",
         "k_ge_n", "outside"]


@pytest.mark.parametrize("case", CASES)
@given(data=st.data())
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_knn_matches_brute_force(case, data):
    """Row-exact vs brute force, over random grids, origins, unique
    (also negative) ids and hot-cell limits that split cells or not."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(1, 60))
    k = n + data.draw(st.integers(0, 2)) if case == "k_ge_n" else data.draw(st.integers(1, 6))
    ncols, nrows = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    span = data.draw(st.sampled_from([1.0, 3.5]))
    ox, oy = data.draw(st.sampled_from([(0.0, 0.0), (-7.25, 3.0)]))
    x, y = _layout(case, n, ncols, nrows, span, rng)
    ids = rng.choice(np.arange(-10 * n, 10 * n), size=n, replace=False)
    grid = dict(cell_span=span, ncols=ncols, nrows=nrows, origin_x=ox,
                origin_y=oy, hot_cell_limit=data.draw(st.sampled_from([4, 16_384])))
    assert _knn(ids, x + ox, y + oy, k, **grid) == _brute(ids, x + ox, y + oy, k)


def test_knn_isolated_point_keeps_its_neighbours():
    """A point alone in its home cell with no halo copy and no
    candidate within the loop's first shell still gets its k rows."""
    rng = np.random.default_rng(42)
    x, y = rng.uniform(5, 16, 120), rng.uniform(5, 16, 120)
    x[0] = y[0] = 0.2
    ids = np.arange(120)
    got = _knn(ids, x, y, 8, cell_span=1.0, ncols=16, nrows=16)
    assert got == _brute(ids, x, y, 8)


def _uniform(n, ncols, nrows, span, seed):
    rng = np.random.default_rng(seed)
    return np.arange(n), rng.uniform(0, ncols * span, n), rng.uniform(0, nrows * span, n)


def test_round1_resolves_dense_points_without_a_merge(monkeypatch):
    """On dense uniform points every query resolves in round 1, whose
    rows are final: the per-id merge — a second exchange — never runs."""
    calls = []
    orig = K._merge_topk
    monkeypatch.setattr(K, "_merge_topk",
                        lambda *a: (calls.append(a), orig(*a))[1])
    ids, x, y = _uniform(3000, 4, 4, 1.0, 3)
    got = _knn(ids, x, y, 3, cell_span=1.0, ncols=4, nrows=4)
    assert not calls
    assert got == _brute(ids, x, y, 3)


def test_round1_sends_at_most_two_rows_per_point():
    """The spatial-join benchmark's shape — 12,000 uniform points on an
    8x8 grid, k=3 — enters the round-1 exchange as home rows (one query
    per point) plus halo copies, at most 2 rows per point in all (the
    3x3 query copies it replaces made about 8.6)."""
    n, span = 12_000, 5.625
    ids, x, y = _uniform(n, 8, 8, span, 1)
    crow, ccol = (y // span).astype(np.int64), (x // span).astype(np.int64)
    cells, counts = np.unique(crow * 8 + ccol, return_counts=True)
    grid = ray.put(K._cell_stats(cells, counts, 3, span, 16_384))
    rows = K._halo(8, 8, span, 0.0, 0.0, grid)(pa.table({
        "id": pa.array(ids), "x": pa.array(x), "y": pa.array(y),
        "crow": pa.array(crow), "ccol": pa.array(ccol)}))
    q = rows.column("is_query").to_numpy(zero_copy_only=False)
    assert sorted(rows.column("id").to_numpy()[q]) == list(ids)
    assert n < rows.num_rows <= 2 * n, rows.num_rows / n
