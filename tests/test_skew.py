"""Skew handling: kNN's A5 hot-cell salting must be row-identical to
the unsalted plan, while splitting a hot cell's distance work across
tasks."""

import numpy as np
import pyarrow as pa
import ray
from mapchete_xarray_ray.collect import arrow_block_refs


def _collect(ds) -> pa.Table:
    tabs = [t for t in (ray.get(r) for r in arrow_block_refs(ds))
            if t.num_columns > 0]
    return pa.concat_tables(tabs) if tabs else pa.table({})


def _planted(n=1200, hot=360, span=64.0, ncols=8, nrows=4):
    """30% of the points planted into cell (row 1, col 3)."""
    rng = np.random.default_rng(7)
    x = rng.uniform(0, ncols * span, n)
    y = rng.uniform(0, nrows * span, n)
    x[:hot] = rng.uniform(3 * span, 4 * span, hot)
    y[:hot] = rng.uniform(1 * span, 2 * span, hot)
    return pa.table({"id": pa.array(np.arange(n, dtype=np.int64)),
                     "x": pa.array(x), "y": pa.array(y)})


def test_halo_splits_hot_cell_queries_and_keeps_each_home_row_once():
    """Round 1 of the salted plan: the hot cell's queries spread over
    several group keys, each segment holds every candidate of the cell,
    and every point is a query exactly once, in its home cell."""
    from mapchete_xarray_ray.stages.knn import _SALT_MULT, _cell_stats, _halo

    span, ncols, nrows = 64.0, 8, 4
    pts = _planted(span=span, ncols=ncols, nrows=nrows)
    x, y = pts.column("x").to_numpy(), pts.column("y").to_numpy()
    crow, ccol = (y // span).astype(np.int64), (x // span).astype(np.int64)
    cells, counts = np.unique(crow * ncols + ccol, return_counts=True)
    grid = ray.put(_cell_stats(cells, counts, 4, span, hot_cell_limit=16))
    out = _halo(ncols, nrows, span, 0.0, 0.0, grid)(
        pts.append_column("crow", pa.array(crow)).append_column("ccol", pa.array(ccol)))
    ids = out.column("id").to_numpy()
    grp = out.column("grp").to_numpy()
    isq = out.column("is_query").to_numpy(zero_copy_only=False)
    hot = 1 * ncols + 3
    segs = np.unique(grp[grp // _SALT_MULT == hot])
    assert len(segs) > 1 and len(np.unique(grp[isq & (grp // _SALT_MULT == hot)])) > 1
    members = [set(ids[grp == g].tolist()) for g in segs]
    assert all(m == members[0] for m in members)
    assert sorted(ids[isq].tolist()) == list(range(pts.num_rows))
    assert np.array_equal(grp[isq] // _SALT_MULT, (crow * ncols + ccol)[ids[isq]])


def test_knn_salted_equals_unsalted_under_planted_hot_cell():
    """A planted hot cell (30% of points in one cell) forced through
    the A5 salting path (tiny hot_cell_limit) must yield EXACTLY the
    rows of the effectively-unsalted plan (limit above the hot count):
    round-1 segments split the cell's queries, each meeting every
    candidate, so every (query, candidate) pair still meets once."""
    from mapchete_xarray_ray.stages.knn import knn_pipeline

    pts = _planted()
    n = pts.num_rows
    kw = dict(k=4, cell_span=64.0, ncols=8, nrows=4)

    plain = _collect(knn_pipeline(ray.data.from_arrow(pts),
                                  hot_cell_limit=10 ** 9, **kw))
    salted = _collect(knn_pipeline(ray.data.from_arrow(pts),
                                   hot_cell_limit=16, **kw))
    cols = ["id", "neighbor_id", "rank", "dist2"]
    a = sorted(zip(*[plain.column(c).to_pylist() for c in cols]))
    b = sorted(zip(*[salted.column(c).to_pylist() for c in cols]))
    assert a == b and len(a) == n * 4
