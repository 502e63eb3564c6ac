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


def test_knn_salted_equals_unsalted_under_planted_hot_cell():
    """A planted hot cell (30% of points in one cell) forced through
    the A5 salting path (tiny hot_cell_limit) must yield EXACTLY the
    rows of the effectively-unsalted plan (limit above the hot count):
    segments partition candidates disjointly, the per-id merge sees
    every pair once."""
    from mapchete_xarray_ray.stages.knn import knn_pipeline

    rng = np.random.default_rng(7)
    n, hot = 1200, 360  # 30% planted into one cell
    span, ncols, nrows = 64.0, 8, 4
    x = rng.uniform(0, ncols * span, n)
    y = rng.uniform(0, nrows * span, n)
    x[:hot] = rng.uniform(3 * span, 4 * span, hot)  # cell (1, 3)
    y[:hot] = rng.uniform(1 * span, 2 * span, hot)
    pts = pa.table({"id": pa.array(np.arange(n, dtype=np.int64)),
                    "x": pa.array(x), "y": pa.array(y)})
    kw = dict(k=4, cell_span=span, ncols=ncols, nrows=nrows)

    plain = _collect(knn_pipeline(ray.data.from_arrow(pts),
                                  hot_cell_limit=10 ** 9, **kw))
    salted = _collect(knn_pipeline(ray.data.from_arrow(pts),
                                   hot_cell_limit=16, **kw))
    cols = ["id", "neighbor_id", "rank", "dist2"]
    a = sorted(zip(*[plain.column(c).to_pylist() for c in cols]))
    b = sorted(zip(*[salted.column(c).to_pylist() for c in cols]))
    assert a == b and len(a) == n * 4
