"""Skew handling: the salted two-phase pipeline must be row-identical
to the straight pipeline, while splitting hot tiles across tasks."""

import numpy as np
import pyarrow as pa
import ray
from mapchete_xarray_ray.collect import arrow_block_refs

from mapchete_xarray_ray.fixtures import TIME_STEPS, make_pages
from mapchete_xarray_ray.pipelines.flagship import (
    default_spec,
    run_pipeline,
    run_pipeline_salted,
)
from mapchete_xarray_ray.sinks.zarr import ZarrTileStore
from mapchete_xarray_ray.state.lineage import read_records


def _collect(ds) -> pa.Table:
    tabs = [t for t in (ray.get(r) for r in arrow_block_refs(ds))
            if t.num_columns > 0]
    return pa.concat_tables(tabs) if tabs else pa.table({})


def test_salted_equals_straight(tmp_path):
    pages = make_pages(n=800, dup_frac=0.15)
    spec_a = default_spec(str(tmp_path / "straight.zarr"))
    spec_b = default_spec(str(tmp_path / "salted.zarr"))

    a = _collect(run_pipeline(ray.data.from_arrow(pages), spec_a))
    # hot_threshold=5: virtually every tile goes through the salted path
    b = _collect(run_pipeline_salted(ray.data.from_arrow(pages), spec_b,
                                     hot_threshold=5, n_salt=4))

    cols = ["tile_id", "n_pages", "checksum"]
    sa = sorted(zip(*[a.column(c).to_pylist() for c in cols]))
    sb = sorted(zip(*[b.column(c).to_pylist() for c in cols]))
    assert sa == sb  # identical tiles, counts AND chunk checksums

    # stored bytes identical too
    store_a, store_b = ZarrTileStore(spec_a), ZarrTileStore(spec_b)
    for (r, c) in sorted(store_a.existing_tiles()):
        np.testing.assert_array_equal(store_a.read_tile(r, c),
                                      store_b.read_tile(r, c))

    # lineage records salted partial counts
    recs = read_records(spec_b.path)
    assert any(rec.get("salted_partials", 0) > 1 for rec in recs.values())


def test_salted_equals_straight_on_time_axis(tmp_path):
    """The salted plan accepts time-axis specs: its partials key on
    (time index, pixel), so it commits exactly what the straight plan
    commits — summaries, chunk bytes, and the records' checksums and
    time_idxs. chunksize 2 < 5 steps spreads each tile over 3 time
    chunks."""
    import os

    time = {"start": "2022-06-01", "end": "2022-06-11", "chunksize": 2,
            "steps": [str(t) for t in TIME_STEPS.astype("datetime64[D]")]}
    pages = make_pages(n=800, dup_frac=0.15)
    spec_a = default_spec(str(tmp_path / "straight.zarr"), time=time)
    spec_b = default_spec(str(tmp_path / "salted.zarr"), time=time)

    a = _collect(run_pipeline(ray.data.from_arrow(pages), spec_a))
    b = _collect(run_pipeline_salted(ray.data.from_arrow(pages), spec_b,
                                     hot_threshold=5))

    cols = ["tile_id", "tile_row", "tile_col", "n_pages", "chunks_written",
            "checksum"]
    sa = sorted(zip(*[a.column(c).to_pylist() for c in cols]))
    sb = sorted(zip(*[b.column(c).to_pylist() for c in cols]))
    assert sa and sa == sb

    for band in spec_a.band_names:
        da, db = (os.path.join(s.path, band) for s in (spec_a, spec_b))
        names = sorted(f for f in os.listdir(da) if not f.startswith("."))
        assert names == sorted(f for f in os.listdir(db)
                               if not f.startswith("."))
        for f in names:
            with open(os.path.join(da, f), "rb") as fa, \
                    open(os.path.join(db, f), "rb") as fb:
                assert fa.read() == fb.read(), (band, f)

    ra, rb = read_records(spec_a.path), read_records(spec_b.path)
    assert ra.keys() == rb.keys()
    for k in ra:
        assert ra[k]["time_idxs"], k
        assert ((ra[k]["checksum"], ra[k]["time_idxs"])
                == (rb[k]["checksum"], rb[k]["time_idxs"])), k
    assert any(rec["salted_partials"] > 1 for rec in rb.values())


def test_salted_cold_path(tmp_path):
    """With a high threshold nothing is hot: single partial per tile."""
    pages = make_pages(n=300)
    spec = default_spec(str(tmp_path / "cold.zarr"))
    out = _collect(run_pipeline_salted(ray.data.from_arrow(pages), spec,
                                       hot_threshold=10**9))
    recs = read_records(spec.path)
    assert out.num_rows == len(recs)
    assert all(rec.get("salted_partials") == 1 for rec in recs.values())


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
