"""Spatial joins over pages vs the sequential oracle (FIXTURES.md F5):
general polygons (convex, concave, shared edges) and float-space kNN."""

import numpy as np
import pyarrow as pa
import ray
from mapchete_xarray_ray.collect import arrow_block_refs

from mapchete_xarray_ray.fixtures import (
    DEFAULT_BOUNDS,
    DEFAULT_ZOOM,
    make_pages,
    make_regions,
)
from mapchete_xarray_ray.functions.geocode import stable_hash64
from mapchete_xarray_ray.oracle import oracle_knn, oracle_pip_join, point_in_ring
from mapchete_xarray_ray.stages.assign import assign_pages_fn
from mapchete_xarray_ray.stages.join import PIPJoiner
from mapchete_xarray_ray.stages.knn import knn_pipeline


def _collect(ds) -> pa.Table:
    tabs = [ray.get(r) for r in arrow_block_refs(ds)]
    tabs = [t for t in tabs if t.num_columns > 0]
    return pa.concat_tables(tabs)


def test_pip_join_matches_oracle():
    pages = make_pages(n=800)
    regions = make_regions()
    ds = (
        ray.data.from_arrow(pages)
        .map_batches(assign_pages_fn(DEFAULT_BOUNDS, DEFAULT_ZOOM),
                     batch_format="pyarrow")
        .map_batches(PIPJoiner,
                     fn_constructor_kwargs=dict(regions=regions),
                     batch_format="pyarrow", concurrency=2)
        .select_columns(["url", "region_id"])
    )
    got = _collect(ds).to_pandas().drop_duplicates().sort_values(
        ["url", "region_id"]).reset_index(drop=True)
    want = oracle_pip_join(pages, regions, DEFAULT_BOUNDS, DEFAULT_ZOOM
                           ).to_pandas().drop_duplicates().sort_values(
        ["url", "region_id"]).reset_index(drop=True)
    assert len(want) > 0
    assert got.equals(want)


def test_pip_boundary_rule_edge_and_vertex():
    regions = make_regions()
    rings = regions.column("ring_xy").to_pylist()
    # vertex of region 0
    vx, vy = rings[0][0]
    assert point_in_ring(vx, vy, rings[0])
    # midpoint of the shared edge of regions 0 and 1 -> inside BOTH
    (x1, y1), (x2, y2) = rings[0][1], rings[0][2]
    mx, my = (x1 + x2) / 2, (y1 + y2) / 2
    assert point_in_ring(mx, my, rings[0])
    assert point_in_ring(mx, my, rings[1])
    # joiner assigns the lowest region_id on the shared edge
    j = PIPJoiner(regions, x_col="x", y_col="y", keep_unmatched=True)
    out = j(pa.table({"x": pa.array([mx]), "y": pa.array([my])}))
    assert out.column("region_id").to_pylist() == [0]


def test_knn_pages_matches_oracle():
    pages = make_pages(n=250, dup_frac=0.1)
    # unique urls with stable int ids
    urls = pages.column("url").to_pylist()
    uniq = sorted(set(urls))
    ids = stable_hash64(np.array(uniq, dtype=object)).astype(np.int64)
    assert len(set(ids.tolist())) == len(uniq), "hash collision in fixture"
    id2url = dict(zip(ids.tolist(), uniq))
    from mapchete_xarray_ray.functions.geocode import geocode_url

    lon, lat = geocode_url(np.array(uniq, dtype=object), DEFAULT_BOUNDS, DEFAULT_ZOOM)
    # cell grid: zoom-5 tiles over the snapped region (8x8 cells);
    # the pipeline grid's y grows down, so feed y = -lat
    ts = 5.625
    pts2 = ray.data.from_arrow(pa.table({
        "id": pa.array(ids, pa.int64()),
        "x": pa.array(lon),
        "y": pa.array(-lat),
    }))
    got = _collect(knn_pipeline(
        pts2, k=3, cell_span=ts, ncols=8, nrows=8,
        origin_x=DEFAULT_BOUNDS.left, origin_y=-DEFAULT_BOUNDS.top,
    ))
    want = oracle_knn(pages, DEFAULT_BOUNDS, DEFAULT_ZOOM, k=3)
    # compare (url, neighbor_url, rank) sets and dist2 values
    got_rows = sorted(
        (id2url[i], id2url[n], r, round(d, 12))
        for i, n, r, d in zip(got.column("id").to_pylist(),
                              got.column("neighbor_id").to_pylist(),
                              got.column("rank").to_pylist(),
                              got.column("dist2").to_pylist())
    )
    want_rows = sorted(
        (u, nu, r, round(d, 12))
        for u, nu, r, d in zip(want.column("url").to_pylist(),
                               want.column("neighbor_url").to_pylist(),
                               want.column("rank").to_pylist(),
                               want.column("dist2").to_pylist())
    )
    assert len(got_rows) == len(want_rows)
    assert got_rows == want_rows


def test_knn_semi_join_path_matches_broadcast_path(monkeypatch):
    """broadcast_limit=0 forces every refinement round through the
    bucketed hash co-group semi-join (_semi_join_ids); the result must
    be row-identical to the broadcast fast path."""
    import mapchete_xarray_ray.stages.knn as K

    calls = []
    orig = K._semi_join_ids
    monkeypatch.setattr(
        K, "_semi_join_ids",
        lambda *a, **kw: (calls.append(1), orig(*a, **kw))[1])
    rng = np.random.default_rng(42)
    n = 120
    # sparse uniform layout over a fine 16x16 grid: most queries can't
    # certify k=8 within radius 1, so the loop refines several rounds
    pts = pa.table({
        "id": pa.array(np.arange(n, dtype=np.int64)),
        "x": pa.array(rng.uniform(0, 16, n)),
        "y": pa.array(rng.uniform(0, 16, n)),
    })
    kw = dict(k=8, cell_span=1.0, ncols=16, nrows=16)
    fast = _collect(knn_pipeline(ray.data.from_arrow(pts), **kw))
    assert not calls  # default limit: broadcast path only
    semi = _collect(knn_pipeline(ray.data.from_arrow(pts),
                                 broadcast_limit=0, **kw))
    assert calls  # every refinement round went through the co-group

    def rows(t):
        return sorted(zip(t.column("id").to_pylist(),
                          t.column("neighbor_id").to_pylist(),
                          t.column("rank").to_pylist()))

    assert rows(fast) and rows(fast) == rows(semi)


def test_knn_replicate_clips_columns_at_the_grid_edge():
    """The cell grid is a planar box: a point in the first or last
    column is copied only to the columns next to it, never wrapped to
    the far column, whose candidates cannot be its neighbours."""
    from mapchete_xarray_ray.stages.knn import _SALT_MULT, _replicate

    ncols, nrows = 8, 4
    crow = np.array([0, 1, 2, 3, 1, 2], dtype=np.int64)
    ccol = np.array([0, 0, ncols - 1, ncols - 1, 3, 4], dtype=np.int64)
    batch = pa.table({"id": pa.array(np.arange(6, dtype=np.int64)),
                      "x": pa.array(ccol + 0.5), "y": pa.array(crow + 0.5),
                      "crow": pa.array(crow), "ccol": pa.array(ccol)})
    out = _replicate(ncols, nrows, 0, 1, as_query=True)(batch)
    ids = out.column("id").to_numpy()
    cell = out.column("grp").to_numpy() // _SALT_MULT
    assert np.all(np.abs(cell % ncols - ccol[ids]) <= 1)
    assert np.all(np.abs(cell // ncols - crow[ids]) <= 1)
    # home cell plus every in-grid neighbour, each exactly once
    want = sum((min(r + 1, nrows - 1) - max(r - 1, 0) + 1)
               * (min(c + 1, ncols - 1) - max(c - 1, 0) + 1)
               for r, c in zip(crow, ccol))
    assert out.num_rows == want
    assert len(set(zip(ids.tolist(), cell.tolist()))) == want


def test_customer_order_profile_left_join(sf_dir):
    """LEFT OUTER join + aggregate vs a sequential computation: every
    customer appears exactly once; order-less customers carry zeros."""
    import pyarrow.parquet as pq

    from mapchete_xarray_ray.pipelines.queries import REGISTRY

    got = REGISTRY["customer_order_profile"][0](sf_dir)
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    orders = pq.read_table(f"{sf_dir}/orders.parquet",
                           columns=["o_custkey", "o_totalprice"])
    want_n, want_t = {}, {}
    for i in range(orders.num_rows):
        k = orders.column("o_custkey")[i].as_py()
        want_n[k] = want_n.get(k, 0) + 1
        want_t[k] = want_t.get(k, 0) + int(
            np.floor(orders.column("o_totalprice")[i].as_py() * 100))
    rows = {
        got.column("c_custkey")[i].as_py():
        (got.column("n_orders")[i].as_py(),
         got.column("total_cents")[i].as_py())
        for i in range(got.num_rows)
    }
    assert got.num_rows == cust.num_rows  # every customer exactly once
    for i in range(cust.num_rows):
        k = cust.column("c_custkey")[i].as_py()
        assert rows[k] == (want_n.get(k, 0), want_t.get(k, 0)), k
    assert any(v == (0, 0) for v in rows.values()) or len(want_n) == len(rows)


def test_zonal_stats_counts_overlaps_in_every_region():
    """Zonal semantics vs join semantics: a point inside two
    overlapping regions contributes to BOTH zones (PIPJoiner would
    assign only the lowest id); per-zone sums fold exactly across
    batches; empty zones emit nothing."""
    from mapchete_xarray_ray.stages.join import ZonalStats

    regions = [
        (0, [[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]]),
        (1, [[5, 5], [15, 5], [15, 15], [5, 15], [5, 5]]),   # overlaps 0
        (2, [[100, 100], [110, 100], [110, 110], [100, 110], [100, 100]]),
    ]
    z = ZonalStats(regions, x_col="x", y_col="y", value_cols=("w",))
    batch = pa.table({
        "x": pa.array([1.0, 7.0, 12.0, 50.0]),
        "y": pa.array([1.0, 7.0, 12.0, 50.0]),
        "w": pa.array([10, 20, 40, 80]),
    })
    part = z(batch)
    got = {part.column("region_id")[i].as_py():
           (part.column("n_pts")[i].as_py(),
            part.column("sum_w")[i].as_py())
           for i in range(part.num_rows)}
    # (1,1)+(7,7) in region 0; (7,7)+(12,12) in region 1 (overlap point
    # (7,7) counted twice); region 2 empty -> absent; (50,50) nowhere
    assert got == {0: (2, 30), 1: (2, 60)}
    # partials fold: two half-batches sum to the whole
    p1, p2 = z(batch.slice(0, 2)), z(batch.slice(2))
    folded = {}
    for p in (p1, p2):
        for i in range(p.num_rows):
            rid = p.column("region_id")[i].as_py()
            n, s = folded.get(rid, (0, 0))
            folded[rid] = (n + p.column("n_pts")[i].as_py(),
                           s + p.column("sum_w")[i].as_py())
    assert folded == got
    # zero-column block (empty upstream partition) -> typed empty table
    empty = z(pa.table({}))
    assert empty.num_rows == 0
    assert empty.column_names == ["region_id", "n_pts", "sum_w"]


def test_zonal_stats_rejects_float_value_columns():
    """Float value columns would silently truncate toward zero under
    the int64 partial sums — the stage must refuse them (int-quantize
    upstream instead)."""
    import pytest as _pytest

    from mapchete_xarray_ray.stages.join import ZonalStats

    z = ZonalStats([(0, [[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]])],
                   x_col="x", y_col="y", value_cols=("w",))
    batch = pa.table({"x": pa.array([1.0]), "y": pa.array([1.0]),
                      "w": pa.array([0.6])})
    with _pytest.raises(TypeError, match="int-quantize"):
        z(batch)
