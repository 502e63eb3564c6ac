"""E1 end-to-end: pages -> zarr archive, resume semantics, oracle parity."""

import os

import numpy as np
import pyarrow as pa
import pytest
import ray
from mapchete_xarray_ray.collect import arrow_block_refs

from mapchete_xarray_ray.fixtures import DEFAULT_BOUNDS, DEFAULT_ZOOM, make_pages
from mapchete_xarray_ray.grid import pack_tile_id
from mapchete_xarray_ray.oracle import oracle_tile_assign
from mapchete_xarray_ray.pipelines.flagship import default_spec, run_pipeline
from mapchete_xarray_ray.sinks.zarr import ZarrTileStore
from mapchete_xarray_ray.spec import JobSpecError
from mapchete_xarray_ray.state.lineage import completed_tiles, read_records


def _collect(ds) -> pa.Table:
    tabs = [ray.get(r) for r in arrow_block_refs(ds)]
    nonempty = [t for t in tabs if t.num_columns > 0]
    if not nonempty:
        return pa.table({"tile_id": pa.array([], pa.int64())})
    return pa.concat_tables(nonempty)


def test_e2e_counts_match_oracle(tmp_path):
    pages = make_pages(n=600, dup_frac=0.1)
    spec = default_spec(str(tmp_path / "out.zarr"))
    summary = _collect(run_pipeline(ray.data.from_arrow(pages), spec))

    # oracle: sequential assignment, dedup by url, count per tile
    assign = oracle_tile_assign(pages, DEFAULT_BOUNDS, DEFAULT_ZOOM)
    seen, per_tile = set(), {}
    for url, tid in zip(assign.column("url").to_pylist(),
                        assign.column("tile_id").to_pylist()):
        if url in seen:
            continue
        seen.add(url)
        per_tile[tid] = per_tile.get(tid, 0) + 1

    got = dict(zip(summary.column("tile_id").to_pylist(),
                   summary.column("n_pages").to_pylist()))
    assert got == per_tile

    # total count band sums to total deduped pages
    store = ZarrTileStore(spec)
    total = 0
    for (r, c) in store.existing_tiles():
        total += int(store.read_tile(r, c, bands=["count"]).sum())
    assert total == len(seen)


def test_e2e_resume_skips_done_tiles(tmp_path):
    """Mirror of reference tests/test_driver.py:107-118: second run in
    continue mode computes zero tiles."""
    pages = make_pages(n=300)
    spec = default_spec(str(tmp_path / "out.zarr"))
    first = _collect(run_pipeline(ray.data.from_arrow(pages), spec, mode="continue"))
    assert first.num_rows > 0
    second = _collect(run_pipeline(ray.data.from_arrow(pages), spec, mode="continue"))
    assert second.num_rows == 0


def test_e2e_resume_redoes_torn_tile(tmp_path):
    """A chunk written without a lineage record (killed task) is redone."""
    pages = make_pages(n=300)
    spec = default_spec(str(tmp_path / "out.zarr"))
    _collect(run_pipeline(ray.data.from_arrow(pages), spec, mode="continue"))
    recs = read_records(spec.path)
    assert recs
    # delete one lineage record -> that tile must be recomputed
    (zoom, row, col) = next(iter(recs))
    os.unlink(os.path.join(spec.path, "_lineage", f"{zoom}-{row}-{col}.json"))
    store = ZarrTileStore(spec)
    assert pack_tile_id(zoom, row, col) not in completed_tiles(store)
    redo = _collect(run_pipeline(ray.data.from_arrow(pages), spec, mode="continue"))
    assert redo.num_rows == 1
    assert redo.column("tile_row").to_pylist() == [row]


def test_e2e_4d_time_axis(tmp_path):
    pages = make_pages(n=300)
    time = {"start": "2022-06-01", "end": "2022-06-11",
            "steps": ["2022-06-01", "2022-06-04", "2022-06-06",
                      "2022-06-09", "2022-06-11"]}
    spec = default_spec(str(tmp_path / "out4d.zarr"), time=time)
    summary = _collect(run_pipeline(ray.data.from_arrow(pages), spec))
    assert summary.num_rows > 0
    store = ZarrTileStore(spec)
    r, c = next(iter(store.existing_tiles()))
    data = store.read_tile(r, c)
    assert data.shape == (3, 5, 256, 256)
    # per-timestamp counts sum to the tile total
    total = int(_collect(run_pipeline(ray.data.from_arrow(pages),
                                      default_spec(str(tmp_path / "o3.zarr")))
                         ).column("n_pages").to_numpy().sum())
    assert int(sum(store.read_tile(rr, cc, bands=["count"]).sum()
                   for rr, cc in store.existing_tiles())) == total


def test_default_process_refuses_float_dtype_when_built(tmp_path):
    """The default process counts pages, so a float dtype is refused
    with a JobSpecError while the plan is built, before any archive is
    created or any task runs (it used to fail inside the writer task
    on ``np.iinfo``)."""

    path = str(tmp_path / "f.zarr")
    spec = default_spec(path, dtype="float32", zoom=4)
    with pytest.raises(JobSpecError, match="integer"):
        run_pipeline(ray.data.from_arrow(make_pages(n=200)), spec)
    assert not os.path.exists(path)


def test_entry_smoke():
    import importlib
    import sys

    sys.path.insert(0, "/root/repo")
    mod = importlib.import_module("__ray_entry__")
    res = mod.entry()
    t = _collect(res)
    assert t.num_rows >= 0
    assert "tile_id" in t.column_names


def test_tile_to_points_inverts_rasterize(tmp_path):
    """Raster -> vector (stages/rasterize.tile_to_points) inverts the
    count rasterization: emitted points land on pixel centers whose
    re-assignment reproduces the same (iy, ix)."""
    from mapchete_xarray_ray.stages.rasterize import (
        local_pixel_indices,
        rasterize_counts,
        tile_to_points,
    )
    from mapchete_xarray_ray.pipelines.flagship import default_spec

    spec = default_spec(str(tmp_path / "unused.zarr"))
    rng = np.random.default_rng(3)
    n = 200
    tr, tc = 2, 3
    tb = spec.pyramid.tile_bounds(spec.zoom, tr, tc)
    lon = rng.uniform(float(tb.left), float(tb.right), n)
    lat = rng.uniform(float(tb.bottom), float(tb.top), n)
    group = pa.table({
        "lon": pa.array(lon), "lat": pa.array(lat),
        "tile_row": pa.array([tr] * n, pa.int64()),
        "tile_col": pa.array([tc] * n, pa.int64()),
    })
    tensor = rasterize_counts(group, spec, [None])
    pts = tile_to_points(tensor, tr, tc, spec, band=0)
    assert int(pts.column("value").to_numpy().sum()) == n
    # re-assign the emitted pixel-center points: identical (iy, ix)
    iy2, ix2 = local_pixel_indices(
        pts.column("lon").to_numpy(), pts.column("lat").to_numpy(), tr, tc, spec)
    np.testing.assert_array_equal(iy2, pts.column("iy").to_numpy())
    np.testing.assert_array_equal(ix2, pts.column("ix").to_numpy())


def test_lineage_records_carry_write_metrics(tmp_path):
    """north_rule: per-partition lineage + METRICS — every tile record,
    whichever writer committed it (count rasterize, process hook,
    pyramid), carries the same fields: write_ms, the logical byte count
    of the written tensor, cell_range, checksum and chunks_written."""
    from mapchete_xarray_ray.fixtures import make_pages
    from mapchete_xarray_ray.pipelines.pyramid import run_pyramid_step
    from mapchete_xarray_ray.processes.convert import convert_to_tensor
    from mapchete_xarray_ray.state.lineage import read_records

    pages = make_pages(n=200)
    spec = default_spec(str(tmp_path / "met.zarr"))
    _collect(run_pipeline(ray.data.from_arrow(pages), spec))
    hook = default_spec(str(tmp_path / "hook.zarr"))
    _collect(run_pipeline(ray.data.from_arrow(pages), hook,
                          process_fn=convert_to_tensor))
    z4 = str(tmp_path / "met4.zarr")
    _collect(run_pyramid_step(spec.path, z4, how="sum"))

    for path, n_bytes in ((spec.path, 3 * 256 * 256 * 2),  # 3 uint16 bands
                          (hook.path, 3 * 256 * 256 * 2),
                          (z4, 3 * 256 * 256 * 4)):  # uint32
        recs = read_records(path)
        assert recs, path
        for rec in recs.values():
            m = rec["metrics"]
            assert isinstance(m["write_ms"], int) and m["write_ms"] >= 0
            assert m["bytes"] == n_bytes, path
            assert rec["chunks_written"] == 3, path
            assert isinstance(rec["checksum"], int), path
            lo, hi = rec["cell_range"]
            assert lo == hi and isinstance(lo, int), path
