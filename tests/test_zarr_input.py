"""Zarr-as-input source, mosaic window reads, pyramid (E2/E3, F6)."""

import os

import numpy as np
import pyarrow as pa
import pytest
import ray
from mapchete_xarray_ray.collect import arrow_block_refs

from mapchete_xarray_ray.fixtures import make_pages
from mapchete_xarray_ray.pipelines.flagship import default_spec, run_pipeline
from mapchete_xarray_ray.pipelines.pyramid import run_pyramid_step
from mapchete_xarray_ray.sinks.zarr import ZarrTileStore
from mapchete_xarray_ray.sources.zarr_input import (
    TileReader,
    check_grid_compatible,
    read_window,
    spec_from_archive,
)


def _collect(ds) -> pa.Table:
    return pa.concat_tables([ray.get(r) for r in arrow_block_refs(ds)])


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("arch")
    pages = make_pages(n=500)
    spec = default_spec(str(tmp / "src.zarr"))
    _collect(run_pipeline(ray.data.from_arrow(pages), spec))
    return spec


def test_spec_from_archive_roundtrip(archive):
    spec2 = spec_from_archive(archive.path)
    assert spec2.zoom == archive.zoom
    assert spec2.band_names == archive.band_names
    assert tuple(spec2.snapped_bounds) == tuple(archive.snapped_bounds)
    assert spec2.dtype == archive.dtype


def test_spec_from_archive_rejects_foreign_dir(tmp_path):
    with pytest.raises(TypeError, match="mapchete metadata"):
        spec_from_archive(str(tmp_path))


def test_grid_compat_guard(archive, tmp_path):
    other = default_spec(str(tmp_path / "m.zarr"), grid="mercator",
                         bounds=(0.0, 0.0, 2e6, 2e6))
    with pytest.raises(ValueError, match="reprojection"):
        check_grid_compatible(spec_from_archive(archive.path), other)


def test_tile_reader_band_select(archive):
    store = ZarrTileStore(archive)
    (r, c) = sorted(store.existing_tiles())[0]
    tiles = ray.data.from_arrow(pa.table({
        "tile_row": pa.array([r], pa.int64()),
        "tile_col": pa.array([c], pa.int64()),
    }))
    out = _collect(tiles.map_batches(
        TileReader,
        fn_constructor_kwargs=dict(path=archive.path, indexes=[0, 2]),
        batch_format="pyarrow", concurrency=1,
    ))
    # band select by index -> Band names 1 and 3 (reference test_driver.py:137-150)
    assert "count" in out.column_names and "count_long" in out.column_names
    assert "count_en" not in out.column_names
    direct = store.read_tile(r, c, bands=["count"])[0]
    got = np.frombuffer(out.column("count")[0].as_py(), dtype=archive.dtype).reshape(256, 256)
    np.testing.assert_array_equal(got, direct)


def test_read_window_crossing_tiles(archive):
    """Mosaic path: a window straddling 4 tiles equals the stitched
    per-tile reads (reference extract_subset semantics)."""
    store = ZarrTileStore(archive)
    spec = archive
    ts = spec.pyramid.tile_x_size(spec.zoom)
    b = spec.snapped_bounds
    # 1.5-tile window centred on the cross between tiles (1,1),(1,2),(2,1),(2,2)
    win = (b.left + 1.5 * ts, b.top - 2.5 * ts, b.left + 2.5 * ts, b.top - 1.5 * ts)
    got = read_window(store, win)
    assert got.shape == (3, 256, 256)
    # assemble expected from the 4 tiles
    expected = np.zeros((3, 512, 512), dtype=spec.dtype)
    for i, r in enumerate((1, 2)):
        for j, c in enumerate((1, 2)):
            expected[:, i * 256:(i + 1) * 256, j * 256:(j + 1) * 256] = store.read_tile(r, c)
    np.testing.assert_array_equal(got, expected[:, 128:384, 128:384])


def test_read_window_outside_archive_fills_nodata(archive):
    store = ZarrTileStore(archive)
    b = archive.snapped_bounds
    ts = archive.pyramid.tile_x_size(archive.zoom)
    win = (b.left - ts, b.top, b.left, b.top + ts)  # fully outside (NW corner)
    got = read_window(store, win)
    assert got.shape == (3, 256, 256)
    assert (got == archive.nodata).all()


def test_pyramid_step_output_as_input(archive, tmp_path):
    """E3: zoom 5 archive -> zoom 4 archive; parent pixel = sum of its
    2x2 children; totals preserved."""
    out = _collect(run_pyramid_step(archive.path, str(tmp_path / "z4.zarr"), how="sum"))
    assert out.num_rows == 16  # 4x4 tiles at z4 over the same bounds
    src = ZarrTileStore(archive)
    dst = ZarrTileStore(spec_from_archive(str(tmp_path / "z4.zarr")))
    total_src = sum(int(src.read_tile(r, c, bands=["count"]).sum())
                    for r, c in src.existing_tiles())
    total_dst = sum(int(dst.read_tile(r, c, bands=["count"]).sum())
                    for r, c in dst.existing_tiles())
    assert total_src == total_dst
    # resume: second run computes nothing
    again = _collect(run_pyramid_step(archive.path, str(tmp_path / "z4.zarr")))
    assert again.num_rows == 0


def test_pyramid_chain_two_levels(archive, tmp_path):
    """z5 -> z4 -> z3 chain: output-as-input twice; totals preserved."""
    _collect(run_pyramid_step(archive.path, str(tmp_path / "c4.zarr"), how="sum"))
    out = _collect(run_pyramid_step(str(tmp_path / "c4.zarr"),
                                    str(tmp_path / "c3.zarr"), how="sum"))
    assert out.num_rows == 4  # 2x2 tiles at z3
    src = ZarrTileStore(archive)
    dst = ZarrTileStore(spec_from_archive(str(tmp_path / "c3.zarr")))
    total_src = sum(int(src.read_tile(r, c, bands=["count"]).sum())
                    for r, c in src.existing_tiles())
    total_dst = sum(int(dst.read_tile(r, c, bands=["count"]).sum())
                    for r, c in dst.existing_tiles())
    assert total_src == total_dst


def test_pyramid_float_archive(tmp_path):
    """Float-dtype archives downsample without crashing or truncating."""
    import pyarrow as pa

    from mapchete_xarray_ray.pipelines.flagship import run_pipeline
    from mapchete_xarray_ray.spec import JobSpec

    spec = JobSpec(path=str(tmp_path / "f.zarr"), zoom=5,
                   bounds=(-180.0, 45.0, -135.0, 90.0),
                   band_names=["v"], dtype="float32", nodata=0)

    def float_process(tile, pages_tbl, spec_):
        return np.full((1, 256, 256), 0.25, dtype=np.float32)

    pages = make_pages(n=200)
    _collect(run_pipeline(ray.data.from_arrow(pages), spec,
                          process_fn=float_process))
    out = _collect(run_pyramid_step(spec.path, str(tmp_path / "f4.zarr"),
                                    how="max"))
    assert out.num_rows == 16
    dst = ZarrTileStore(spec_from_archive(str(tmp_path / "f4.zarr")))
    r, c = next(iter(dst.existing_tiles()))
    vals = dst.read_tile(r, c)
    # max-downsampled float data keeps its fractional value
    assert np.isclose(vals[vals != 0].max(), 0.25)


def test_pyramid_nodata_not_aggregated(tmp_path):
    """Edge parents never absorb nodata fill into sums (nodata != 0)."""
    import json

    from mapchete_xarray_ray.pipelines.flagship import run_pipeline
    from mapchete_xarray_ray.spec import JobSpec

    spec = JobSpec(path=str(tmp_path / "nd.zarr"), zoom=5,
                   bounds=(-180.0, 45.0, -135.0, 90.0),
                   band_names=["v"], dtype="uint16", nodata=9)

    def const_process(tile, pages_tbl, spec_):
        return np.full((1, 256, 256), 2, dtype=np.uint16)

    pages = make_pages(n=300)
    _collect(run_pipeline(ray.data.from_arrow(pages), spec,
                          process_fn=const_process))
    _collect(run_pyramid_step(spec.path, str(tmp_path / "nd4.zarr"), how="sum"))
    dst = ZarrTileStore(spec_from_archive(str(tmp_path / "nd4.zarr")))
    for r, c in dst.existing_tiles():
        vals = dst.read_tile(r, c)
        # every pixel is either a true sum (multiple of 2) or nodata —
        # never a blend that includes the fill value 9
        ok = (vals == 9) | (vals % 2 == 0)
        assert ok.all()


def test_pyramid_time_axis_archive(tmp_path):
    """E3 over a 4-D TIME archive: each time slice downsamples
    independently; the z-1 archive keeps the full time coordinate and
    per-slice sums are preserved."""
    import numpy as np

    from mapchete_xarray_ray.spec import JobSpec
    from mapchete_xarray_ray.sinks.zarr import ZarrTileStore

    TIME = {"start": "2022-06-01", "end": "2022-06-03",
            "steps": ["2022-06-01", "2022-06-02", "2022-06-03"]}
    spec = JobSpec(path=str(tmp_path / "t5.zarr"), zoom=5,
                   bounds=(-180.0, 45.0, -135.0, 90.0), bands=1,
                   dtype="uint16", time=TIME)
    store = ZarrTileStore(spec)
    store.prepare()
    rng = np.random.default_rng(11)
    ts = np.array(TIME["steps"], dtype="datetime64[us]")
    tiles = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]
    written = {}
    for r, c in tiles:
        data = rng.integers(0, 200, (1, 3, 256, 256), dtype=np.uint16)
        store.write_tile(r, c, data, timestamps=ts)
        written[(r, c)] = data
    out = _collect(run_pyramid_step(spec.path, str(tmp_path / "t4.zarr"),
                                    how="sum"))
    assert out.num_rows >= 2
    from mapchete_xarray_ray.sources.zarr_input import spec_from_archive

    z4 = ZarrTileStore(spec_from_archive(str(tmp_path / "t4.zarr")))
    assert z4.has_time and z4.n_time == 3
    # parent (0,0) covers children (0,0),(0,1),(1,0),(1,1): per-slice
    # totals must match the children's totals exactly (uint32 widening)
    parent = z4.read_tile(0, 0)
    assert parent.shape == (1, 3, 256, 256)
    for t in range(3):
        want = sum(int(written[rc][0, t].sum())
                   for rc in [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert int(parent[0, t].astype(np.int64).sum()) == want, t


def test_pyramid_time_records_true_chunks_written(tmp_path):
    """A time overview whose chunksize (2) is below its step count (3)
    writes two time chunks per band; the record must say bands x time
    chunks (2 x 2), matching the files on disk."""
    from mapchete_xarray_ray.spec import JobSpec
    from mapchete_xarray_ray.state.lineage import read_records

    TIME = {"start": "2022-06-01", "end": "2022-06-03", "chunksize": 2,
            "steps": ["2022-06-01", "2022-06-02", "2022-06-03"]}
    spec = JobSpec(path=str(tmp_path / "t5.zarr"), zoom=5,
                   bounds=(-180.0, 45.0, -135.0, 90.0), bands=2,
                   dtype="uint16", time=TIME)
    store = ZarrTileStore(spec)
    store.prepare()
    rng = np.random.default_rng(17)
    ts = np.array(TIME["steps"], dtype="datetime64[us]")
    for r, c in [(0, 0), (1, 1), (2, 3)]:
        store.write_tile(r, c, rng.integers(0, 200, (2, 3, 256, 256),
                                            dtype=np.uint16),
                         timestamps=ts)
    z4_path = str(tmp_path / "t4.zarr")
    _collect(run_pyramid_step(spec.path, z4_path, how="sum"))
    recs = read_records(z4_path)
    assert len(recs) == 2
    z4 = ZarrTileStore(spec_from_archive(z4_path))
    for (_z, r, c), rec in recs.items():
        assert rec["chunks_written"] == 2 * 2
        on_disk = [f for band in spec.band_names
                   for f in z4.chunk_files(band, *z4.tile_to_chunk(r, c))
                   if os.path.exists(f)]
        assert len(on_disk) == rec["chunks_written"]


def test_pyramid_time_overview_repairs_corrupt_chunk(tmp_path):
    """A corrupt time-axis overview chunk must be rebuildable through
    invalidate + rerun: the overview writer covers the full time
    coordinate, so its rewrite must NOT merge-read the existing
    (undecodable) bytes — it rebuilds from fill and converges to the
    original bytes. Its lineage record carries time_idxs, so the audit
    reports real corruption as checksum_mismatch."""
    import numpy as np

    from mapchete_xarray_ray.pipelines.audit import audit_summary
    from mapchete_xarray_ray.sinks.zarr import ZarrTileStore
    from mapchete_xarray_ray.sources.zarr_input import spec_from_archive
    from mapchete_xarray_ray.spec import JobSpec
    from mapchete_xarray_ray.state.lineage import invalidate_tiles

    TIME = {"start": "2022-06-01", "end": "2022-06-03",
            "steps": ["2022-06-01", "2022-06-02", "2022-06-03"]}
    spec = JobSpec(path=str(tmp_path / "t5.zarr"), zoom=5,
                   bounds=(-180.0, 45.0, -135.0, 90.0), bands=1,
                   dtype="uint16", time=TIME)
    store = ZarrTileStore(spec)
    store.prepare()
    rng = np.random.default_rng(13)
    ts = np.array(TIME["steps"], dtype="datetime64[us]")
    for r, c in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        store.write_tile(r, c, rng.integers(0, 200, (1, 3, 256, 256),
                                            dtype=np.uint16),
                         timestamps=ts)
    z4_path = str(tmp_path / "t4.zarr")
    _collect(run_pyramid_step(spec.path, z4_path, how="sum"))
    assert audit_summary(z4_path)["ok"]

    z4 = spec_from_archive(z4_path)
    band_dir = os.path.join(z4_path, z4.band_names[0])
    victim = sorted(f for f in os.listdir(band_dir)
                    if not f.startswith(".") and len(f.split(".")) == 3)[0]
    vpath = os.path.join(band_dir, victim)
    good = open(vpath, "rb").read()

    open(vpath, "wb").write(b"\x00garbage")  # undecodable
    t, cr, cc = (int(x) for x in victim.split("."))
    row0, _r1, col0, _c1 = z4.tile_range()
    invalidate_tiles(z4_path, [(z4.zoom, cr + row0, cc + col0)])
    # pre-fix this crashed in the merge read of the garbage bytes
    _collect(run_pyramid_step(spec.path, z4_path, how="sum"))
    assert open(vpath, "rb").read() == good
    assert audit_summary(z4_path)["ok"]


def test_consolidated_metadata_serves_every_open(archive, tmp_path):
    """All metadata resolves through the single .zmetadata GET (the
    reference's consolidated=True open): with every per-key metadata
    file deleted, spec_from_archive, prepare, and the stored-layout
    sync must still work; with .zmetadata deleted instead, the
    per-key fallback must serve archives from non-consolidating
    writers."""
    import os
    import shutil
    from dataclasses import replace

    from mapchete_xarray_ray.sinks.zarr import ZarrTileStore

    src = archive.path
    for variant in ("consolidated_only.zarr", "per_key_only.zarr"):
        dst = str(tmp_path / variant)
        shutil.copytree(src, dst)
        if variant.startswith("consolidated_only"):
            os.remove(os.path.join(dst, ".zattrs"))
            for band in archive.band_names:
                os.remove(os.path.join(dst, band, ".zarray"))
        else:
            os.remove(os.path.join(dst, ".zmetadata"))
        spec2 = spec_from_archive(dst)
        assert spec2.band_names == archive.band_names
        spec2 = replace(spec2, path=dst)
        store = ZarrTileStore(spec2)
        store.prepare()           # metadata-compat check passes
        store._sync_time_chunk()  # stored-layout sync finds .zarray
        assert store.compressor is not None  # stored zlib config found


def test_run_pyramid_chain_resume_per_level(archive, tmp_path):
    """run_pyramid_chain: iterated z5 -> z2 build with per-level
    lineage/resume. A level pre-built out-of-band is skipped (0 writes)
    while deeper levels still build; a full re-run writes nothing; the
    final level preserves the source total."""
    import shutil

    from mapchete_xarray_ray.pipelines.pyramid import run_pyramid_chain

    # chain names levels <src base>_z{z}.zarr -> keep a private copy
    src = str(tmp_path / "chain.zarr")
    shutil.copytree(archive.path, src)
    base = str(tmp_path / "chain")

    # simulate a chain interrupted after the first level: build z4 only
    first = _collect(run_pyramid_step(src, base + "_z4.zarr", how="sum"))
    assert first.num_rows == 16

    levels = run_pyramid_chain(src, min_zoom=2, how="sum")
    assert [(lv["zoom"], lv["tiles_written"]) for lv in levels] == [
        (4, 0),   # resumed: already complete
        (3, 4),
        (2, 1),
    ]
    src_store = ZarrTileStore(archive)
    z2 = ZarrTileStore(spec_from_archive(base + "_z2.zarr"))
    total_src = sum(int(src_store.read_tile(r, c, bands=["count"]).sum())
                    for r, c in src_store.existing_tiles())
    total_z2 = sum(int(z2.read_tile(r, c, bands=["count"]).sum())
                   for r, c in z2.existing_tiles())
    assert total_src == total_z2

    # full re-run: every level resumes to zero writes
    again = run_pyramid_chain(src, min_zoom=2, how="sum")
    assert [lv["tiles_written"] for lv in again] == [0, 0, 0]


def test_pyramid_step_never_reuses_stale_worker_state(tmp_path):
    """Same Ray session, archive RECREATED at the same paths with a
    different dtype/layout: the second step must decode through the NEW
    layout. The step keeps no per-worker state (its closure opens both
    stores per batch); this guards that no store handle synced to a
    deleted archive's metadata comes back."""
    import shutil

    from mapchete_xarray_ray.fixtures import make_pages
    from mapchete_xarray_ray.pipelines.flagship import (
        default_spec,
        run_pipeline,
    )

    src, dst = str(tmp_path / "re.zarr"), str(tmp_path / "re4.zarr")
    pages = make_pages(n=300)

    _collect(run_pipeline(ray.data.from_arrow(pages),
                          default_spec(src, dtype="uint16")))
    first = _collect(run_pyramid_step(src, dst, how="sum"))
    assert first.num_rows > 0

    # regenerate BOTH archives at the same paths, different dtype
    shutil.rmtree(src), shutil.rmtree(dst)
    _collect(run_pipeline(ray.data.from_arrow(pages),
                          default_spec(src, dtype="uint32")))
    second = _collect(run_pyramid_step(src, dst, how="max"))
    assert second.num_rows == first.num_rows
    z4 = ZarrTileStore(spec_from_archive(dst))
    assert z4.spec.dtype == "uint32"  # max keeps input dtype
    # values decode cleanly through the NEW layout
    total = sum(int(z4.read_tile(r, c, bands=["count"]).max())
                for r, c in z4.existing_tiles())
    assert total > 0


def test_tile_passes_emit_no_empty_blocks(tmp_path):
    """A tile pass never makes more blocks than tiles: on a 1-tile
    archive every output block of the audit, the diff and the pyramid
    step holds rows and the pass's schema (no zero-row pass-through
    block keeping the work list's schema)."""
    from mapchete_xarray_ray.collect import collect_table
    from mapchete_xarray_ray.pipelines.audit import audit_archive_ds
    from mapchete_xarray_ray.pipelines.commit import SUMMARY_COLUMNS
    from mapchete_xarray_ray.pipelines.diff import archive_diff_ds

    src = str(tmp_path / "one.zarr")
    spec = default_spec(src, zoom=2)
    # the flagship's groupby may emit zero-column blocks: not a tile pass
    collect_table(run_pipeline(ray.data.from_arrow(make_pages(n=200)), spec))
    assert len(ZarrTileStore(spec).existing_tiles()) == 1

    key = ["tile_id", "tile_row", "tile_col"]
    for ds, names in [
            (audit_archive_ds(src), key + ["status"]),
            (archive_diff_ds(src, src), key + ["changed"]),
            (run_pyramid_step(src, str(tmp_path / "one1.zarr")),
             list(SUMMARY_COLUMNS))]:
        blocks = [ray.get(r) for r in arrow_block_refs(ds)]
        assert blocks
        for b in blocks:
            assert b.num_rows > 0
            assert b.column_names == names
