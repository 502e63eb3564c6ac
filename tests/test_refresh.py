"""Composed incremental recompute: refresh = diff -> invalidate ->
continue-mode execute, across two archive generations.

The contract under test is the reference's continue-mode semantics
(tests/test_driver.py:107-118 — a complete tile is never recomputed)
extended across generations: after ``refresh_archive(pages, cur,
prev)``, every tile whose bytes match the previous generation keeps
its chunk files byte- AND mtime-untouched, while every diverged tile
is rebuilt (fresh mtime via the temp+rename write) to the same bytes
(the recompute is idempotent for unchanged input).
"""

import json
import os
import time

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray

from mapchete_xarray_ray import cli
from mapchete_xarray_ray.collect import collect_table
from mapchete_xarray_ray.fixtures import make_pages, write_pages
from mapchete_xarray_ray.pipelines.diff import archive_diff_ds, refresh_archive
from mapchete_xarray_ray.functions.extract import extract_text
from mapchete_xarray_ray.pipelines.flagship import default_spec, run_pipeline
from mapchete_xarray_ray.sinks.zarr import ZarrTileStore
from mapchete_xarray_ray.stages.assign import assign_pages_fn
from mapchete_xarray_ray.state.lineage import completed_tiles, invalidate_tiles


def _chunk_snapshot(spec) -> dict[str, tuple[int, bytes, tuple[int, int]]]:
    """{relpath: (mtime_ns, bytes, (tile_row, tile_col))} over every
    band chunk file of the archive."""
    row0, _r1, col0, _c1 = spec.tile_range()
    out = {}
    for band in spec.band_names:
        band_dir = os.path.join(spec.path, band)
        for fn in os.listdir(band_dir):
            if fn.startswith("."):
                continue
            parts = fn.split(".")
            if len(parts) != 2:
                continue
            p = os.path.join(band_dir, fn)
            st = os.stat(p)
            tile = (int(parts[0]) + row0, int(parts[1]) + col0)
            out[os.path.join(band, fn)] = (st.st_mtime_ns,
                                           open(p, "rb").read(), tile)
    return out


def _build(pages: pa.Table, path: str):
    spec = default_spec(path)
    collect_table(run_pipeline(ray.data.from_arrow(pages), spec,
                               mode="continue"))
    return spec


def test_resume_drops_complete_tiles_before_extraction(tmp_path):
    """A continue-mode run drops the rows of complete tiles before any
    html is extracted. Here every such row carries html that
    ``extract_text`` rejects, so the run passes only if it never
    extracts them; the one stale tile is rebuilt to the same bytes."""
    poison = b"&#1114112;"  # a character reference past U+10FFFF
    with pytest.raises(ValueError):
        extract_text(poison)

    pages = make_pages(n=300)
    spec = _build(pages, str(tmp_path / "cur.zarr"))
    zoom = spec.zoom
    stale = sorted(ZarrTileStore(spec).existing_tiles())[0]
    assert invalidate_tiles(spec.path, [(zoom, *stale)]) == 1
    before = _chunk_snapshot(spec)
    time.sleep(0.02)  # mtime separation for the rebuild assertion

    tiles = assign_pages_fn(spec.snapped_bounds, zoom, spec.grid,
                            spec.cell_zoom, pyramid=spec.pyramid)(pages)
    in_stale = pc.and_(pc.equal(tiles.column("tile_row"), stale[0]),
                       pc.equal(tiles.column("tile_col"), stale[1]))
    assert 0 < pc.sum(in_stale).as_py() < pages.num_rows
    poisoned = pages.set_column(
        pages.schema.get_field_index("html"), "html",
        pc.if_else(in_stale, pages.column("html"),
                   pa.scalar(poison, pa.binary())))

    out = collect_table(run_pipeline(ray.data.from_arrow(poisoned), spec,
                                     mode="continue"))
    assert list(zip(out.column("tile_row").to_pylist(),
                    out.column("tile_col").to_pylist())) == [stale]
    after = _chunk_snapshot(spec)
    assert set(after) == set(before)
    for rel, (mt0, buf0, tile) in before.items():
        mt1, buf1, _ = after[rel]
        assert buf1 == buf0, f"{rel}: bytes moved on resume"
        assert (mt1 > mt0) == (tile == stale), rel
    store = ZarrTileStore(spec)
    assert len(completed_tiles(store)) == len(store.existing_tiles())


def test_rerun_of_a_complete_archive_writes_nothing(tmp_path):
    """A continue-mode re-run over an archive that is already complete
    has no tile left to build: it writes 0 tiles and touches no chunk
    file."""
    pages = make_pages(n=300)
    spec = _build(pages, str(tmp_path / "cur.zarr"))
    before = _chunk_snapshot(spec)
    assert before
    time.sleep(0.02)  # mtime separation: a rewrite would show

    out = collect_table(run_pipeline(ray.data.from_arrow(pages), spec,
                                     mode="continue"))
    assert out.num_rows == 0
    assert _chunk_snapshot(spec) == before


def test_refresh_recomputes_exactly_the_changed_tiles(tmp_path):
    pages_v1 = make_pages(n=400)
    extra = make_pages(n=60, seed=99)
    pages_v2 = pa.concat_tables([pages_v1, extra])

    prev_spec = _build(pages_v1, str(tmp_path / "prev.zarr"))
    cur_spec = _build(pages_v2, str(tmp_path / "cur.zarr"))

    # ground truth straight from the diff primitive
    diff = collect_table(archive_diff_ds(cur_spec.path, prev_spec.path))
    changed = {(r, c) for r, c, g in zip(
        diff.column("tile_row").to_pylist(),
        diff.column("tile_col").to_pylist(),
        diff.column("changed").to_pylist()) if g == 1}
    n_tiles = diff.num_rows
    assert 0 < len(changed) < n_tiles  # both sets non-trivial

    before = _chunk_snapshot(cur_spec)
    time.sleep(0.02)  # mtime separation for the rebuild assertion

    res = refresh_archive(ray.data.from_arrow(pages_v2),
                          cur_spec.path, prev_spec.path)
    assert res["tiles_compared"] == n_tiles
    assert res["tiles_changed"] == len(changed) == res["invalidated"]
    assert {tuple(rc) for rc in res["changed"]} == changed
    # every diverged tile has input rows in pages_v2, so all rebuild
    assert res["stale_uncovered"] == []
    assert {tuple(rc) for rc in res["recomputed"]} >= changed

    after = _chunk_snapshot(cur_spec)
    assert set(after) == set(before)  # no chunks appear or vanish
    for rel, (mt0, buf0, tile) in before.items():
        mt1, buf1, _ = after[rel]
        assert buf1 == buf0, f"{rel}: bytes moved on refresh"
        if tile in changed:
            assert mt1 > mt0, f"{rel}: changed tile was not rebuilt"
        else:
            assert mt1 == mt0, f"{rel}: unchanged tile was touched"

    # lineage is whole again: every written tile is complete
    store = ZarrTileStore(cur_spec)
    assert len(completed_tiles(store)) == len(store.existing_tiles())


def test_refresh_repairs_time_axis_chunks(tmp_path):
    """Time-axis repair semantics: the continue-mode rewrite of an
    invalidated tile must NOT merge with the existing chunk bytes
    (``write_tile(assume_fresh=True)``) — an undecodable chunk would
    crash the merge read, and a decodable-garbage chunk would keep its
    garbage at time positions the tile's input doesn't cover, so the
    refresh loop would never converge. Both corruptions must instead
    rebuild the chunk to its original fresh-build bytes."""
    import zlib

    import numpy as np

    pages = make_pages(n=300)
    time_cfg = {"start": "2022-06-01", "end": "2022-06-11",
                "steps": ["2022-06-01", "2022-06-04", "2022-06-06",
                          "2022-06-09", "2022-06-11"]}

    def build(path):
        spec = default_spec(path, time=time_cfg)
        collect_table(run_pipeline(ray.data.from_arrow(pages), spec,
                                   mode="continue"))
        return spec

    prev_spec = build(str(tmp_path / "prev.zarr"))
    cur_spec = build(str(tmp_path / "cur.zarr"))
    store = ZarrTileStore(cur_spec)

    band_dir = os.path.join(cur_spec.path, "count")
    victim = sorted(f for f in os.listdir(band_dir)
                    if not f.startswith(".") and len(f.split(".")) == 3)[0]
    vpath = os.path.join(band_dir, victim)
    good = open(vpath, "rb").read()

    # variant A: undecodable garbage (truncated/garbage object)
    open(vpath, "wb").write(b"\x00garbage")
    res = refresh_archive(ray.data.from_arrow(pages),
                          cur_spec.path, prev_spec.path)
    assert res["tiles_changed"] == 1
    assert open(vpath, "rb").read() == good

    # variant B: VALID zlib of wrong content — decodes fine, but the
    # garbage must not survive at positions the tile's pages don't
    # cover (the old merge path would have kept it forever)
    tc = store.time_chunk
    fake = np.ones((tc, cur_spec.chunk_px, cur_spec.chunk_px),
                   dtype=cur_spec.dtype)
    open(vpath, "wb").write(zlib.compress(fake.tobytes(), 1))
    res = refresh_archive(ray.data.from_arrow(pages),
                          cur_spec.path, prev_spec.path)
    assert res["tiles_changed"] == 1
    assert open(vpath, "rb").read() == good

    # converged: a third diff sees two identical generations
    diff = collect_table(archive_diff_ds(cur_spec.path, prev_spec.path))
    assert diff.column("changed").to_pylist().count(1) == 0


def test_refresh_converges_on_uncovered_time_positions(tmp_path):
    """The non-convergence scenario: garbage planted at a time chunk
    the tile's input does NOT cover. The rewrite's slices never touch
    that chunk, so a merge-or-touched-only rebuild would leave the
    garbage in place and every subsequent diff would flag the tile
    changed forever. assume_fresh must DELETE the uncovered chunk so
    the archive converges to the fresh-build bytes."""
    pages = make_pages(n=300)
    # chunksize 2 over 5 steps -> 3 time chunks per tile; with ~5
    # pages per tile most tiles cover only a subset of the chunks
    time_cfg = {"start": "2022-06-01", "end": "2022-06-11",
                "chunksize": 2,
                "steps": ["2022-06-01", "2022-06-04", "2022-06-06",
                          "2022-06-09", "2022-06-11"]}

    def build(path):
        spec = default_spec(path, time=time_cfg)
        collect_table(run_pipeline(ray.data.from_arrow(pages), spec,
                                   mode="continue"))
        return spec

    prev_spec = build(str(tmp_path / "prev.zarr"))
    cur_spec = build(str(tmp_path / "cur.zarr"))

    band_dir = os.path.join(cur_spec.path, "count")
    chunks = [f for f in os.listdir(band_dir)
              if not f.startswith(".") and len(f.split(".")) == 3]
    by_tile = {}
    for f in chunks:
        t, r, c = (int(x) for x in f.split("."))
        by_tile.setdefault((r, c), set()).add(t)
    victim = next(((rc, t) for rc, ts in sorted(by_tile.items())
                   for t in range(3) if t not in ts), None)
    assert victim is not None, "every tile covers every time chunk"
    (r, c), t = victim
    alien = os.path.join(band_dir, f"{t}.{r}.{c}")
    open(alien, "wb").write(b"\x00garbage")

    res = refresh_archive(ray.data.from_arrow(pages),
                          cur_spec.path, prev_spec.path)
    assert res["tiles_changed"] == 1
    assert not os.path.exists(alien)
    # converged: a second diff sees two identical generations
    diff = collect_table(archive_diff_ds(cur_spec.path, prev_spec.path))
    assert diff.column("changed").to_pylist().count(1) == 0


def test_refresh_noop_when_generations_match(tmp_path):
    pages = make_pages(n=300)
    prev_spec = _build(pages, str(tmp_path / "prev.zarr"))
    cur_spec = _build(pages, str(tmp_path / "cur.zarr"))

    before = _chunk_snapshot(cur_spec)
    res = refresh_archive(ray.data.from_arrow(pages),
                          cur_spec.path, prev_spec.path)
    assert res["tiles_changed"] == 0
    assert res["tiles_recomputed"] == 0
    assert _chunk_snapshot(cur_spec) == before
    assert prev_spec.path  # prev untouched by construction (read-only)


def test_cli_refresh(tmp_path, capsys):
    pages_dir = write_pages(str(tmp_path / "pages"), n=250)
    spec = {"path": str(tmp_path / "cur.zarr"), "zoom": 5,
            "bounds": [-180.0, 45.0, -135.0, 90.0],
            "band_names": ["count", "count_en", "count_long"],
            "dtype": "uint16", "input": {"path": pages_dir}}
    spec_path = str(tmp_path / "job.json")
    json.dump(spec, open(spec_path, "w"))
    cli.main(["execute", spec_path])
    capsys.readouterr()

    # previous generation = byte-copy, then perturb one tile's chunk in
    # cur (a torn/diverged generation); refresh must repair exactly it
    import shutil

    prev = str(tmp_path / "prev.zarr")
    shutil.copytree(spec["path"], prev)
    band_dir = os.path.join(spec["path"], "count")
    victim = sorted(f for f in os.listdir(band_dir)
                    if not f.startswith("."))[0]
    vpath = os.path.join(band_dir, victim)
    good = open(vpath, "rb").read()
    open(vpath, "wb").write(b"\x00garbage")

    out = None
    cli.main(["refresh", spec["path"], prev, "--input", pages_dir])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["tiles_changed"] == 1
    assert out["tiles_recomputed"] >= 1
    assert open(vpath, "rb").read() == good  # repaired to the true bytes
