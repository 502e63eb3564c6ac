"""Zarr archive as process input (reference _input.py S5-S7 + E3 mosaic).

- :func:`spec_from_archive` — open stored metadata once (driver side),
  validate it is one of ours (mapchete attrs present — _input.py:18-33)
  and grid-compatible with the consuming job (no reprojection,
  README.rst:161), and rebuild the JobSpec.
- :class:`TileReader` — actor-pool ``map_batches`` class (ST1): opens
  the store once per actor in ``__init__``, then serves per-tile window
  reads per batch. Input batch: rows of (tile_row, tile_col); output:
  one row per tile with each selected band's tensor as raw bytes plus
  shape columns (Arrow-native, no pickled objects).
- :func:`map_tiles` — the one task-pool pass over a tile work list
  (pyramid, audit, diff and the count read-backs).
- :func:`read_window` — label-window read crossing tile boundaries:
  the Ray equivalent of the reference mosaic path (``extract_subset``
  -> create_mosaic -> extract_from_array, _output.py:165-200): allocate
  the output window once, copy each intersecting tile's overlap in.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from mapchete_xarray_ray.grid import Bounds, bounds_to_ranges
from mapchete_xarray_ray.scale import nblocks_for_cluster
from mapchete_xarray_ray.spec import JobSpec
from mapchete_xarray_ray.sinks.zarr import ZarrTileStore


def spec_from_archive(path: str) -> JobSpec:
    """Rebuild a JobSpec from an archive's stored metadata (driver-side,
    once; the result is broadcast into task closures)."""
    from mapchete_xarray_ray.sinks.zarr import (
        load_consolidated,
        read_meta_json,
    )

    # per-key .zattrs is authoritative; the consolidated .zmetadata map
    # (the reference's open_zarr(consolidated=True), _input.py:55) is
    # loaded only when the per-key file is absent
    attrs = read_meta_json(path, ".zattrs")
    if attrs is None:
        cmeta = load_consolidated(path)
        attrs = None if cmeta is None else cmeta.get(".zattrs")
    if attrs is None:
        raise TypeError(f"archive at {path} does not hold mapchete metadata")
    meta = attrs.get("mapchete")
    if meta is None:
        raise TypeError(f"archive at {path} does not hold mapchete metadata")
    drv, pyr, delim = meta["driver"], meta["pyramid"], meta["delimiters"]
    return JobSpec(
        path=path,
        zoom=delim["zoom"][0],
        bounds=tuple(delim["process_bounds"]),
        grid=pyr["grid"]["type"],
        metatiling=pyr["metatiling"],
        tile_size=pyr["tile_size"],
        dtype=drv["dtype"],
        nodata=drv["nodata"],
        band_names=list(drv["band_names"]),
        time=drv.get("time") or None,
    )


def check_grid_compatible(input_spec: JobSpec, job_spec: JobSpec) -> None:
    """No reprojection between input and process (reference README.rst:161,
    _input.py CRS equality check)."""
    if input_spec.grid != job_spec.grid:
        raise ValueError(
            f"input grid {input_spec.grid!r} does not match process grid "
            f"{job_spec.grid!r}: reprojection is not supported"
        )


def archive_bbox(spec: JobSpec, out_grid: str | None = None) -> Bounds:
    """Data footprint for empty-tile pruning (S6, _input.py:85-104).

    ``out_grid`` reprojects the footprint into another grid's CRS —
    the reference's ``InputData.bbox(out_crs)`` seam. Only the
    FOOTPRINT crosses CRS; reading data across grids stays forbidden
    (:func:`check_grid_compatible`, reference README.rst:161)."""
    if out_grid is None or out_grid == spec.grid:
        return spec.snapped_bounds
    from mapchete_xarray_ray.grid import reproject_bounds

    return reproject_bounds(spec.snapped_bounds, spec.grid, out_grid)


def prune_tiles(tiles: list[tuple[int, int]], spec: JobSpec,
                footprint: Bounds) -> list[tuple[int, int]]:
    """Driver-side semi-join pruning (J3): keep tiles whose bbox
    intersects the input footprint (_input.py:203-211 is_empty)."""
    out = []
    for r, c in tiles:
        tb = spec.pyramid.tile_bounds(spec.zoom, r, c)
        if Bounds(float(tb.left), float(tb.bottom), float(tb.right),
                  float(tb.top)).intersects(footprint):
            out.append((r, c))
    return out


def map_tiles(tiles: list[tuple[int, int]], fn) -> ray.data.Dataset:
    """The one tile pass: ``fn(rows, cols) -> pa.Table`` runs once per
    batch of the ``(tile_row, tile_col)`` work list, with Python ints.

    The work list fans out to ``nblocks_for_cluster(1.0, lo=4)`` blocks,
    never more than there are tiles, so no block is empty. A task pool,
    not an actor pool: a pyramid chain runs one pass per level, and
    actor-pool spin-up dominated the coarse levels (2.2-2.7 s wall for
    <50 ms of remote work on a 32-tile z2 level; tasks on prewarmed
    workers ran it in ~0.3 s)."""
    work = pa.table({"tile_row": pa.array([t[0] for t in tiles], pa.int64()),
                     "tile_col": pa.array([t[1] for t in tiles], pa.int64())})

    def run(batch: pa.Table) -> pa.Table:
        return fn(batch.column("tile_row").to_pylist(),
                  batch.column("tile_col").to_pylist())

    nblocks = max(1, min(len(tiles), nblocks_for_cluster(1.0, lo=4)))
    return (ray.data.from_arrow(work).repartition(nblocks)
            .map_batches(run, batch_format="pyarrow"))


class TileReader:
    """Actor-pool stage: per-tile window reads from an archive.

    Use: ``ds_tiles.map_batches(TileReader, fn_constructor_kwargs=
    dict(path=..., indexes=[...], start_time=...), concurrency=N,
    batch_format="pyarrow")``. The store handle and resolved selectors
    are built once per actor (ST1/ST2), not per batch.
    """

    def __init__(self, path: str, indexes=None, start_time=None, end_time=None,
                 timestamps=None):
        self.spec = spec_from_archive(path)
        self.store = ZarrTileStore(self.spec)
        self.bands = self.store.resolve_bands(indexes)
        self.time_idxs = self.store.resolve_time(start_time, end_time, timestamps)

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = batch.column("tile_row").to_numpy(zero_copy_only=False)
        cols = batch.column("tile_col").to_numpy(zero_copy_only=False)
        band_bufs: dict[str, list[bytes]] = {b: [] for b in self.bands}
        shapes = []
        for r, c in zip(rows, cols):
            t = self.store.read_tile(int(r), int(c), bands=self.bands,
                                     time_idxs=self.time_idxs)
            shapes.append(list(t.shape[1:]))
            for i, b in enumerate(self.bands):
                band_bufs[b].append(np.ascontiguousarray(t[i]).tobytes())
        out = {
            "tile_row": pa.array(rows, pa.int64()),
            "tile_col": pa.array(cols, pa.int64()),
            "shape": pa.array(shapes, pa.list_(pa.int64())),
        }
        for b in self.bands:
            out[b] = pa.array(band_bufs[b], pa.large_binary())
        return pa.table(out)


def read_window(store: ZarrTileStore, bounds, bands=None, time_idxs=None) -> np.ndarray:
    """Mosaic path (A1/A2): read an arbitrary pixel window, stitching
    across tile/chunk boundaries; missing chunks fill with nodata.

    Returns ``(bands, h, w)`` or ``(bands, T', h, w)``.
    """
    spec = store.spec
    b = spec.snapped_bounds
    minrow, maxrow, mincol, maxcol = bounds_to_ranges(
        bounds, b.left, b.top, store.px_x, store.px_y
    )
    return read_pixel_window(store, minrow, maxrow, mincol, maxcol,
                             bands=bands, time_idxs=time_idxs)


def read_pixel_window(store: ZarrTileStore, minrow: int, maxrow: int,
                      mincol: int, maxcol: int, bands=None,
                      time_idxs=None) -> np.ndarray:
    """Pixel-space mosaic read (the integer-exact core of
    :func:`read_window`): stitch the half-open global pixel range
    ``[minrow,maxrow) x [mincol,maxcol)`` across chunks. Pixel ranges
    avoid the geo->pixel float snap, which matters for EXACT halo
    windows (pixelbuffer-style reads expand a tile by N pixels, not by
    N * a float pixel size)."""
    spec = store.spec
    bands = bands or spec.band_names
    h, w = maxrow - minrow, maxcol - mincol
    cp = store.chunk_px
    if store.has_time:
        tn = len(time_idxs) if time_idxs is not None else store.n_time
        out = np.full((len(bands), tn, h, w), spec.nodata, dtype=spec.dtype)
    else:
        out = np.full((len(bands), h, w), spec.nodata, dtype=spec.dtype)
    row0, _r1, col0, _c1 = spec.tile_range()
    # loop only over chunks that exist inside the archive; pixels of the
    # window outside the archive stay at nodata (reference fill semantics)
    vrow0, vrow1 = max(minrow, 0), min(maxrow, store.height)
    vcol0, vcol1 = max(mincol, 0), min(maxcol, store.width)
    if vrow1 <= vrow0 or vcol1 <= vcol0:
        return out
    for crow in range(vrow0 // cp, (vrow1 - 1) // cp + 1):
        for ccol in range(vcol0 // cp, (vcol1 - 1) // cp + 1):
            tile = store.read_tile(crow + row0, ccol + col0, bands=bands,
                                   time_idxs=time_idxs)
            # overlap of this chunk with the window, in global pixel coords
            gr0, gr1 = max(vrow0, crow * cp), min(vrow1, (crow + 1) * cp)
            gc0, gc1 = max(vcol0, ccol * cp), min(vcol1, (ccol + 1) * cp)
            src = (slice(None),) * (tile.ndim - 2) + (
                slice(gr0 - crow * cp, gr1 - crow * cp),
                slice(gc0 - ccol * cp, gc1 - ccol * cp),
            )
            dst = (slice(None),) * (tile.ndim - 2) + (
                slice(gr0 - minrow, gr1 - minrow),
                slice(gc0 - mincol, gc1 - mincol),
            )
            out[dst] = tile[src]
    return out
