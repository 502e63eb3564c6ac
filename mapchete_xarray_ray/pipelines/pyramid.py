"""E3 — process-output-as-input: build zoom z-1 from zoom z.

The reference's self-referential path (output driver as input,
_output.py:146-163 + get_raw_output at :556, mosaic at :165-200) maps
to: enumerate parent tiles at z-1 (driver), prune against the input
footprint (J3), then one ``map_tiles`` pass whose tasks each read
their 2x2 child window from the source archive (mosaic read) and write
the downsampled parent tile + lineage — no shuffle at all: the tile
grid itself is the partitioning, each task's read set is disjoint.
The per-batch function is a closure over the driver-side specs that
opens both stores per batch, so no state outlives a step on a worker.

The downsample (:func:`_downsample2`) combines the four strided
quarters ``window[..., i::2, j::2]`` pixel-wise in quarter-sized
arrays and never reshapes or copies the whole window. Integer sums are
exact and float sums add in the order of numpy's ``sum`` over the 2x2
block axes, so an overview's bytes equal a plain block reduction's
(tests/test_pyramid_kernel.py keeps that reduction as the oracle).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from mapchete_xarray_ray.grid import pack_tile_id
from mapchete_xarray_ray.pipelines.commit import finalize_tile, summary_table
from mapchete_xarray_ray.spec import JobSpec
from mapchete_xarray_ray.sinks.zarr import ZarrTileStore
from mapchete_xarray_ray.sources.zarr_input import (
    archive_bbox,
    check_grid_compatible,
    map_tiles,
    prune_tiles,
    read_window,
    spec_from_archive,
)
from mapchete_xarray_ray.state.lineage import completed_tiles


def _downsample2(arr: np.ndarray, how: str = "sum", nodata=0) -> np.ndarray:
    """2x block-reduce the last two axes over the four strided quarters
    ``arr[..., i::2, j::2]`` (views; nothing the size of the window is
    allocated).

    Nodata-aware: nodata children contribute 0 (sum) / the lowest value
    (max) instead of their fill value; a parent pixel whose 2x2
    children are ALL nodata stays nodata. Integer sums accumulate the
    raw quarters in one quarter-sized int64 array and then take
    ``nodata`` back out once per nodata child — exact integer
    arithmetic. Float sums and every max mask each quarter (float
    inputs in float64, no truncation) and combine as
    ``(q00 + q01) + (q10 + q11)``, the order numpy's block reduction
    summed in, so the result is bit-identical to it for every window at
    least 4 px wide (two tiles of >= 2 px)."""
    floating = np.issubdtype(arr.dtype, np.floating)
    acc_dtype = np.float64 if floating else np.int64
    quarters = [arr[..., i::2, j::2] for i in (0, 1) for j in (0, 1)]
    if floating:
        # compare in float64, as the accumulator sees the value
        quarters = [q.astype(np.float64, copy=False) for q in quarters]
    nds = [q == nodata for q in quarters]
    all_nd = nds[0] & nds[1] & nds[2] & nds[3]
    if how == "sum" and not floating:
        out = quarters[0].astype(np.int64)
        for q in quarters[1:]:
            np.add(out, q, out=out, dtype=np.int64, casting="unsafe")
        if nodata != 0 and any(nd.any() for nd in nds):
            out -= sum(nd.view(np.int8) for nd in nds) * np.int64(nodata)
    elif how in ("sum", "max"):
        fill = 0 if how == "sum" else (np.finfo(acc_dtype).min if floating
                                       else np.iinfo(np.int64).min)
        m = [np.where(nd, acc_dtype(fill), q) for q, nd in zip(quarters, nds)]
        if how == "sum":
            out = (m[0] + m[1]) + (m[2] + m[3])
        else:
            out = np.maximum(np.maximum(m[0], m[1]), np.maximum(m[2], m[3]))
    else:
        raise ValueError(how)
    out[all_nd] = nodata
    return out


def _clip_to_dtype(arr: np.ndarray, dtype) -> np.ndarray:
    """Clip ``arr`` to ``dtype``'s range IN PLACE, then cast. Callers
    pass the kernel's fresh output, never a view of a window."""
    dt = np.dtype(dtype)
    if np.issubdtype(dt, np.integer):
        info = np.iinfo(dt)
        np.clip(arr, info.min, info.max, out=arr)
    return arr.astype(dt)


def run_pyramid_step(in_path: str, out_path: str, how: str = "sum",
                     mode: str = "continue") -> ray.data.Dataset:
    in_spec = spec_from_archive(in_path)
    out_spec = JobSpec(
        path=out_path,
        zoom=in_spec.zoom - 1,
        bounds=tuple(in_spec.bounds),
        grid=in_spec.grid,
        metatiling=in_spec.metatiling,
        tile_size=in_spec.tile_size,
        # sum overviews need headroom: widen ints to uint32, floats to
        # float64; max never outgrows the input dtype
        dtype=(in_spec.dtype if how == "max"
               else ("float64" if np.issubdtype(np.dtype(in_spec.dtype),
                                                np.floating) else "uint32")),
        nodata=in_spec.nodata,
        band_names=list(in_spec.band_names),
        time=in_spec.time,
    )
    check_grid_compatible(in_spec, out_spec)
    # out_spec's default compression applies only when this call
    # CREATES the archive; an existing one keeps its on-disk layout
    # (write_tile syncs from .zarray metadata)
    out_store = ZarrTileStore(out_spec)
    out_store.prepare()

    r0, r1, c0, c1 = out_spec.tile_range()
    # enumerate parents from the CHILD archive's existing chunks (one
    # LIST per band prefix), not the full grid: a sparse z-level keeps
    # the work list at O(written tiles), and a skipped parent reads
    # back as fill anyway — same semantics, none of the empty writes
    in_store = ZarrTileStore(in_spec)
    parents = {(cr // 2, cc // 2) for cr, cc in in_store.existing_tiles()}
    tiles = [(r, c) for r, c in sorted(parents)
             if r0 <= r <= r1 and c0 <= c <= c1]
    tiles = prune_tiles(tiles, out_spec, archive_bbox(in_spec))
    if mode == "continue":
        done = completed_tiles(out_store)
        tiles = [(r, c) for r, c in tiles
                 if int(pack_tile_id(out_spec.zoom, r, c)) not in done]

    fragment = f"{in_spec.path}@z{in_spec.zoom}"

    def reduce_tiles(rows: list[int], cols: list[int]) -> pa.Table:
        # both stores open per batch, as in every tile pass: __init__
        # does no I/O and the layout sync is one lazy GET
        src, dst = ZarrTileStore(in_spec), ZarrTileStore(out_spec)
        out = []
        for r, c in zip(rows, cols):
            tb = out_spec.pyramid.tile_bounds(out_spec.zoom, r, c)
            tensor = _clip_to_dtype(
                _downsample2(read_window(src, tuple(tb)), how,
                             nodata=in_spec.nodata),
                out_spec.dtype,
            )
            # an overview covers the FULL time coordinate and is derived
            # from the child level, so finalize_tile's fresh rebuild and
            # full-range time_idxs are exactly right
            out.append(finalize_tile(dst, r, c, tensor, 0,
                                     input_fragments=[fragment]))
        return summary_table(out)

    return map_tiles(tiles, reduce_tiles)


def run_pyramid_chain(src_path: str, min_zoom: int, how: str = "sum",
                      mode: str = "continue") -> list[dict]:
    """E3 iterated: chain :func:`run_pyramid_step` z -> z-1 -> ... ->
    ``min_zoom`` (the reference's self-referential overview build,
    _output.py:146-163 + get_raw_output at :556, applied until the
    coarsest level). Level z's archive is ``<src base>_z{z}.zarr``.

    Per-level lineage + resume come from the step itself: every tile
    write appends a lineage record, and ``mode="continue"`` skips
    parents already recorded at that level — so a re-run (or a run
    resumed after a mid-chain failure) re-derives only the missing
    tiles of the incomplete level and reports 0 writes for finished
    ones. Consuming each step's Dataset (``count()``) is the write
    barrier level z+1 hands level z."""
    base = src_path.removesuffix(".zarr")
    results, src = [], src_path
    while (z := spec_from_archive(src).zoom - 1) >= min_zoom:
        dst = f"{base}_z{z}.zarr"
        n = run_pyramid_step(src, dst, how=how, mode=mode).count()
        results.append({"zoom": z, "tiles_written": int(n), "path": dst})
        src = dst
    return results
