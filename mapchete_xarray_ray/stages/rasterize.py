"""Raster<->vector: per-tile rasterization of page points (A4).

Given one tile's rows, produce the tile tensor ``(bands, h, w)`` (or
``(bands, T, h, w)`` with a time axis) of per-pixel counts.
:func:`count_tensor` is the one count kernel: the flagship writer, the
store roundtrips, the process hooks (via :func:`rasterize_counts`) and
``q_rasterize_roundtrip`` all call it. The inverse direction (raster ->
vector) is ``tile_to_points`` which emits one row per non-fill pixel.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from mapchete_xarray_ray.grid import TilePyramid
from mapchete_xarray_ray.nputil import group_sum
from mapchete_xarray_ray.spec import JobSpec


def local_pixel_indices(lon, lat, tile_row, tile_col, spec: JobSpec):
    """Vectorized (lon, lat) -> (iy, ix) inside the tile's pixel grid.

    Same affine as the reference's ``_bounds_to_ranges``
    (_output.py:202-205): offset from tile's top-left / pixel size,
    truncated, clipped to the tile."""
    pyr: TilePyramid = spec.pyramid
    z = spec.zoom
    tb_left = pyr.left + tile_col * pyr.tile_x_size(z)
    tb_top = pyr.top - tile_row * pyr.tile_y_size(z)
    sx, sy = pyr.pixel_x_size(z), pyr.pixel_y_size(z)
    ix = np.floor((np.asarray(lon) - tb_left) / sx).astype(np.int64)
    iy = np.floor((tb_top - np.asarray(lat)) / sy).astype(np.int64)
    np.clip(ix, 0, spec.chunk_px - 1, out=ix)
    np.clip(iy, 0, spec.chunk_px - 1, out=iy)
    return iy, ix


def count_tensor(pix: np.ndarray, tidx: np.ndarray, weights, chunk_px: int,
                 dtype):
    """Per-pixel sums of ``weights`` (one int array per band) over rows
    at flat in-tile pixel ``pix`` (``iy * chunk_px + ix``) and time
    slice ``tidx``. Returns ``(tensor, present)``: ``tensor`` is
    ``(bands, len(present), chunk_px, chunk_px)`` in ``dtype`` over the
    ascending distinct slices ``present`` of ``tidx``. Sums sparse, then
    scatters: only touched pixels are ever clipped to ``dtype``'s range,
    so uint8 jobs don't wrap."""
    n = chunk_px * chunk_px
    present, tpos = np.unique(tidx, return_inverse=True)
    key, *sums = group_sum(tpos * n + pix, *weights)
    info = np.iinfo(np.dtype(dtype))
    tensor = np.zeros((len(weights), len(present) * n), dtype=dtype)
    tensor[:, key] = np.clip(sums, info.min, info.max)
    return tensor.reshape(len(weights), len(present), chunk_px, chunk_px), present


def rasterize_counts(group: pa.Table, spec: JobSpec,
                     band_masks: list[np.ndarray | None]) -> np.ndarray:
    """Count grids of one tile's (lon, lat) rows: band b counts rows
    where band_masks[b] (None = all). Returns (bands, h, w) in the spec
    dtype, 0 where no row lands, clipped to the dtype's range."""
    iy, ix = local_pixel_indices(
        group.column("lon").to_numpy(zero_copy_only=False),
        group.column("lat").to_numpy(zero_copy_only=False),
        int(group.column("tile_row")[0].as_py()),
        int(group.column("tile_col")[0].as_py()), spec)
    ones = np.ones(group.num_rows, dtype=np.int64)
    weights = [ones if m is None else np.asarray(m, dtype=np.int64)
               for m in band_masks]
    tensor, _ = count_tensor(iy * spec.chunk_px + ix,
                             np.zeros(group.num_rows, dtype=np.int64),
                             weights, spec.chunk_px, spec.dtype)
    return tensor[:, 0]


def tile_to_points(tile_tensor: np.ndarray, tile_row: int, tile_col: int,
                   spec: JobSpec, band: int = 0) -> pa.Table:
    """Raster -> vector: one row per non-nodata pixel of ``band`` with
    pixel-center lon/lat and the value (the reverse mapping of
    rasterize; vectorized with np.nonzero)."""
    pyr = spec.pyramid
    z = spec.zoom
    arr = tile_tensor[band]
    iy, ix = np.nonzero(arr != spec.nodata)
    sx, sy = pyr.pixel_x_size(z), pyr.pixel_y_size(z)
    tb_left = pyr.left + tile_col * pyr.tile_x_size(z)
    tb_top = pyr.top - tile_row * pyr.tile_y_size(z)
    return pa.table({
        "lon": pa.array(tb_left + (ix + 0.5) * sx),
        "lat": pa.array(tb_top - (iy + 0.5) * sy),
        "iy": pa.array(iy.astype(np.int64)),
        "ix": pa.array(ix.astype(np.int64)),
        "value": pa.array(arr[iy, ix].astype(np.int64)),
    })
