"""Raster<->vector: per-tile rasterization of page points (A4).

Given one tile's pages (all rows of one ``tile_id`` group), produce the
tile tensor ``(bands, h, w)`` (or ``(bands, T, h, w)`` with a time
axis): per-pixel counts accumulated with ``np.add.at``. The inverse
direction (raster -> vector) is ``tile_to_points`` which emits one row
per non-fill pixel.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from mapchete_xarray_ray.grid import TilePyramid
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


def rasterize_counts(group: pa.Table, spec: JobSpec,
                     band_masks: list[np.ndarray | None]) -> np.ndarray:
    """Count grids: band b counts rows where band_masks[b] (None = all).

    Returns (bands, h, w) in the spec dtype, nodata-initialized at 0
    then accumulated — counts are clipped to the dtype's max so uint8
    jobs don't wrap.
    """
    h = w = spec.chunk_px
    lon = group.column("lon").to_numpy(zero_copy_only=False)
    lat = group.column("lat").to_numpy(zero_copy_only=False)
    tr = int(group.column("tile_row")[0].as_py())
    tc = int(group.column("tile_col")[0].as_py())
    iy, ix = local_pixel_indices(lon, lat, tr, tc, spec)
    out = np.zeros((len(band_masks), h, w), dtype=np.int64)
    for b, mask in enumerate(band_masks):
        if mask is None:
            np.add.at(out[b], (iy, ix), 1)
        else:
            np.add.at(out[b], (iy[mask], ix[mask]), 1)
    info = np.iinfo(np.dtype(spec.dtype))
    return out.clip(info.min, info.max).astype(spec.dtype)


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
