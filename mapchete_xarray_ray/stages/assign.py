"""Tile / cell assignment stages (the engine's central kernel).

Reference semantics: deterministic (zoom, row, col) assignment of a
point to the tile grid — the vectorized generalization of
``_zarr_chunk_from_xy`` (mapchete_xarray/_output.py:281-297), which
floor-divides offsets from the snapped-region origin by the tile span.
Here the points are geocoded web pages (BASELINE.json north_star);
the kernel runs inside ``map_batches(batch_format="pyarrow")`` over
zero-copy Arrow batches and appends int64 columns:

``tile_row, tile_col, tile_id`` (packed zoom<<58|row<<29|col) and
``cell_id`` (Morton cell at ``cell_zoom``, the S2-like shuffle key).

Two geocode modes:
- ``assign_pages_fn`` — url-hash geocode into the snapped process
  region (pages pipelines; oracle = same kernel run sequentially).
- ``assign_doc_ids_fn`` — integer-arithmetic geocode of ``doc_id``
  onto the global grid; every step is int64-exact and expressible in
  ANSI SQL, which the DuckDB correctness oracle exploits.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from mapchete_xarray_ray.functions.geocode import geocode_doc_id, geocode_url, pixel_to_lonlat
from mapchete_xarray_ray.grid import Bounds, TilePyramid, cell_encode, pack_tile_id


def _append(batch: pa.Table, **cols) -> pa.Table:
    for name, arr in cols.items():
        batch = batch.append_column(name, pa.array(arr))
    return batch


def assign_pages_fn(bounds: Bounds, zoom: int, grid: str = "geodetic",
                    cell_zoom: int | None = None,
                    pyramid: TilePyramid | None = None):
    """Factory -> map_batches fn adding lon/lat + tile/cell columns from
    ``url``. Pass the job's pyramid when it uses metatiling != 1 — tile
    indices must come from the SAME matrix the sink chunks by."""
    pyramid = pyramid or TilePyramid(grid)
    cz = cell_zoom if cell_zoom is not None else zoom

    def fn(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_numpy(zero_copy_only=False)
        lon, lat = geocode_url(urls, bounds, zoom, pyramid)
        row, col = pyramid.point_to_tile(lon, lat, zoom)
        crow, ccol = pyramid.point_to_tile(lon, lat, cz)
        return _append(
            batch,
            lon=lon, lat=lat,
            tile_row=row, tile_col=col,
            tile_id=pack_tile_id(zoom, row, col),
            cell_id=cell_encode(crow, ccol, cz).astype(np.int64),
        )

    return fn


def assign_doc_ids_fn(zoom: int, grid: str = "geodetic", with_lonlat: bool = False):
    """Factory -> map_batches fn: int64-exact assignment from ``doc_id``.

    SQL mirror (geodetic z, tile 256)::

        px       = (doc_id * 2654435761) % (2**(z+1)*256)
        py       = (doc_id * 40503)      % (2**z*256)
        tile_col = px // 256 ; tile_row = py // 256
        tile_id  = (z::BIGINT << 58) | (tile_row::BIGINT << 29) | tile_col
    """
    pyramid = TilePyramid(grid)

    def fn(batch: pa.Table) -> pa.Table:
        doc_id = batch.column("doc_id").to_numpy(zero_copy_only=False)
        px, py = geocode_doc_id(doc_id, zoom, pyramid)
        row = py // pyramid.tile_size
        col = px // pyramid.tile_size
        out = _append(
            batch,
            px=px, py=py, tile_row=row, tile_col=col,
            tile_id=pack_tile_id(zoom, row, col),
            cell_id=cell_encode(row, col, zoom).astype(np.int64),
        )
        if with_lonlat:
            lon, lat = pixel_to_lonlat(px, py, zoom, pyramid)
            out = _append(out, lon=lon, lat=lat)
        return out

    return fn
