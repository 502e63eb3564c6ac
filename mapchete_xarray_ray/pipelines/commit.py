"""The one tile-commit step every writer ends with.

The reference has a single output write (mapchete_xarray/_output.py:
353-390): one tile's tensor in, its chunks out. Here every writer —
the flagship's count rasterize, the process hook and the pyramid
step — only BUILDS the ``(bands, h, w)`` / ``(bands, T, h, w)``
tensor and hands it to :func:`finalize_tile`, which owns everything
that must mean the same thing in every lineage record: the chunk
write, its timing, the checksum, ``time_idxs``, ``cell_range``, the
record and the summary row.
"""

from __future__ import annotations

import time
import zlib

import numpy as np
import pyarrow as pa

from mapchete_xarray_ray.grid import cell_encode, pack_tile_id
from mapchete_xarray_ray.state.lineage import write_record

SUMMARY_COLUMNS = ("tile_id", "tile_row", "tile_col", "n_pages",
                   "chunks_written", "checksum")


def tile_checksum(tensor: np.ndarray) -> int:
    """crc32 over the tile tensor's C-order bytes: what a record's
    ``checksum`` means and what the audit re-derives."""
    return int(zlib.crc32(np.ascontiguousarray(tensor).tobytes()))


def finalize_tile(store, row: int, col: int, tensor: np.ndarray,
                  rows_in: int, timestamps=None, **extra) -> dict:
    """Write ``tensor`` into tile ``(row, col)`` of ``store``, then its
    lineage record (LAST, so a record implies complete chunks), and
    return the tile's summary row.

    On a time-axis archive ``timestamps`` labels the tensor's time
    slices (default: the full time coordinate). The write passes
    ``assume_fresh=True``: a tile reaching a writer has no valid record
    (fresh, torn or invalidated), so its existing chunk bytes are
    untrusted and get rebuilt from fill instead of merged. ``time_idxs``
    comes from the store's own mapping, so the audit re-reads exactly
    the written slices. ``write_ms`` times the store write only; a
    compute-skewed tile shows in ``rows_in``/``bytes`` instead.
    ``extra`` adds writer-specific record fields."""
    spec = store.spec
    row, col, rows_in = int(row), int(col), int(rows_in)
    w0 = time.perf_counter()
    if store.has_time:
        if timestamps is None:
            timestamps = spec.timestamps
        n_chunks = store.write_tile(row, col, tensor, timestamps=timestamps,
                                    assume_fresh=True)
    else:
        n_chunks = store.write_tile(row, col, tensor)
    write_ms = int((time.perf_counter() - w0) * 1000)
    cell = int(cell_encode(np.array([row]), np.array([col]),
                           spec.zoom).astype(np.int64)[0])
    rec = {
        "tile_id": int(pack_tile_id(spec.zoom, row, col)), "zoom": spec.zoom,
        "tile_row": row, "tile_col": col, "rows_in": rows_in,
        "chunks_written": n_chunks, "checksum": tile_checksum(tensor),
        "cell_range": [cell, cell],
        "metrics": {"write_ms": write_ms, "bytes": int(tensor.nbytes)},
        **extra,
    }
    if store.has_time:
        rec["time_idxs"] = store.time_indices(timestamps)
    write_record(spec.path, rec)
    return {"tile_id": rec["tile_id"], "tile_row": row, "tile_col": col,
            "n_pages": rows_in, "chunks_written": n_chunks,
            "checksum": rec["checksum"]}


def summary_table(rows: list[dict]) -> pa.Table:
    """Per-tile summary rows -> the writers' int64 output block."""
    return pa.table({k: pa.array([r[k] for r in rows], pa.int64())
                     for k in SUMMARY_COLUMNS})
