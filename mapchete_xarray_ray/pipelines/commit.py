"""The one tile-commit step every writer ends with.

The reference has a single output write (mapchete_xarray/_output.py:
353-390): one tile's tensor in, its chunks out. Here every writer —
the flagship's count rasterize and process hook, the store-roundtrip
count archives and the pyramid step — only BUILDS the
``(bands, h, w)`` / ``(bands, T, h, w)`` tensor and hands it to
:func:`finalize_tile`, which owns everything that must mean the same
thing in every lineage record: the chunk write, its timing, the
checksum, ``time_idxs``, ``cell_range``, the record and the summary
row. This module is the only caller of ``write_tile`` and
``write_record`` in the package (tests/test_commit.py pins that).

:func:`tile_writer` is the one shuffle-side writer: a ``map_groups``
fn over groups holding one or many whole tiles, which calls a
per-tile builder and commits what it returns.
"""

from __future__ import annotations

import time
import zlib

import numpy as np
import pyarrow as pa

from mapchete_xarray_ray.grid import cell_encode, pack_tile_id, unpack_tile_id
from mapchete_xarray_ray.nputil import segments
from mapchete_xarray_ray.sinks.zarr import ZarrTileStore
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


def tile_writer(spec, build):
    """``map_groups`` fn: segment a group by ``tile_id``
    (``nputil.segments``; a tile's rows must all be in one group, so
    concurrent writers never share a chunk) and, for each tile, call
    ``build(store, row, col, rows)``. It returns ``(tensor, timestamps,
    rows_in)`` — committed through :func:`finalize_tile` — or None to
    write nothing. One python dispatch per group, not per tile; a
    one-tile group (the flagship's ``groupby("tile_id")``) is not
    copied."""

    def fn(group: pa.Table) -> pa.Table:
        store = ZarrTileStore(spec)
        tid = group.column("tile_id").to_numpy(zero_copy_only=False)
        order, starts, ends = segments(tid)
        if len(starts) > 1:
            group = group.take(pa.array(order))
        out = []
        for st, en in zip(starts, ends):
            _zoom, row, col = (int(x) for x in unpack_tile_id(tid[order[st]]))
            built = build(store, row, col, group.slice(st, en - st))
            if built is not None:
                tensor, timestamps, rows_in = built
                out.append(finalize_tile(store, row, col, tensor, rows_in,
                                         timestamps))
        return summary_table(out)

    return fn
