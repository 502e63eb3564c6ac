"""Per-partition lineage records (north_rule requirement).

The reference's resume unit is "chunk file exists" (mapchete_xarray/
_output.py:299-328). At 100 TB that is necessary but not sufficient —
a task can die between writing band chunks. So every tile-partition
write ends with a lineage record written LAST (atomic rename). Every
writer commits through ``pipelines/commit.py:finalize_tile``, so every
record has one schema:

    {tile_id, zoom, tile_row, tile_col,
     rows_in,          # input rows after url dedup (0 for overviews)
     chunks_written,   # chunk files written: bands x time chunks
     checksum,         # crc32 of the written tile tensor
     cell_range,       # [first, last] cell id the tile covers
     metrics: {write_ms, bytes},  # store-write time, tensor bytes
     time_idxs,        # time-axis archives only: the written slices
     input_fragments}  # optional: source level (pyramid overviews)

A tile is *complete* iff its chunks exist AND its lineage record
exists; `completed_tiles()` is the resume filter. A chunk without a
record is a torn write from a killed run and gets recomputed
(idempotent: the rewrite replaces the same chunk bytes).

Records live under ``<archive>/_lineage/`` — one small JSON per tile,
so a restart lists one directory (one object-store LIST at scale)
instead of re-reading data.
"""

from __future__ import annotations

import json
import os

from mapchete_xarray_ray.sinks.zarr import (_delete_bytes, _get_bytes,
                                           _listdir, _put_json)


def lineage_dir(archive_path: str) -> str:
    return os.path.join(archive_path, "_lineage")


def record_path(archive_path: str, zoom: int, row: int, col: int) -> str:
    return os.path.join(lineage_dir(archive_path), f"{zoom}-{row}-{col}.json")


def write_record(archive_path: str, record: dict) -> None:
    """Write the per-tile lineage record (LAST step of a tile write)."""
    _put_json(
        record_path(archive_path, record["zoom"], record["tile_row"], record["tile_col"]),
        record,
    )


def read_records(archive_path: str) -> dict[tuple[int, int, int], dict]:
    out = {}
    d = lineage_dir(archive_path)
    for fn in _listdir(d):
        if not fn.endswith(".json"):
            continue
        buf = _get_bytes(os.path.join(d, fn))
        if buf is None:
            continue
        rec = json.loads(buf)
        out[(rec["zoom"], rec["tile_row"], rec["tile_col"])] = rec
    return out


def completed_tiles(store) -> set[int]:
    """tile_ids that are fully written: chunks present AND lineage record.

    ``store``: a ZarrTileStore. Driver-side, one listdir per band plus
    one for the lineage dir.
    """
    from mapchete_xarray_ray.grid import pack_tile_id

    recs = read_records(store.path)
    chunk_tiles = store.existing_tiles()
    done = set()
    for (zoom, row, col) in recs:
        if (row, col) in chunk_tiles:
            done.add(int(pack_tile_id(zoom, row, col)))
    return done


def invalidate_tiles(archive_path: str, tiles) -> int:
    """Drop the lineage records of ``tiles`` ((zoom, row, col) triples)
    so a continue-mode run re-derives exactly them — the write half of
    the incremental-recompute loop (``diff`` finds changed tiles,
    ``invalidate`` marks them stale, ``execute`` in continue mode
    recomputes only the marked set). Chunks are left in place: a tile
    without a record is by definition torn/stale (module docstring) and
    the recompute overwrites the same chunk bytes idempotently.
    Returns the number of records actually removed."""
    n = 0
    existing = read_records(archive_path)
    for zoom, row, col in tiles:
        key = (int(zoom), int(row), int(col))
        if key in existing:
            _delete_bytes(record_path(archive_path, *key))
            n += 1
    return n
