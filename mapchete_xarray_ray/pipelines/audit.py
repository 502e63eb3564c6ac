"""Lineage audit — detect silent chunk corruption the resume probe
cannot see.

Continue mode trusts "chunks exist AND lineage record exists"
(state/lineage.py). That existence check is blind to bit rot, torn
multi-band writes that happened to leave a record, or an operator
truncating a chunk file in place. The audit closes that gap: each tile
is RE-READ and its crc32 re-derived from the actual chunk bytes, then
compared to the checksum the writer recorded at write time
(``pipelines/commit.py:finalize_tile``, the one commit step of every
writer).

Per-tile verdicts:

- ``ok``                — re-derived crc matches the record;
- ``checksum_mismatch`` — chunks decode but the data moved under the
  record (bit rot / foreign overwrite): the tile needs invalidate +
  recompute;
- ``unreadable``        — a chunk fails to decode at all (truncated or
  garbage object);
- ``missing_record``    — chunks exist with no lineage record (the
  classic torn write; continue mode already recomputes these);
- ``missing_chunks``    — a record exists but its chunk files are gone
  (external deletion; continue mode would SKIP this tile forever, so
  the audit is the only thing that catches it);
- ``legacy_unverifiable`` — time-axis archive, record predates
  ``time_idxs``, and the full-range crc does not match. The writer may
  have covered only a subset of the time coordinate (the bundled
  narrow path records its checksum over exactly the written slices),
  so a full-range mismatch is NOT evidence of corruption — the record
  simply cannot be re-derived. Distinct from ``checksum_mismatch`` so
  operators are not told to recompute healthy tiles. To make such a
  tile verifiable, invalidate it and recompute it (``cli refresh``, or
  ``cli invalidate`` + ``execute``): the rewrite commits a record with
  ``time_idxs``, which every later audit re-derives exactly.

Scale shape: same as the diff — no shuffle, the tile grid is the
partitioning, each task re-reads a disjoint tile set and emits one
tiny row. The record map is one driver-side LIST + reads of
per-tile JSONs, broadcast once via ``ray.put``. Time-axis archives
re-read exactly the written slices (the record's ``time_idxs``); a
legacy record without them falls back to the full time range, which
verifies ``ok`` when the writer covered every coordinate (the bundled
process path) and otherwise reports ``legacy_unverifiable``.
"""

from __future__ import annotations

import pyarrow as pa
import ray

from mapchete_xarray_ray.grid import pack_tile_id
from mapchete_xarray_ray.pipelines.commit import tile_checksum
from mapchete_xarray_ray.sinks.zarr import ChunkDecodeError, ZarrTileStore
from mapchete_xarray_ray.sources.zarr_input import map_tiles, spec_from_archive
from mapchete_xarray_ray.state.lineage import read_records


def audit_archive_ds(path: str) -> ray.data.Dataset:
    """Dataset of (tile_id, tile_row, tile_col, status) over the union
    of recorded and chunk-present tiles."""
    spec = spec_from_archive(path)
    store = ZarrTileStore(spec)
    records = read_records(path)
    chunk_tiles = store.existing_tiles()
    keyed = {(r, c): rec for (_z, r, c), rec in records.items()}
    tiles = sorted(set(keyed) | chunk_tiles)
    # the broadcast carries only what the audit needs, one small tuple
    # per tile, not the full metrics payload
    rec_ref = ray.put({
        rc: (rec["checksum"], rec.get("time_idxs"))
        for rc, rec in keyed.items()})
    present_ref = ray.put(chunk_tiles)
    zoom = spec.zoom

    def audit_tiles(rows: list[int], cols: list[int]) -> pa.Table:
        st = ZarrTileStore(spec)
        recs = ray.get(rec_ref)
        present = ray.get(present_ref)
        tid, status = [], []
        for r, c in zip(rows, cols):
            tid.append(int(pack_tile_id(zoom, r, c)))
            rec = recs.get((r, c))
            if rec is None:
                status.append("missing_record")
                continue
            if (r, c) not in present:
                status.append("missing_chunks")
                continue
            checksum, time_idxs = rec
            # only DECODE errors mean "unreadable" (truncated write,
            # bit rot); a transient I/O error (object-store timeout /
            # throttle) must propagate so Ray retries the task — a
            # healthy tile must never be reported as corrupt over one
            # throttled GET (same split as pipelines/diff.py)
            try:
                arr = st.read_tile(r, c, time_idxs=time_idxs)
            except ChunkDecodeError:
                status.append("unreadable")
                continue
            if tile_checksum(arr) == int(checksum):
                status.append("ok")
            elif time_idxs is None and st.has_time:
                # record predates time_idxs: its checksum may cover only
                # the written slices, which the full-range read cannot
                # reconstruct — inconclusive, not corruption
                status.append("legacy_unverifiable")
            else:
                status.append("checksum_mismatch")
        return pa.table({
            "tile_id": pa.array(tid, pa.int64()),
            "tile_row": pa.array(rows, pa.int64()),
            "tile_col": pa.array(cols, pa.int64()),
            "status": pa.array(status, pa.string()),
        })

    return map_tiles(tiles, audit_tiles)


def audit_summary(path: str) -> dict:
    """Driver-facing audit roll-up: per-status counts plus the
    (row, col) list of every non-ok tile — sized by the damage, not the
    archive."""
    import pyarrow.compute as pc

    from mapchete_xarray_ray.collect import collect_table

    tbl = collect_table(audit_archive_ds(path))
    if tbl.num_rows == 0:
        return {"tiles": 0, "counts": {}, "bad": [], "ok": True}
    statuses = tbl.column("status").to_pylist()
    counts: dict[str, int] = {}
    for s in statuses:
        counts[s] = counts.get(s, 0) + 1
    bad_tbl = tbl.filter(pc.not_equal(tbl.column("status"), "ok"))
    bad = sorted(
        [int(r), int(c), s] for r, c, s in zip(
            bad_tbl.column("tile_row").to_pylist(),
            bad_tbl.column("tile_col").to_pylist(),
            bad_tbl.column("status").to_pylist()))
    return {"tiles": tbl.num_rows, "counts": counts, "bad": bad,
            "ok": not bad}
