"""Cross-generation archive diff — the incremental-recompute primitive.

A 100 TB daily pipeline re-derives ONLY the tiles whose inputs changed;
deciding *which* tiles changed must itself be distributed and exact.
This module byte-compares two archive generations tile by tile:

- work list = UNION of both archives' chunk listings (two LISTs, no
  data reads at the driver);
- each task reads its tile from BOTH stores (a chunk missing in either
  generation reads back as fill — reference test_driver.py:39-46
  semantics — so creations and deletions surface as "changed");
- comparison is RAW-BYTE equality (``tobytes()``), not checksum
  equality and not ``np.array_equal``: lineage crc32 is the resume
  hint, but a diff that gates recompute cannot accept hash-collision
  false-negatives — and array_equal treats NaN != NaN, which would
  report every NaN-bearing float tile as changed forever.

Scale shape: no shuffle at all — the tile grid is the partitioning,
each task's read set is disjoint, and the output is one tiny row per
tile.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from mapchete_xarray_ray.grid import pack_tile_id
from mapchete_xarray_ray.sinks.zarr import ChunkDecodeError, ZarrTileStore
from mapchete_xarray_ray.sources.zarr_input import map_tiles, spec_from_archive


def archive_diff_ds(cur_path: str, old_path: str) -> ray.data.Dataset:
    """Dataset of (tile_id, tile_row, tile_col, changed) over the union
    of both archives' written tiles. Archives must share grid/zoom/
    bands (different zooms are different pyramids — diff per level)."""
    cur_spec = spec_from_archive(cur_path)
    old_spec = spec_from_archive(old_path)
    # time and nodata are part of the compare contract too: a time-axis
    # mismatch changes the grid SHAPE (every tile would byte-differ),
    # and nodata drives the missing-chunk fill read-back
    for attr in ("zoom", "grid", "tile_size", "metatiling", "band_names",
                 "dtype", "time", "nodata"):
        if getattr(cur_spec, attr) != getattr(old_spec, attr):
            raise ValueError(
                f"archives incompatible for diff: {attr} "
                f"{getattr(cur_spec, attr)!r} != {getattr(old_spec, attr)!r}")
    tiles = sorted(ZarrTileStore(cur_spec).existing_tiles()
                   | ZarrTileStore(old_spec).existing_tiles())
    zoom = cur_spec.zoom

    def diff_tiles(rows: list[int], cols: list[int]) -> pa.Table:
        cur, old = ZarrTileStore(cur_spec), ZarrTileStore(old_spec)

        def read_bytes(store, r, c):
            # an undecodable chunk (truncated write, bit rot) is BY
            # DEFINITION divergent — surface it as changed so the
            # refresh loop repairs it, instead of killing the whole
            # diff on one corrupt object. ONLY decode errors, though:
            # a transient I/O error (object-store timeout/throttle)
            # must propagate so Ray retries the task, not be reported
            # as divergence that would invalidate and rewrite a healthy
            # tile.
            try:
                return np.ascontiguousarray(store.read_tile(r, c)).tobytes()
            except ChunkDecodeError:
                return None

        tid, chg = [], []
        for r, c in zip(rows, cols):
            a = read_bytes(cur, r, c)
            b = read_bytes(old, r, c)
            tid.append(int(pack_tile_id(zoom, r, c)))
            # raw bytes, not np.array_equal: NaN != NaN would mark
            # byte-identical float tiles changed (shape/dtype already
            # match via the spec guard)
            chg.append(0 if (a is not None and b is not None and a == b)
                       else 1)
        return pa.table({"tile_id": pa.array(tid, pa.int64()),
                         "tile_row": pa.array(rows, pa.int64()),
                         "tile_col": pa.array(cols, pa.int64()),
                         "changed": pa.array(chg, pa.int64())})

    return map_tiles(tiles, diff_tiles)


def refresh_archive(pages: ray.data.Dataset, cur_path: str, prev_path: str,
                    process_fn=None) -> dict:
    """The incremental-recompute loop as ONE composed pipeline:

        archive_diff(cur, prev) -> invalidate_tiles(cur, changed)
        -> continue-mode run_pipeline(pages, spec(cur))

    ``cur`` is refreshed IN PLACE from ``pages``; ``prev`` is the
    trusted previous generation. Tiles whose bytes are identical
    across the two generations keep their chunks AND lineage records,
    so the continue-mode pass drops their rows before the shuffle and
    never touches their files (the reference's tile-exists semantics,
    tests/test_driver.py:107-118, across generations). Tiles that
    diverged lose exactly their lineage record and are re-derived from
    ``pages`` (idempotent: the rewrite replaces the same chunk paths
    via temp+rename).

    Scale shape: the diff is shuffle-free (tile grid = partitioning),
    invalidation is |changed| tiny deletes from the driver, and the
    recompute pays a url-only assign scan over ``pages``; html-to-text
    extraction and the shuffle see ONLY the rows landing in stale
    tiles (complete tiles are filtered right after assign).

    A changed tile with NO rows in ``pages`` stays invalidated (chunks
    present, record absent — the torn-write state, recomputed by the
    next run that has input for it); the summary reports these under
    ``stale_uncovered``.
    """
    import pyarrow.compute as pc

    from mapchete_xarray_ray.collect import collect_table
    from mapchete_xarray_ray.pipelines.flagship import run_pipeline
    from mapchete_xarray_ray.state.lineage import invalidate_tiles

    spec = spec_from_archive(cur_path)
    tbl = collect_table(archive_diff_ds(cur_path, prev_path))
    if tbl.num_rows:
        chg = tbl.filter(pc.equal(tbl.column("changed"), 1))
        pairs = sorted(zip(chg.column("tile_row").to_pylist(),
                           chg.column("tile_col").to_pylist()))
    else:
        pairs = []
    invalidated = invalidate_tiles(
        cur_path, [(spec.zoom, r, c) for r, c in pairs])
    summary = collect_table(
        run_pipeline(pages, spec, mode="continue", process_fn=process_fn))
    if summary.num_rows:
        recomputed = sorted(zip(summary.column("tile_row").to_pylist(),
                                summary.column("tile_col").to_pylist()))
    else:
        recomputed = []
    return {
        "tiles_compared": int(tbl.num_rows),
        "tiles_changed": len(pairs),
        "invalidated": invalidated,
        "tiles_recomputed": len(recomputed),
        "changed": [[int(r), int(c)] for r, c in pairs],
        "recomputed": [[int(r), int(c)] for r, c in recomputed],
        "stale_uncovered": [[int(r), int(c)] for r, c in pairs
                            if (r, c) not in set(recomputed)],
    }
