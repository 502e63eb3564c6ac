"""kNN join (J5): k-ring candidate gather + exact refinement.

Semantics: for every point, the k nearest OTHER points by squared
planar distance ``dx^2 + dy^2``, ties broken by neighbor id ascending —
row-exact vs a brute-force oracle (SQL ``row_number() over (partition
by id order by dist2, neighbor_id)``).

Distributed shape (SURVEY.md J5, the classic replicate-and-partition
spatial join of the MapReduce spatial-join literature — cf. "Processing
multi-way spatial joins on map-reduce", EDBT 2013):

- candidates: every point lands in exactly ONE cell group (its home
  cell — the same Morton/tile grid the sink partitions by).
- queries: replicated to every cell within Chebyshev radius R of their
  home cell (R=1 first; only the NEW shell cells in later rounds).
- ``groupby(cell).map_groups``: per cell, top-k of each query copy vs
  the cell's candidates (vectorized distance matrix).
- ``groupby(id).map_groups``: merge partial top-k lists across a
  query's cells with the running best-so-far, emit ``resolved`` =
  (count >= k) AND (kth dist2 < (R * cell_span)^2) — the geometric
  guarantee that no unseen cell can hold a closer neighbor.
- unresolved queries loop with doubled R (cell-edge points, sparse
  neighborhoods); terminates at grid extent. Each round ships only the
  new shell, so total replication is O(cells visited), not O(R^2) per
  round.

Scale notes: the shuffle key is the flat cell index (one int64);
queries/candidates carry only (id, x, y) — the wide payload never
enters the join. The unresolved-query filter is adaptive: below
``broadcast_limit`` unresolved rows the unique ids (8 B/id) are
broadcast via ``ray.put`` and filtered with one np.isin per batch;
above it the filter becomes a bucketed hash co-group semi-join
(:func:`_semi_join_ids`) with nothing broadcast.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from mapchete_xarray_ray.collect import collect_table
from mapchete_xarray_ray.nputil import topk_per_id
from mapchete_xarray_ray.scale import nblocks_for_cluster


def _shell_offsets(lo: int, hi: int):
    """Offsets with lo < Chebyshev distance <= hi (lo=0 includes home)."""
    offs = np.arange(-hi, hi + 1, dtype=np.int64)
    dr, dc = np.meshgrid(offs, offs, indexing="ij")
    dr, dc = dr.ravel(), dc.ravel()
    cheb = np.maximum(np.abs(dr), np.abs(dc))
    keep = (cheb > lo) & (cheb <= hi)
    if lo == 0:
        keep |= cheb == 0
    return dr[keep], dc[keep]


_SALT_MULT = 64  # cap on segments per hot cell; also the fixed grp multiplier


def _replicate(ncols: int, nrows: int, lo: int, hi: int, as_query: bool,
               salt=None):
    """Replicate rows to the cells of the (lo, hi] Chebyshev shell.

    ``salt``: None, or a ``ray.put`` ref to ``(cells_sorted, s_per_cell)``
    — the A5 hot-cell split. A hot cell's CANDIDATES are partitioned
    into ``s`` disjoint segments by id hash; its QUERIES are replicated
    to all ``s`` segments, so every (query, candidate) pair still meets
    exactly once and the per-task distance matrix is bounded by the
    segment size instead of the cell size. The group key becomes
    ``grp * _SALT_MULT + seg`` (seg=0 everywhere when salt is None, so
    salted and unsalted plans shuffle the same key space shape)."""
    dr, dc = _shell_offsets(lo, hi)

    def fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        crow = batch.column("crow").to_numpy(zero_copy_only=False)
        ccol = batch.column("ccol").to_numpy(zero_copy_only=False)
        rows = crow[:, None] + dr[None, :]
        cols = ccol[:, None] + dc[None, :]
        valid = (rows >= 0) & (rows < nrows) & (cols >= 0) & (cols < ncols)
        idx = np.broadcast_to(np.arange(n)[:, None], rows.shape)[valid]
        grp = rows[valid] * ncols + cols[valid]
        if salt is None:
            grp_out, idx_out = grp * _SALT_MULT, idx
        else:
            cells, svals = ray.get(salt)
            s = np.ones(len(grp), dtype=np.int64)
            if len(cells):
                pos = np.minimum(np.searchsorted(cells, grp), len(cells) - 1)
                hit = cells[pos] == grp
                s[hit] = svals[pos[hit]]
            if as_query:
                # one copy per segment of each target cell
                rep = np.repeat(np.arange(len(grp)), s)
                starts = np.cumsum(s) - s
                seg = np.arange(int(s.sum())) - np.repeat(starts, s)
                grp_out, idx_out = grp[rep] * _SALT_MULT + seg, idx[rep]
            else:
                # candidates partition disjointly by id hash
                ids = batch.column("id").to_numpy(
                    zero_copy_only=False)[idx].astype(np.uint64)
                seg = ((ids * np.uint64(2654435761))
                       % s.astype(np.uint64)).astype(np.int64)
                grp_out, idx_out = grp * _SALT_MULT + seg, idx
        return pa.table({
            "id": batch.column("id").take(pa.array(idx_out)),
            "x": batch.column("x").take(pa.array(idx_out)),
            "y": batch.column("y").take(pa.array(idx_out)),
            "grp": pa.array(grp_out),
            "is_query": pa.array(np.full(len(grp_out), as_query)),
        })

    return fn


def _cell_topk(k: int, max_elems: int = 8_000_000):
    """Per-cell(-segment): top-k of each query copy vs the group's
    candidates. The (Q, C) float64 distance matrix is built in QUERY
    CHUNKS of at most ``max_elems`` elements (64 MB), so one task's
    peak memory is bounded no matter how many query copies land in a
    group — the salting in :func:`knn_pipeline` bounds C; this bounds
    Q x C. Chunking changes nothing semantically: each query row's
    top-k is independent.

    Per-chunk temporaries, each (Q_chunk, C): the float64 ``d2``, and
    inside :func:`~mapchete_xarray_ray.stages.ann.rowwise_topk` the
    self-match mask (bool), the masked key copy (float64), its
    ``np.partition`` copy (float64) and the survivor mask (bool). The
    survivors — about k per row plus ties — are the only entries sorted."""

    def fn(group: pa.Table) -> pa.Table:
        from mapchete_xarray_ray.stages.ann import rowwise_topk

        isq = group.column("is_query").to_numpy(zero_copy_only=False)
        ids = group.column("id").to_numpy(zero_copy_only=False)
        xs = group.column("x").to_numpy(zero_copy_only=False)
        ys = group.column("y").to_numpy(zero_copy_only=False)
        cid, cx, cy = ids[~isq], xs[~isq], ys[~isq]
        qid, qx, qy = ids[isq], xs[isq], ys[isq]
        out_q, out_c, out_d = [], [], []
        step = max(1, max_elems // max(len(cid), 1))
        for s in range(0, len(qid), step):
            e = s + step
            # same float64 expression per pair as the scalar oracle
            d2 = ((qx[s:e, None] - cx[None, :]) ** 2
                  + (qy[s:e, None] - cy[None, :]) ** 2)
            q_sel, c_sel, _rank = rowwise_topk(d2, qid[s:e], cid, k)
            out_q.append(qid[s:e][q_sel])
            out_c.append(cid[c_sel])
            out_d.append(d2[q_sel, c_sel])
        cat = (lambda parts, dt: np.concatenate(parts) if parts
               else np.empty(0, dtype=dt))
        return pa.table({
            "id": pa.array(cat(out_q, np.int64), pa.int64()),
            "neighbor_id": pa.array(cat(out_c, np.int64), pa.int64()),
            "dist2": pa.array(cat(out_d, np.float64), pa.float64()),
        })

    return fn


_MERGE_BUCKETS = 64


def _merge_topk(k: int, guaranteed_d2: float, need: int):
    """Merge partial candidate lists to per-query global top-k + resolved
    flag. Runs per ID BUCKET (id % 64), fully vectorized inside the
    bucket — one python call per bucket, not per query."""

    def fn(group: pa.Table) -> pa.Table:
        ids = group.column("id").to_numpy(zero_copy_only=False)
        nbs = group.column("neighbor_id").to_numpy(zero_copy_only=False)
        d2s = group.column("dist2").to_numpy(zero_copy_only=False)
        # a duplicate (id, neighbor) row keeps one copy (d2 per pair is
        # deterministic, so any copy is fine)
        sel, rank = topk_per_id(ids, nbs, d2s, k)
        ids, nbs, d2s = ids[sel], nbs[sel], d2s[sel]
        # resolution per id: count kept >= need AND kth d2 < guarantee
        starts = np.flatnonzero(rank == 1)
        counts = np.diff(np.append(starts, len(ids)))
        last_d2 = d2s[starts + counts - 1]
        res_per_id = (counts >= need) & (last_d2 < guaranteed_d2)
        resolved = np.repeat(res_per_id, counts)
        return pa.table({
            "id": pa.array(ids, pa.int64()),
            "neighbor_id": pa.array(nbs, pa.int64()),
            "rank": pa.array(rank, pa.int64()),
            "dist2": pa.array(d2s, pa.float64()),
            "resolved": pa.array(resolved),
        })

    return fn


KNN_BROADCAST_LIMIT = 2_000_000


def _semi_join_ids(pts: ray.data.Dataset,
                   id_rows: ray.data.Dataset) -> ray.data.Dataset:
    """pts (id, x, y, crow, ccol) SEMI-JOIN id_rows (any schema with an
    ``id`` column) by id-hash bucket co-group — the no-broadcast path
    for corpus-scale unresolved sets. Keys and points meet inside their
    bucket; the membership test is a bucket-local np.isin."""

    def tag_pts(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").to_numpy(zero_copy_only=False)
        return pa.table({
            "id": batch.column("id").cast(pa.int64()),
            "x": batch.column("x"), "y": batch.column("y"),
            "crow": batch.column("crow"), "ccol": batch.column("ccol"),
            "is_key": pa.array(np.zeros(len(ids), dtype=bool)),
            "jb": pa.array((ids % 64).astype(np.int64)),
        })

    def tag_keys(batch: pa.Table) -> pa.Table:
        ids = np.unique(batch.column("id").to_numpy(zero_copy_only=False))
        z = np.zeros(len(ids))
        return pa.table({
            "id": pa.array(ids, pa.int64()),
            "x": pa.array(z), "y": pa.array(z),
            "crow": pa.array(np.zeros(len(ids), dtype=np.int64)),
            "ccol": pa.array(np.zeros(len(ids), dtype=np.int64)),
            "is_key": pa.array(np.ones(len(ids), dtype=bool)),
            "jb": pa.array((ids % 64).astype(np.int64)),
        })

    def semi(group: pa.Table) -> pa.Table:
        isk = group.column("is_key").to_numpy(zero_copy_only=False)
        ids = group.column("id").to_numpy(zero_copy_only=False)
        keys = np.unique(ids[isk])
        keep = ~isk & np.isin(ids, keys)
        return group.filter(pa.array(keep)).drop_columns(["is_key", "jb"])

    return (pts.map_batches(tag_pts, batch_format="pyarrow")
            .union(id_rows.map_batches(tag_keys, batch_format="pyarrow"))
            .repartition(nblocks_for_cluster())
            .groupby("jb")
            .map_groups(semi, batch_format="pyarrow"))


def knn_pipeline(points: ray.data.Dataset, k: int, cell_span: float,
                 ncols: int, nrows: int, origin_x: float = 0.0,
                 origin_y: float = 0.0, max_rounds: int = 16,
                 broadcast_limit: int = KNN_BROADCAST_LIMIT,
                 hot_cell_limit: int = 16_384) -> ray.data.Dataset:
    """Exact kNN over a Dataset with columns (id:int64, x, y:float64).

    Returns a Dataset (id, neighbor_id, rank, dist2). The cell grid is
    ``nrows x ncols`` cells of edge ``cell_span`` anchored at
    (origin_x, origin_y), y growing DOWN (pixel/tile row order).

    Skew (A5, the hot-cell pre-count): a cell holding more than
    ``hot_cell_limit`` points would otherwise compute its quadratic
    distance matrix in ONE straggler task. The pre-count is a
    per-batch partial -> small groupby (rows = occupied cells) ->
    driver fold; hot cells split their candidates into
    ``ceil(count / hot_cell_limit)`` (capped at ``_SALT_MULT``)
    id-hash segments, and queries targeting a hot cell replicate to
    every segment. Output is row-identical to the unsalted plan
    (asserted in tests/test_skew.py): segments partition the cell's
    candidates disjointly, so the per-id merge sees each pair once.
    """

    def add_cells(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        ccol = np.clip(((x - origin_x) // cell_span).astype(np.int64), 0, ncols - 1)
        crow = np.clip(((y - origin_y) // cell_span).astype(np.int64), 0, nrows - 1)
        return (batch.append_column("crow", pa.array(crow))
                     .append_column("ccol", pa.array(ccol)))

    pts = points.map_batches(add_cells, batch_format="pyarrow").materialize()
    n_total = pts.count()
    need = min(k, max(n_total - 1, 0))

    # A5 hot-cell pre-count over the materialized narrow projection
    def cell_counts(batch: pa.Table) -> pa.Table:
        g = (batch.column("crow").to_numpy(zero_copy_only=False) * ncols
             + batch.column("ccol").to_numpy(zero_copy_only=False))
        uniq, cnt = np.unique(g, return_counts=True)
        return pa.table({"grp": pa.array(uniq.astype(np.int64)),
                         "n": pa.array(cnt.astype(np.int64))})

    counts = collect_table(pts.map_batches(cell_counts, batch_format="pyarrow")
                           .groupby("grp").sum("n"))
    salt = None
    if counts.num_rows:
        g = counts.column("grp").to_numpy(zero_copy_only=False)
        n = counts.column("sum(n)").to_numpy(zero_copy_only=False)
        m = n > hot_cell_limit
        if m.any():
            order = np.argsort(g[m])
            salt = ray.put((
                g[m][order].astype(np.int64),
                np.minimum((n[m] + hot_cell_limit - 1) // hot_cell_limit,
                           _SALT_MULT)[order].astype(np.int64)))

    # lazy: in the common case the loop runs ONE round, so materializing
    # the candidate layout would cost an extra execution for nothing; a
    # second round recomputes it from the (materialized) pts — cheap
    cand = pts.map_batches(
        _replicate(ncols, nrows, 0, 0, as_query=False, salt=salt),
        batch_format="pyarrow")

    finals = []
    unresolved = pts
    prev_r, radius, rounds = -1, 1, 0
    partial: ray.data.Dataset | None = None
    while True:
        rounds += 1
        rep = unresolved.map_batches(
            _replicate(ncols, nrows, max(prev_r, 0), radius, as_query=True,
                       salt=salt),
            batch_format="pyarrow",
        )
        # consolidate before each sort-shuffle: the exchange cost is
        # per-block, and the union of replicate stages arrives as many
        # small blocks
        cell_partial = (cand.union(rep)
                        .repartition(nblocks_for_cluster())
                        .groupby("grp")
                        .map_groups(_cell_topk(k), batch_format="pyarrow")
                        .select_columns(["id", "neighbor_id", "dist2"]))
        if partial is not None:
            cell_partial = cell_partial.union(partial)

        def add_bucket(batch: pa.Table) -> pa.Table:
            b = batch.column("id").to_numpy() % _MERGE_BUCKETS
            return batch.append_column("id_bucket", pa.array(b.astype(np.int64)))

        done_all = radius >= max(ncols, nrows) or rounds >= max_rounds
        guaranteed = float("inf") if done_all else (radius * cell_span) ** 2
        merged = (cell_partial.map_batches(add_bucket, batch_format="pyarrow")
                  .repartition(nblocks_for_cluster())
                  .groupby("id_bucket")
                  .map_groups(_merge_topk(k, guaranteed, need),
                              batch_format="pyarrow")).materialize()

        import pyarrow.compute as pc

        # lazy filter over the MATERIALIZED merged dataset: consuming the
        # final union re-runs only this cheap filter, not the shuffles
        finals.append(
            merged.map_batches(
                lambda b: b.filter(b.column("resolved")).drop_columns(["resolved"]),
                batch_format="pyarrow",
            )
        )
        if done_all:
            break
        # partial top-k rows for next round's merge: the resolved flag
        # is per-id, so a plain flag filter needs no id set at all
        partial = merged.map_batches(
            lambda b: b.filter(pc.invert(b.column("resolved"))).select(
                ["id", "neighbor_id", "dist2"]),
            batch_format="pyarrow",
        ).materialize()
        n_unres_rows = partial.count()
        if n_unres_rows == 0:
            break
        if n_unres_rows <= broadcast_limit:
            # small unresolved set: collect the UNIQUE ids (8 B/id) and
            # broadcast — one np.isin per batch, no shuffle
            parts = [
                np.unique(b.column("id").to_numpy(zero_copy_only=False))
                for b in partial.iter_batches(batch_size=65536,
                                              batch_format="pyarrow")
                if "id" in b.column_names and b.num_rows
            ]
            ref = ray.put(np.unique(np.concatenate(parts)))

            def keep_unres(batch: pa.Table, _ref=ref) -> pa.Table:
                arr = ray.get(_ref)
                return batch.filter(
                    pa.array(np.isin(batch.column("id").to_numpy(), arr)))

            unresolved = pts.map_batches(keep_unres, batch_format="pyarrow")
        else:
            # corpus-scale unresolved set: hash co-group semi-join of
            # pts with the unresolved-id rows — nothing broadcast
            unresolved = _semi_join_ids(pts, partial)
        prev_r, radius = radius, radius * 2

    out = finals[0]
    for f in finals[1:]:
        out = out.union(f)
    return out
