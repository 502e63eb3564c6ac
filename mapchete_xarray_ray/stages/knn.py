"""kNN join (J5): one home-cell exchange over a density-sized halo,
then a k-ring refinement loop for the queries it cannot certify.

Semantics: for every point, the k nearest OTHER points by squared
planar distance ``dx^2 + dy^2``, ties broken by neighbor id ascending —
row-exact vs a brute-force oracle (SQL ``row_number() over (partition
by id order by dist2, neighbor_id)``).

Distributed shape (SURVEY.md J5). The replicate-and-partition plan of
the MapReduce spatial-join literature (cf. "Processing multi-way
spatial joins on map-reduce", EDBT 2013), with the replication extent
decided per object (cf. "Parallel Spatial Join Processing with
Adaptive Replication", EDBT 2025):

- round 1, ONE exchange and no merge. The driver folds per-batch
  ``np.unique`` cell counts into each occupied cell's point count
  ``n_h``; that gives the cell's margin ``m_h = min(span, 3 * sqrt(k *
  span^2 / (pi * n_h)))`` (0 for an empty cell) and the hot-cell split.
  :func:`_halo` emits every point once in its home cell, as query AND
  candidate, plus a candidate-only copy into each in-grid ring-1 cell
  whose rectangle lies closer than that cell's margin.
  ``groupby(cell).map_groups(_home_topk)`` meets every query with all
  of its candidates in one group and emits final rows for a query that
  has ``need`` neighbours, a k-th ``d2 < m_h^2`` and lies inside its
  cell rectangle: every point closer than its k-th neighbour is then
  within ``m_h`` of the cell and was copied in. A point clipped into an
  edge cell from outside the grid never resolves here.
- refinement loop (unresolved queries only, with their round-1 top-k
  as the running best-so-far): queries replicate to the cells of the
  Chebyshev shell ``(prev_R, R]`` around their home cell (``(0, 2]``
  first, then R doubles), candidates stay in their home cell;
  ``groupby(cell)`` top-k per query copy, then ``groupby(id bucket)``
  merges with the best-so-far and emits ``resolved`` = (count >= need)
  AND (kth dist2 < (R * cell_span)^2) — no unseen cell can hold a
  closer neighbour. Terminates at the grid extent. A query none of
  whose groups held a candidate travels as a marker row
  ``neighbor_id == id`` so that it is never dropped.

Scale notes: the shuffle key is the flat cell index (one int64);
rows carry only (id, x, y) — the wide payload never enters the join.
The unresolved-query filter is adaptive: below ``broadcast_limit``
unresolved rows the unique ids (8 B/id) are broadcast via ``ray.put``
and filtered with one np.isin per batch; above it the filter becomes a
bucketed hash co-group semi-join (:func:`_semi_join_ids`) with nothing
broadcast.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from mapchete_xarray_ray.collect import collect_table
from mapchete_xarray_ray.nputil import group_sum, sorted_lookup, topk_per_id
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


def _id_segment(ids: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Id-hash segment in ``[0, s)`` of each row."""
    return ((ids.astype(np.uint64) * np.uint64(2654435761))
            % s.astype(np.uint64)).astype(np.int64)


def _per_segment(s: np.ndarray):
    """``(rep, seg)``: row ``i`` repeated ``s[i]`` times, once per
    segment ``0 .. s[i] - 1``."""
    rep = np.repeat(np.arange(len(s)), s)
    return rep, np.arange(len(rep)) - np.repeat(np.cumsum(s) - s, s)


def _cell_stats(cells: np.ndarray, n: np.ndarray, k: int, span: float,
                hot_cell_limit: int):
    """``(cells, m2, segs)`` for the sorted occupied ``cells`` holding
    ``n`` points each: the squared margin ``m_h^2`` and the number of
    hot-cell segments, ``ceil(n / hot_cell_limit)`` capped at
    ``_SALT_MULT`` above the limit and 1 below it."""
    m2 = np.minimum(span ** 2, 9 * k * span ** 2 / (np.pi * n))
    segs = np.where(n > hot_cell_limit,
                    np.minimum((n + hot_cell_limit - 1) // hot_cell_limit,
                               _SALT_MULT), 1)
    return cells, m2, segs


def _halo(ncols: int, nrows: int, span: float, origin_x: float,
          origin_y: float, grid):
    """Round-1 rows: each point once in its home cell as query and
    candidate (``is_query``), plus a candidate-only copy into every
    in-grid ring-1 cell ``h`` whose rectangle is closer than ``m_h``
    (squared, with a 1e-9 relative slack for the rounding of the
    rectangle distance). ``grid`` is a ``ray.put`` ref to
    :func:`_cell_stats`; a cell not listed there is empty and takes no
    copy.

    Hot cells (A5): a cell of ``s > 1`` segments splits its QUERIES by
    id hash; every candidate of the cell, home and halo, goes to all
    ``s`` segments, so each query still meets all of its candidates in
    one group. The group key is ``cell * _SALT_MULT + seg``."""
    dr, dc = _shell_offsets(0, 1)
    home = (dr == 0) & (dc == 0)

    def fn(batch: pa.Table) -> pa.Table:
        cells, m2s, segs = ray.get(grid)
        ids = batch.column("id").to_numpy(zero_copy_only=False)
        x = batch.column("x").to_numpy(zero_copy_only=False)[:, None]
        y = batch.column("y").to_numpy(zero_copy_only=False)[:, None]
        rows = batch.column("crow").to_numpy(zero_copy_only=False)[:, None] + dr
        cols = batch.column("ccol").to_numpy(zero_copy_only=False)[:, None] + dc
        valid = (rows >= 0) & (rows < nrows) & (cols >= 0) & (cols < ncols)
        cell = rows * ncols + cols
        # squared distance to each cell's rectangle, 0 inside it
        dx = np.maximum(np.maximum(origin_x + cols * span - x,
                                   x - (origin_x + (cols + 1) * span)), 0.0)
        dy = np.maximum(np.maximum(origin_y + rows * span - y,
                                   y - (origin_y + (rows + 1) * span)), 0.0)
        hit, i = sorted_lookup(cells, cell)
        m2 = np.where(hit, m2s[i], 0.0)
        pt, off = np.nonzero(valid & (home | (dx * dx + dy * dy < m2 * (1 + 1e-9))))
        cell, isq = cell[pt, off], home[off]
        hit, i = sorted_lookup(cells, cell)
        s = np.where(hit, segs[i], 1)
        rep, seg = _per_segment(s)
        idx = pt[rep]
        is_query = isq[rep] & (seg == _id_segment(ids[idx], s[rep]))
        take = pa.array(idx)
        return pa.table({
            "id": batch.column("id").take(take),
            "x": batch.column("x").take(take),
            "y": batch.column("y").take(take),
            "grp": pa.array(cell[rep] * _SALT_MULT + seg),
            "is_query": pa.array(is_query),
        })

    return fn


def _replicate(ncols: int, nrows: int, lo: int, hi: int, as_query: bool,
               salt=None):
    """Refinement-loop rows: replicate to the cells of the (lo, hi]
    Chebyshev shell.

    ``salt``: None, or the :func:`_halo` ``grid`` ref — the A5 hot-cell
    split. A hot cell's CANDIDATES are partitioned into ``s`` disjoint
    segments by id hash; its QUERIES are replicated to all ``s``
    segments, so every (query, candidate) pair still meets exactly once
    and the per-task distance matrix is bounded by the segment size
    instead of the cell size. The group key becomes
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
            cells, _m2s, segs = ray.get(salt)
            hit, i = sorted_lookup(cells, grp)
            s = np.where(hit, segs[i], 1)
            if as_query:
                # one copy per segment of each target cell
                rep, seg = _per_segment(s)
                grp_out, idx_out = grp[rep] * _SALT_MULT + seg, idx[rep]
            else:
                # candidates partition disjointly by id hash
                ids = batch.column("id").to_numpy(zero_copy_only=False)[idx]
                grp_out, idx_out = grp * _SALT_MULT + _id_segment(ids, s), idx
        return pa.table({
            "id": batch.column("id").take(pa.array(idx_out)),
            "x": batch.column("x").take(pa.array(idx_out)),
            "y": batch.column("y").take(pa.array(idx_out)),
            "grp": pa.array(grp_out),
            "is_query": pa.array(np.full(len(grp_out), as_query)),
        })

    return fn


_MAX_ELEMS = 8_000_000  # per distance-matrix chunk: 64 MB of float64


def _pair_topk(qid, qx, qy, cid, cx, cy, k: int):
    """Top-k of each query against the candidates by (dist2, candidate
    id), a query's own id excluded. Returns ``(q_sel, c_sel, rank,
    dist2)``: query and candidate indices in (query, rank) order.

    The (Q, C) float64 distance matrix is built in QUERY CHUNKS of at
    most ``_MAX_ELEMS`` elements, so one task's peak memory is
    bounded no matter how many queries land in a group — the hot-cell
    split bounds Q or C; this bounds Q x C. Chunking changes nothing
    semantically: each query row's top-k is independent.

    Per-chunk temporaries, each (Q_chunk, C): the float64 ``d2``, and
    inside :func:`~mapchete_xarray_ray.stages.ann.rowwise_topk` the
    self-match mask (bool), the masked key copy (float64), its
    ``np.partition`` copy (float64) and the survivor mask (bool). The
    survivors — about k per row plus ties — are the only entries sorted."""
    from mapchete_xarray_ray.stages.ann import rowwise_topk

    parts = []
    step = max(1, _MAX_ELEMS // max(len(cid), 1))
    for s in range(0, len(qid), step):
        e = s + step
        # same float64 expression per pair as the scalar oracle
        d2 = ((qx[s:e, None] - cx[None, :]) ** 2
              + (qy[s:e, None] - cy[None, :]) ** 2)
        q_sel, c_sel, rank = rowwise_topk(d2, qid[s:e], cid, k)
        parts.append((q_sel + s, c_sel, rank, d2[q_sel, c_sel]))
    if not parts:
        z = np.empty(0, dtype=np.int64)
        return z, z, z, np.empty(0)
    return tuple(np.concatenate(a) for a in zip(*parts))


def _topk_table(ids, nbs, rank, d2s, resolved, lone) -> pa.Table:
    """Top-k rows plus one marker row ``(id, id, 0, inf, unresolved)``
    per ``lone`` query — an unresolved query none of whose groups held
    a candidate yet. A point is never its own neighbour, so the marker
    keeps the query in the loop's unresolved set without posing as one."""
    n = len(lone)
    return pa.table({
        "id": pa.array(np.concatenate([ids, lone]), pa.int64()),
        "neighbor_id": pa.array(np.concatenate([nbs, lone]), pa.int64()),
        "rank": pa.array(np.concatenate([rank, np.zeros(n, np.int64)]), pa.int64()),
        "dist2": pa.array(np.concatenate([d2s, np.full(n, np.inf)]), pa.float64()),
        "resolved": pa.array(np.concatenate([resolved, np.zeros(n, bool)])),
    })


def _home_topk(k: int, need: int, ncols: int, span: float,
               origin_x: float, origin_y: float, grid):
    """Round-1 kernel per cell(-segment): top-k of each query row
    against every row of the group, and the final ``resolved`` flag —
    at least ``need`` neighbours, k-th ``d2 < m_h^2`` and the query
    inside the cell rectangle (see the module docstring)."""

    def fn(group: pa.Table) -> pa.Table:
        cells, m2s, _segs = ray.get(grid)
        cell = group.column("grp")[0].as_py() // _SALT_MULT
        m2 = m2s[np.searchsorted(cells, cell)]
        row, col = divmod(cell, ncols)
        ids = group.column("id").to_numpy(zero_copy_only=False)
        xs = group.column("x").to_numpy(zero_copy_only=False)
        ys = group.column("y").to_numpy(zero_copy_only=False)
        q = np.flatnonzero(group.column("is_query").to_numpy(zero_copy_only=False))
        qid, qx, qy = ids[q], xs[q], ys[q]
        q_sel, c_sel, rank, d2 = _pair_topk(qid, qx, qy, ids, xs, ys, k)
        counts = np.bincount(q_sel, minlength=len(q))
        last = np.zeros(len(q))  # a query without candidates has no k-th d2
        end = rank == counts[q_sel]  # rows are in (query, rank) order
        last[q_sel[end]] = d2[end]
        inside = ((origin_x + col * span <= qx) & (qx <= origin_x + (col + 1) * span)
                  & (origin_y + row * span <= qy) & (qy <= origin_y + (row + 1) * span))
        res = (counts >= need) & (last < m2) & inside
        return _topk_table(qid[q_sel], ids[c_sel], rank, d2, res[q_sel],
                           qid[(counts == 0) & ~res])

    return fn


def _cell_topk(k: int):
    """Refinement-loop kernel per cell(-segment): top-k of each query
    copy vs the group's candidates (:func:`_pair_topk`)."""

    def fn(group: pa.Table) -> pa.Table:
        isq = group.column("is_query").to_numpy(zero_copy_only=False)
        ids = group.column("id").to_numpy(zero_copy_only=False)
        xs = group.column("x").to_numpy(zero_copy_only=False)
        ys = group.column("y").to_numpy(zero_copy_only=False)
        qid, cid = ids[isq], ids[~isq]
        q_sel, c_sel, _rank, d2 = _pair_topk(qid, xs[isq], ys[isq], cid,
                                             xs[~isq], ys[~isq], k)
        return pa.table({
            "id": pa.array(qid[q_sel], pa.int64()),
            "neighbor_id": pa.array(cid[c_sel], pa.int64()),
            "dist2": pa.array(d2, pa.float64()),
        })

    return fn


_MERGE_BUCKETS = 64


def _merge_topk(k: int, guaranteed_d2: float, need: int):
    """Merge partial candidate lists to per-query global top-k + resolved
    flag. Runs per ID BUCKET (id % 64), fully vectorized inside the
    bucket — one python call per bucket, not per query. Marker rows
    (``neighbor_id == id``, :func:`_topk_table`) are no candidates; a
    query that still has nothing else keeps its marker, unresolved."""

    def fn(group: pa.Table) -> pa.Table:
        ids = group.column("id").to_numpy(zero_copy_only=False)
        nbs = group.column("neighbor_id").to_numpy(zero_copy_only=False)
        d2s = group.column("dist2").to_numpy(zero_copy_only=False)
        marker = ids == nbs
        lone = np.setdiff1d(ids[marker], ids[~marker])
        ids, nbs, d2s = ids[~marker], nbs[~marker], d2s[~marker]
        # a duplicate (id, neighbor) row keeps one copy (d2 per pair is
        # deterministic, so any copy is fine)
        sel, rank = topk_per_id(ids, nbs, d2s, k)
        ids, nbs, d2s = ids[sel], nbs[sel], d2s[sel]
        # resolution per id: count kept >= need AND kth d2 < guarantee
        starts = np.flatnonzero(rank == 1)
        counts = np.diff(np.append(starts, len(ids)))
        last_d2 = d2s[starts + counts - 1]
        res_per_id = (counts >= need) & (last_d2 < guaranteed_d2)
        return _topk_table(ids, nbs, rank, d2s, np.repeat(res_per_id, counts), lone)

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


def _split_resolved(ds: ray.data.Dataset):
    """(final rows, unresolved best-so-far rows) of a materialized
    round's output. Both are lazy filters over it, so consuming them
    re-runs only the filter, not the exchanges."""
    import pyarrow.compute as pc

    final = ds.map_batches(
        lambda b: b.filter(b.column("resolved")).drop_columns(["resolved"]),
        batch_format="pyarrow")
    # the resolved flag is per-id, so a plain flag filter needs no id set
    partial = ds.map_batches(
        lambda b: b.filter(pc.invert(b.column("resolved"))).select(
            ["id", "neighbor_id", "dist2"]),
        batch_format="pyarrow")
    return final, partial


def knn_pipeline(points: ray.data.Dataset, k: int, cell_span: float,
                 ncols: int, nrows: int, origin_x: float = 0.0,
                 origin_y: float = 0.0,
                 broadcast_limit: int = KNN_BROADCAST_LIMIT,
                 hot_cell_limit: int = 16_384) -> ray.data.Dataset:
    """Exact kNN over a Dataset with columns (id:int64, x, y:float64).

    Returns a Dataset (id, neighbor_id, rank, dist2). The cell grid is
    ``nrows x ncols`` cells of edge ``cell_span`` anchored at
    (origin_x, origin_y), y growing DOWN (pixel/tile row order); points
    outside it are clipped into the nearest edge cell.

    Round 1 is one exchange (:func:`_halo` rows, grouped by cell into
    :func:`_home_topk`) whose resolved rows are final; only the queries
    it cannot certify enter the refinement loop (module docstring).

    Skew (A5, the hot-cell pre-count): a cell holding more than
    ``hot_cell_limit`` points would otherwise compute its quadratic
    distance matrix in ONE straggler task. The pre-count is a
    per-batch ``np.unique`` partial folded on the driver (rows =
    occupied cells) — the same fold gives the margins. Round 1 splits a
    hot cell's queries into ``ceil(count / hot_cell_limit)`` (capped at
    ``_SALT_MULT``) id-hash segments, each meeting all of the cell's
    candidates; the loop splits a hot cell's candidates instead and
    copies queries to every segment. Output is row-identical to the
    unsalted plan (asserted in tests/test_skew.py).
    """

    def add_cells(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        ccol = np.clip(((x - origin_x) // cell_span).astype(np.int64), 0, ncols - 1)
        crow = np.clip(((y - origin_y) // cell_span).astype(np.int64), 0, nrows - 1)
        return (batch.append_column("crow", pa.array(crow))
                     .append_column("ccol", pa.array(ccol)))

    pts = points.map_batches(add_cells, batch_format="pyarrow").materialize()

    # A5 pre-count: per-batch partials, folded on the driver
    def cell_counts(batch: pa.Table) -> pa.Table:
        g = (batch.column("crow").to_numpy(zero_copy_only=False) * ncols
             + batch.column("ccol").to_numpy(zero_copy_only=False))
        uniq, cnt = np.unique(g, return_counts=True)
        return pa.table({"grp": pa.array(uniq.astype(np.int64)),
                         "n": pa.array(cnt.astype(np.int64))})

    parts = collect_table(pts.map_batches(cell_counts, batch_format="pyarrow"))
    cells = n = np.empty(0, dtype=np.int64)
    if "grp" in parts.column_names:  # a zero-row input reads zero blocks
        cells, n = group_sum(parts.column("grp").to_numpy(),
                             parts.column("n").to_numpy())
    need = min(k, max(int(n.sum()) - 1, 0))
    stats = _cell_stats(cells, n, k, cell_span, hot_cell_limit)
    grid = ray.put(stats)
    salt = grid if (stats[2] > 1).any() else None

    # round 1: no repartition — the input is the materialized pts, not
    # a union of small blocks
    first = (pts.map_batches(_halo(ncols, nrows, cell_span, origin_x,
                                   origin_y, grid), batch_format="pyarrow")
             .groupby("grp")
             .map_groups(_home_topk(k, need, ncols, cell_span, origin_x,
                                    origin_y, grid), batch_format="pyarrow")
             ).materialize()
    final, partial = _split_resolved(first)
    finals = [final]
    partial = partial.materialize()

    # lazy: built only when a query is unresolved, recomputed from the
    # (materialized) pts
    cand = pts.map_batches(
        _replicate(ncols, nrows, 0, 0, as_query=False, salt=salt),
        batch_format="pyarrow")
    prev_r, radius = 0, 2  # round 1 saw the home cell; the loop covers (0, 2] first
    while True:
        n_unres_rows = partial.count()
        if n_unres_rows == 0:
            break
        if n_unres_rows <= broadcast_limit:
            # small unresolved set: collect the UNIQUE ids (8 B/id) and
            # broadcast — one np.isin per batch, no shuffle
            ids = [
                np.unique(b.column("id").to_numpy(zero_copy_only=False))
                for b in partial.iter_batches(batch_size=65536,
                                              batch_format="pyarrow")
                if "id" in b.column_names and b.num_rows
            ]
            ref = ray.put(np.unique(np.concatenate(ids)))

            def keep_unres(batch: pa.Table, _ref=ref) -> pa.Table:
                arr = ray.get(_ref)
                return batch.filter(
                    pa.array(np.isin(batch.column("id").to_numpy(), arr)))

            unresolved = pts.map_batches(keep_unres, batch_format="pyarrow")
        else:
            # corpus-scale unresolved set: hash co-group semi-join of
            # pts with the unresolved-id rows — nothing broadcast
            unresolved = _semi_join_ids(pts, partial)
        rep = unresolved.map_batches(
            _replicate(ncols, nrows, prev_r, radius, as_query=True, salt=salt),
            batch_format="pyarrow",
        )
        # consolidate before each sort-shuffle: the exchange cost is
        # per-block, and the union of replicate stages arrives as many
        # small blocks
        cell_partial = (cand.union(rep)
                        .repartition(nblocks_for_cluster())
                        .groupby("grp")
                        .map_groups(_cell_topk(k), batch_format="pyarrow")
                        .select_columns(["id", "neighbor_id", "dist2"])
                        .union(partial))

        def add_bucket(batch: pa.Table) -> pa.Table:
            b = batch.column("id").to_numpy() % _MERGE_BUCKETS
            return batch.append_column("id_bucket", pa.array(b.astype(np.int64)))

        done_all = radius >= max(ncols, nrows)
        guaranteed = float("inf") if done_all else (radius * cell_span) ** 2
        merged = (cell_partial.map_batches(add_bucket, batch_format="pyarrow")
                  .repartition(nblocks_for_cluster())
                  .groupby("id_bucket")
                  .map_groups(_merge_topk(k, guaranteed, need),
                              batch_format="pyarrow")).materialize()
        final, partial = _split_resolved(merged)
        finals.append(final)
        if done_all:
            break
        partial = partial.materialize()
        prev_r, radius = radius, radius * 2

    out = finals[0]
    for f in finals[1:]:
        out = out.union(f)
    return out
