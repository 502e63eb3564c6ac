"""Driver-facing query registry: Ray pipeline + DuckDB oracle SQL pairs.

Each entry is ``name -> (callable(sf_dir) -> Dataset/Table, sql | None)``.
The callables run over the driver-provided parquet tables (TESTDATA.md);
column names are identical between the Ray result and the SQL so the
driver's order-insensitive value-hash comparison passes.

Conventions:
- reads prune columns at the source (``read_parquet(columns=[...])``);
- transforms are vectorized ``map_batches(batch_format="pyarrow")``;
- aggregations pre-combine inside map_batches where the key space is
  large, then do a small ``groupby``;
- nothing materializes the full dataset on the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from mapchete_xarray_ray.nputil import (group_reduce, group_sum, segments,
                                        sorted_lookup)
from mapchete_xarray_ray.scale import nblocks_for_cluster
from mapchete_xarray_ray.stages.assign import assign_doc_ids_fn

ZOOM = 5  # documents-query zoom: 32x64 tiles, 8192x16384 global pixels

# --- SQL fragments shared by several oracle queries ----------------------

_ASSIGN_SQL_COLS = """
  (doc_id * 2654435761) % 16384 AS px,
  (doc_id * 40503) % 8192 AS py,
  ((doc_id * 40503) % 8192) // 256 AS tile_row,
  ((doc_id * 2654435761) % 16384) // 256 AS tile_col,
  (5::BIGINT << 58)
    | ((((doc_id * 40503) % 8192) // 256)::BIGINT << 29)
    | (((doc_id * 2654435761) % 16384) // 256) AS tile_id
"""


def _morton_sql(row_expr: str, col_expr: str, zoom: int = ZOOM) -> str:
    """SQL expression for cell_id = morton(row, col) << 5 | zoom.

    col carries zoom+1 bits (geodetic east/west bit), row carries zoom.
    Mirrors grid.cell_encode exactly.
    """
    terms = []
    for i in range(zoom + 1):
        terms.append(f"((({col_expr}) >> {i}) & 1)::BIGINT << {2 * i}")
        if i < zoom:
            terms.append(f"((({row_expr}) >> {i}) & 1)::BIGINT << {2 * i + 1}")
    morton = " | ".join(f"({t})" for t in terms)
    return f"((({morton}) << 5) | {zoom})"


_CELL_SQL = _morton_sql("((doc_id * 40503) % 8192) // 256",
                        "((doc_id * 2654435761) % 16384) // 256")


def _read(path: str, columns):
    """Pruned parquet read with a METADATA-FREE schema. Blocks carrying
    the file's pandas metadata make ``hash(schema)`` raise inside Ray's
    shuffle reduce (a pyarrow Schema holding a metadata dict is
    unhashable) — per-task 'Failed to hash the schemas' warnings and no
    schema deduplication. Passing the stripped schema at the source
    fixes every downstream block without an extra stage."""
    import pyarrow.parquet as pq

    schema = pq.read_schema(path).remove_metadata()
    sub = pa.schema([schema.field(c) for c in columns])
    return ray.data.read_parquet(path, columns=columns, schema=sub)


def _docs(sf_dir: str, columns):
    return _read(f"{sf_dir}/documents.parquet", columns)


def _regroup(ds, per_cpu: float = 0.25):
    """Consolidate blocks before a small groupby: the sort-shuffle's cost
    is per-block (S blocks -> O(S^2) shuffle objects), and pre-aggregated
    partials are tiny — a handful of blocks keeps the exchange cheap.
    Width scales with the cluster (``scale.nblocks_for_cluster``), not a
    constant: 8 fixed blocks on a 256-node cluster would mean multi-GB
    blocks and 8-way parallelism into every sort exchange."""
    return ds.repartition(nblocks_for_cluster(per_cpu))


from mapchete_xarray_ray.collect import collect_table  # noqa: E402 — re-export;
# the probe-free replacement for to_arrow_refs (see collect.py: Ray
# 2.49's to_arrow_refs re-executes the plan with limit=1 for a schema
# fetch, which for sort/groupby plans is nearly a full second run).


def _mod_bucket(col: str, out: str = "bucket", mod: int = 64):
    """map_batches fn factory: append ``out = col % mod`` (the coarse
    shuffle key for the one-python-call-per-bucket group pattern). Ray
    never hands it a zero-row block (contract in ``collect.py``)."""

    def fn(batch: pa.Table) -> pa.Table:
        b = batch.column(col).to_numpy(zero_copy_only=False) % mod
        return batch.append_column(out, pa.array(b.astype(np.int64)))

    return fn


def _schema_finalize(ds, cols: dict):
    """map_batches stage that coerces every block to one fixed schema.

    ``cols`` maps column name -> pyarrow type. Ray 2.49's operator
    fusion can deliver blocks whose columns carry different types or
    extra columns, which breaks ``select_columns`` + concat; an explicit
    projection with cast is the robust finalize (q_knn pattern). Ray
    never hands it a zero-row block (contract in ``collect.py``)."""
    names = list(cols)

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({n: batch.column(n).cast(cols[n]) for n in names})

    return ds.map_batches(finalize, batch_format="pyarrow")


# --- queries -------------------------------------------------------------


def q_tile_assign(sf_dir: str):
    """Per-document deterministic tile + cell assignment (M5/J1)."""
    return (
        _docs(sf_dir, ["doc_id"])
        .map_batches(assign_doc_ids_fn(ZOOM), batch_format="pyarrow")
        .select_columns(["doc_id", "px", "py", "tile_row", "tile_col", "tile_id", "cell_id"])
    )


SQL_TILE_ASSIGN = f"""
SELECT doc_id, {_ASSIGN_SQL_COLS}, {_CELL_SQL} AS cell_id
FROM documents
"""


def q_tile_density(sf_dir: str):
    """Per-tile aggregation (A4/A5): doc count + char sum per tile.

    Partial aggregation happens inside map_batches (one partial row per
    tile per batch) so the groupby shuffle moves O(tiles), not O(docs) —
    the pattern that keeps this working at 100 TB.
    """
    def partial(batch: pa.Table) -> pa.Table:
        batch = assign_doc_ids_fn(ZOOM)(batch)
        t = batch.group_by("tile_id").aggregate(
            [("doc_id", "count"), ("n_chars", "sum")]
        )
        return t.rename_columns(["tile_id", "n_docs", "sum_chars"])

    ds = (
        _regroup(_docs(sf_dir, ["doc_id", "n_chars"])
                 .map_batches(partial, batch_format="pyarrow"))
        .groupby("tile_id")
        .sum(["n_docs", "sum_chars"])
    )
    return ds.rename_columns({"sum(n_docs)": "n_docs", "sum(sum_chars)": "sum_chars"})


SQL_TILE_DENSITY = """
SELECT tile_id, count(*)::BIGINT AS n_docs, sum(n_chars)::BIGINT AS sum_chars
FROM (
  SELECT n_chars,
    (5::BIGINT << 58)
      | ((((doc_id * 40503) % 8192) // 256)::BIGINT << 29)
      | (((doc_id * 2654435761) % 16384) // 256) AS tile_id
  FROM documents
)
GROUP BY tile_id
"""


def q_cell_parent_rollup(sf_dir: str):
    """Hierarchical cell rollup: doc counts at cell zoom 5 rolled up to
    parent zoom 3 by right-shifting the Morton prefix (S2-style)."""
    from mapchete_xarray_ray.grid import cell_parent

    def partial(batch: pa.Table) -> pa.Table:
        batch = assign_doc_ids_fn(ZOOM)(batch)
        cells = batch.column("cell_id").to_numpy().astype(np.uint64)
        parents = cell_parent(cells, steps=2).astype(np.int64)
        t = pa.table({"cell3": pa.array(parents)})
        return t.group_by("cell3").aggregate([("cell3", "count")]).rename_columns(
            ["cell3", "n_docs"])

    ds = (
        _regroup(_docs(sf_dir, ["doc_id"])
                 .map_batches(partial, batch_format="pyarrow"))
        .groupby("cell3")
        .sum("n_docs")
    )
    return ds.rename_columns({"sum(n_docs)": "n_docs"})


_CELL3_SQL = _morton_sql("(((doc_id * 40503) % 8192) // 256) >> 2",
                         "(((doc_id * 2654435761) % 16384) // 256) >> 2", zoom=3)

SQL_CELL_PARENT_ROLLUP = f"""
SELECT {_CELL3_SQL} AS cell3, count(*)::BIGINT AS n_docs
FROM documents
GROUP BY cell3
"""


def q_rasterize_roundtrip(sf_dir: str):
    """Raster<->vector roundtrip (A4 + tile_to_points): documents are
    rasterized into per-tile count grids (groupby tile -> count_tensor),
    then vectorized back to one row per non-zero pixel. The SQL twin is
    a plain per-pixel GROUP BY — if the grid math or the raster->vector
    inversion were off by one pixel anywhere, the hash would differ."""
    from mapchete_xarray_ray.stages.rasterize import count_tensor

    def per_tile(group: pa.Table) -> pa.Table:
        tile_id = int(group.column("tile_id")[0].as_py())
        px = group.column("px").to_numpy(zero_copy_only=False)
        py = group.column("py").to_numpy(zero_copy_only=False)
        n = group.num_rows
        grid = count_tensor((py % 256) * 256 + px % 256,
                            np.zeros(n, dtype=np.int64),
                            [np.ones(n, dtype=np.int64)], 256, np.int64)[0][0, 0]
        yy, xx = np.nonzero(grid)
        return pa.table({
            "tile_id": pa.array(np.full(len(yy), tile_id), pa.int64()),
            "iy": pa.array(yy.astype(np.int64)),
            "ix": pa.array(xx.astype(np.int64)),
            "n_docs": pa.array(grid[yy, xx], pa.int64()),
        })

    return (
        _regroup(_docs(sf_dir, ["doc_id"])
                 .map_batches(assign_doc_ids_fn(ZOOM), batch_format="pyarrow")
                 .select_columns(["doc_id", "px", "py", "tile_id"]))
        .groupby("tile_id")
        .map_groups(per_tile, batch_format="pyarrow")
    )


SQL_RASTERIZE_ROUNDTRIP = """
SELECT
  (5::BIGINT << 58)
    | ((((doc_id * 40503) % 8192) // 256)::BIGINT << 29)
    | (((doc_id * 2654435761) % 16384) // 256) AS tile_id,
  ((doc_id * 40503) % 8192) % 256 AS iy,
  ((doc_id * 2654435761) % 16384) % 256 AS ix,
  count(*)::BIGINT AS n_docs
FROM documents
GROUP BY tile_id, iy, ix
"""


def q_pip_join(sf_dir: str):
    """Point-in-polygon broadcast join (J4) in integer pixel space.

    The polygon side is 4 axis-aligned rectangles (generic polygon code
    path — PIPJoiner treats them as rings); overlaps exercise the
    lowest-region_id tie rule. The SQL twin uses BETWEEN containment +
    min(region_id), which equals the ring test exactly because all
    coordinates are integers.
    """
    from mapchete_xarray_ray.stages.join import PIPJoiner

    regions = _pip_regions()
    ds = (
        _docs(sf_dir, ["doc_id"])
        .map_batches(assign_doc_ids_fn(ZOOM), batch_format="pyarrow")
        .map_batches(
            PIPJoiner,
            fn_constructor_kwargs=dict(regions=regions, x_col="px", y_col="py"),
            batch_format="pyarrow",
            concurrency=2,
        )
    )
    # explicit fixed schema instead of select_columns: Ray 2.49 can
    # deliver heterogeneous (fused-projection vs post-join) blocks
    return _schema_finalize(ds, {"doc_id": pa.int64(),
                                 "region_id": pa.int64()})


# (region_id, minx, miny, maxx, maxy) in global z5 pixel coords;
# region 1 overlaps region 0; region 2 shares an edge with region 1.
_PIP_RECTS = [
    (0, 1000, 1000, 5000, 4000),
    (1, 4000, 3000, 9000, 6000),
    (2, 9000, 3000, 12000, 6000),
    (3, 13000, 500, 16000, 7500),
]

SQL_PIP_JOIN = """
WITH pts AS (
  SELECT doc_id,
         (doc_id * 2654435761) % 16384 AS px,
         (doc_id * 40503) % 8192 AS py
  FROM documents
), regions(region_id, minx, miny, maxx, maxy) AS (
  VALUES (0, 1000, 1000, 5000, 4000),
         (1, 4000, 3000, 9000, 6000),
         (2, 9000, 3000, 12000, 6000),
         (3, 13000, 500, 16000, 7500)
)
SELECT doc_id, min(region_id)::BIGINT AS region_id
FROM pts JOIN regions
  ON px BETWEEN minx AND maxx AND py BETWEEN miny AND maxy
GROUP BY doc_id
"""


def _pip_regions():
    """_PIP_RECTS as closed rings — shared by the PIP join and
    anti-join so the polygon construction cannot diverge."""
    return [
        (rid, [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]])
        for rid, x0, y0, x1, y1 in _PIP_RECTS
    ]


def q_pip_antijoin(sf_dir: str):
    """ANTI-join shape (NOT EXISTS): documents whose point falls in NO
    region polygon — the complement of pip_join, via the same broadcast
    joiner with ``keep_unmatched`` and a region_id == -1 filter (no
    second pass, no shuffle)."""
    from mapchete_xarray_ray.stages.join import PIPJoiner

    regions = _pip_regions()

    def unmatched_only(batch: pa.Table) -> pa.Table:
        m = pa.compute.equal(batch.column("region_id"), -1)
        return pa.table({"doc_id": batch.filter(m).column("doc_id")})

    return (
        _docs(sf_dir, ["doc_id"])
        .map_batches(assign_doc_ids_fn(ZOOM), batch_format="pyarrow")
        .map_batches(
            PIPJoiner,
            fn_constructor_kwargs=dict(regions=regions, x_col="px",
                                       y_col="py", keep_unmatched=True),
            batch_format="pyarrow",
            concurrency=2,
        )
        .map_batches(unmatched_only, batch_format="pyarrow")
    )


SQL_PIP_ANTIJOIN = """
WITH pts AS (
  SELECT doc_id,
         (doc_id * 2654435761) % 16384 AS px,
         (doc_id * 40503) % 8192 AS py
  FROM documents
), regions(region_id, minx, miny, maxx, maxy) AS (
  VALUES (0, 1000, 1000, 5000, 4000),
         (1, 4000, 3000, 9000, 6000),
         (2, 9000, 3000, 12000, 6000),
         (3, 13000, 500, 16000, 7500)
)
SELECT doc_id FROM pts p
WHERE NOT EXISTS (
  SELECT 1 FROM regions r
  WHERE p.px BETWEEN r.minx AND r.maxx AND p.py BETWEEN r.miny AND r.maxy)
"""


def q_customers_with_orders(sf_dir: str):
    """SEMI-join shape (EXISTS): customers having at least one order,
    with their nation key — the dedup side of a join without carrying
    the payload. Both sides co-group by ``custkey % 64``; the orders
    side is pre-deduped per batch so the shuffle moves distinct keys,
    not order rows."""
    def o_keys(batch: pa.Table) -> pa.Table:
        k = np.unique(batch.column("o_custkey").to_numpy(
            zero_copy_only=False))
        return pa.table({
            "custkey": pa.array(k, pa.int64()),
            "nationkey": pa.array(np.full(len(k), -1), pa.int64()),
            "is_cust": pa.array(np.zeros(len(k), dtype=bool)),
        })

    def c_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "custkey": batch.column("c_custkey").cast(pa.int64()),
            "nationkey": batch.column("c_nationkey").cast(pa.int64()),
            "is_cust": pa.array(np.ones(n, dtype=bool)),
        })

    def semi(group: pa.Table) -> pa.Table:
        isc = group.column("is_cust").to_numpy(zero_copy_only=False)
        key = group.column("custkey").to_numpy(zero_copy_only=False)
        nat = group.column("nationkey").to_numpy(zero_copy_only=False)
        okeys = np.unique(key[~isc])
        ck, cn = key[isc], nat[isc]
        pos = np.searchsorted(okeys, ck)
        hit = pos < len(okeys)
        hit[hit] = okeys[pos[hit]] == ck[hit]
        return pa.table({
            "c_custkey": pa.array(ck[hit], pa.int64()),
            "c_nationkey": pa.array(cn[hit], pa.int64()),
        })

    orders = _read(f"{sf_dir}/orders.parquet", columns=["o_custkey"]
                   ).map_batches(o_keys, batch_format="pyarrow")
    cust = _read(f"{sf_dir}/customer.parquet",
                 columns=["c_custkey", "c_nationkey"]
                 ).map_batches(c_rows, batch_format="pyarrow")
    return (_regroup(orders.union(cust)
                     .map_batches(_mod_bucket("custkey", "jb"),
                                  batch_format="pyarrow"), 0.25)
            .groupby("jb")
            .map_groups(semi, batch_format="pyarrow"))


SQL_CUSTOMERS_WITH_ORDERS = """
SELECT c_custkey, c_nationkey FROM customer c
WHERE EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)
"""


SQL_CUSTOMER_ORDER_PROFILE = """
SELECT c.c_custkey, c.c_nationkey,
       count(o.o_orderkey)::BIGINT AS n_orders,
       coalesce(sum(floor(o.o_totalprice * 100)::BIGINT), 0)::BIGINT
         AS total_cents
FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
GROUP BY c.c_custkey, c.c_nationkey
"""


def q_customer_order_profile(sf_dir: str):
    """LEFT OUTER join + aggregate: every customer with order count and
    lifetime spend, zeros for order-less customers — the join flavor
    the inner/semi/anti family was missing. Orders pre-aggregate to one
    partial row per (batch, custkey) before the exchange, so the
    shuffle moves partials, not order rows; the co-group attaches sums
    to the customer side with absent keys vectorized to 0. Money stays
    integer cents (floor(price*100) — identical IEEE ops both sides),
    keeping the twin bit-exact."""
    def o_partial(batch: pa.Table) -> pa.Table:
        price = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        t = pa.table({
            "custkey": batch.column("o_custkey").cast(pa.int64()),
            "n_orders": pa.array(np.ones(len(price), dtype=np.int64)),
            "total_cents": pa.array(np.floor(price * 100).astype(np.int64)),
        })
        # access aggregate output by NAME ("{col}_{fn}") — the column
        # ORDER of group_by().aggregate() has changed across pyarrow
        # versions (keys first vs last), a positional rename transposes
        g = (t.group_by("custkey")
             .aggregate([("n_orders", "sum"), ("total_cents", "sum")]))
        return pa.table({
            "custkey": g.column("custkey"),
            "nationkey": pa.array(np.full(g.num_rows, -1, dtype=np.int64)),
            "n_orders": g.column("n_orders_sum"),
            "total_cents": g.column("total_cents_sum"),
            "is_cust": pa.array(np.zeros(g.num_rows, dtype=bool)),
        })

    def c_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        z = pa.array(np.zeros(n, dtype=np.int64))
        return pa.table({
            "custkey": batch.column("c_custkey").cast(pa.int64()),
            "nationkey": batch.column("c_nationkey").cast(pa.int64()),
            "n_orders": z,
            "total_cents": z,
            "is_cust": pa.array(np.ones(n, dtype=bool)),
        })

    def left_join(group: pa.Table) -> pa.Table:
        isc = group.column("is_cust").to_numpy(zero_copy_only=False)
        key = group.column("custkey").to_numpy(zero_copy_only=False)
        cnt = group.column("n_orders").to_numpy(zero_copy_only=False)
        cents = group.column("total_cents").to_numpy(zero_copy_only=False)
        ok, oc, ot = key[~isc], cnt[~isc], cents[~isc]
        order, starts, ends = segments(ok)
        ok, oc, ot = ok[order], oc[order], ot[order]
        uk = ok[starts]
        cum_c = np.concatenate(([0], np.cumsum(oc)))
        cum_t = np.concatenate(([0], np.cumsum(ot)))
        sum_c = cum_c[ends] - cum_c[starts]
        sum_t = cum_t[ends] - cum_t[starts]
        ck = key[isc]
        hit, pos = sorted_lookup(uk, ck)
        return pa.table({
            "c_custkey": pa.array(ck, pa.int64()),
            "c_nationkey": pa.array(
                group.column("nationkey").to_numpy(
                    zero_copy_only=False)[isc], pa.int64()),
            "n_orders": pa.array(np.where(hit, sum_c[pos] if len(uk)
                                          else 0, 0), pa.int64()),
            "total_cents": pa.array(np.where(hit, sum_t[pos] if len(uk)
                                             else 0, 0), pa.int64()),
        })

    bucket = _mod_bucket("custkey", "cb")
    orders = (_read(f"{sf_dir}/orders.parquet",
                    columns=["o_custkey", "o_totalprice"])
              .map_batches(o_partial, batch_format="pyarrow"))
    custs = (_read(f"{sf_dir}/customer.parquet",
                   columns=["c_custkey", "c_nationkey"])
             .map_batches(c_rows, batch_format="pyarrow"))
    out = (_regroup(orders.union(custs)
                    .map_batches(bucket, batch_format="pyarrow"))
           .groupby("cb")
           .map_groups(left_join, batch_format="pyarrow"))
    return _schema_finalize(out, {
        "c_custkey": pa.int64(), "c_nationkey": pa.int64(),
        "n_orders": pa.int64(), "total_cents": pa.int64()})


def q_knn(sf_dir: str):
    """Exact kNN (J5) via k-ring gather + refinement in pixel space.

    k=3 nearest other documents by squared pixel distance; cell grid =
    zoom-3 cells (1024 px). dist2 stays int64-exact (float64 holds
    integers < 2^53 exactly), so the brute-force SQL twin matches
    bit-for-bit.
    """
    from mapchete_xarray_ray.stages.knn import knn_pipeline

    def to_points(batch: pa.Table) -> pa.Table:
        doc_id = batch.column("doc_id").to_numpy(zero_copy_only=False)
        px = (doc_id * 2654435761) % 16384
        py = (doc_id * 40503) % 8192
        return pa.table({
            "id": pa.array(doc_id, pa.int64()),
            "x": pa.array(px.astype(np.float64)),
            "y": pa.array(py.astype(np.float64)),
        })

    pts = _docs(sf_dir, ["doc_id"]).map_batches(to_points, batch_format="pyarrow")
    out = knn_pipeline(pts, k=3, cell_span=1024.0, ncols=16, nrows=8)

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("id"),
            "neighbor_id": batch.column("neighbor_id"),
            "rank": batch.column("rank"),
            "dist2": batch.column("dist2").cast(pa.int64()),
        })

    return out.map_batches(finalize, batch_format="pyarrow")


SQL_KNN = """
WITH pts AS (
  SELECT doc_id,
         (doc_id * 2654435761) % 16384 AS px,
         (doc_id * 40503) % 8192 AS py
  FROM documents
)
SELECT a.doc_id, b.doc_id AS neighbor_id,
       row_number() OVER (
         PARTITION BY a.doc_id
         ORDER BY (a.px - b.px) * (a.px - b.px) + (a.py - b.py) * (a.py - b.py),
                  b.doc_id
       )::BIGINT AS rank,
       ((a.px - b.px) * (a.px - b.px) + (a.py - b.py) * (a.py - b.py))::BIGINT AS dist2
FROM pts a JOIN pts b ON a.doc_id <> b.doc_id
QUALIFY rank <= 3
"""


# --- training-data ops: dedup / text analysis / ANN ----------------------


def q_dedup_exact(sf_dir: str):
    """Exact dedup (§2.7): hash-partition by content, per-group min id.

    Shuffle moves (doc_id, text_hash) projections; within a hash group,
    grouping is by the exact text so collisions can't merge docs.
    """
    from mapchete_xarray_ray.functions.geocode import stable_hash64

    def add_hash(batch: pa.Table) -> pa.Table:
        h = stable_hash64(batch.column("text").to_numpy(zero_copy_only=False))
        return batch.append_column("text_hash", pa.array(h.astype(np.int64)))

    def first_per_text(group: pa.Table) -> pa.Table:
        # one call per HASH BUCKET (not per text): grouping by a coarse
        # bucket key avoids per-group python-call overhead (a map_groups
        # over 5000 singleton groups costs seconds in calls alone); the
        # in-bucket exact grouping by text is a vectorized pa.group_by
        agg = group.group_by("text").aggregate(
            [("doc_id", "min"), ("doc_id", "count")])
        return pa.table({
            "doc_id": agg.column("doc_id_min"),
            "n_dups": agg.column("doc_id_count").cast(pa.int64()),
        })

    def add_hash_bucket(batch: pa.Table) -> pa.Table:
        batch = add_hash(batch)
        h = batch.column("text_hash").to_numpy()
        return batch.append_column("bucket", pa.array((h % 64).astype(np.int64)))

    return (
        _regroup(_docs(sf_dir, ["doc_id", "text"])
                 .map_batches(add_hash_bucket, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(first_per_text, batch_format="pyarrow")
    )


SQL_DEDUP_EXACT = """
SELECT min(doc_id)::BIGINT AS doc_id, count(*)::BIGINT AS n_dups
FROM documents GROUP BY text
"""


def q_text_quality(sf_dir: str):
    """Quality metrics (training-data text analysis), integer-exact."""
    from mapchete_xarray_ray.stages.text import quality_stage

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(quality_stage, batch_format="pyarrow")
        .select_columns(["doc_id", "n_chars", "n_tokens", "n_punct", "n_digits"])
    )


SQL_TEXT_QUALITY = r"""
SELECT doc_id,
       length(text)::BIGINT AS n_chars,
       array_length(regexp_split_to_array(trim(text, ' ' || chr(9) || chr(10) || chr(12) || chr(13)), '\s+'))::BIGINT AS n_tokens,
       len(regexp_extract_all(text, '[.,;:!?]'))::BIGINT AS n_punct,
       len(regexp_extract_all(text, '[0-9]'))::BIGINT AS n_digits
FROM documents
"""


def q_pii_scrub(sf_dir: str):
    """PII redaction (the curation scrub pass): emails then long digit
    runs replaced by typed placeholders, with per-doc redaction counts.
    Map-only (no exchange), one vectorized RE2 pass per pattern —
    pyarrow and DuckDB share RE2, so the scrubbed TEXT itself is under
    the driver hash, not just the counts."""
    from mapchete_xarray_ray.stages.text import pii_scrub_stage

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(pii_scrub_stage, batch_format="pyarrow")
        .select_columns(["doc_id", "clean_text", "n_emails", "n_numbers"])
    )


def _pii_sql() -> str:
    from mapchete_xarray_ray.stages.text import PII_DIGITS, PII_EMAIL

    # SQL-literal-escape the patterns: today they carry no quote, but
    # the pattern table is meant to be extended and a bare ' would
    # silently malform the twin
    PII_EMAIL = PII_EMAIL.replace("'", "''")
    PII_DIGITS = PII_DIGITS.replace("'", "''")
    return f"""
SELECT doc_id,
       regexp_replace(regexp_replace(text, '{PII_EMAIL}', '<EMAIL>', 'g'),
                      '{PII_DIGITS}', '<NUM>', 'g') AS clean_text,
       len(regexp_extract_all(text, '{PII_EMAIL}'))::BIGINT AS n_emails,
       len(regexp_extract_all(
             regexp_replace(text, '{PII_EMAIL}', '<EMAIL>', 'g'),
             '{PII_DIGITS}'))::BIGINT AS n_numbers
FROM documents
"""


def q_lang_id(sf_dir: str):
    """Stopword-heuristic language ID with per-lang hit counts."""
    from mapchete_xarray_ray.stages.text import langid_stage

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(langid_stage, batch_format="pyarrow")
        .select_columns(["doc_id", "lang_pred", "hits_de", "hits_en",
                         "hits_es", "hits_fr"])
    )


def _langid_sql() -> str:
    from mapchete_xarray_ray.stages.text import langid_sql_parts

    hits, case = langid_sql_parts("text")
    inner = ", ".join(hits[L] for L in sorted(hits))
    return f"""
WITH h AS (SELECT doc_id, {inner} FROM documents)
SELECT doc_id, {case} AS lang_pred,
       h_de AS hits_de, h_en AS hits_en, h_es AS hits_es, h_fr AS hits_fr
FROM h
"""


def q_fingerprint(sf_dir: str):
    """Polynomial rolling-hash document fingerprint (mod 2^64).

    SQL-exact: the DuckDB twin folds the same Horner recurrence
    ``h = h*257 + byte`` in HUGEINT arithmetic (``SQL_FINGERPRINT``).
    Parity domain is ASCII text (SQL reads codepoints, the engine reads
    utf-8 bytes; they coincide for ASCII — the synthetic corpus is
    all-ASCII, asserted cheap in the twin via octet_length=length docs
    in tests)."""
    from mapchete_xarray_ray.stages.text import fingerprint_stage

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(fingerprint_stage, batch_format="pyarrow")
        .select_columns(["doc_id", "fingerprint"])
    )


# DuckDB twin of fingerprint_stage: same Horner fold h = h*257 + byte
# (mod 2^64) in HUGEINT (product < 2^72, far inside the 128-bit range),
# then a two's-complement cast back to the engine's int64 view.
# NOTE raw string: the regex/char classes must reach DuckDB as literal
# backslash escapes (single-quoted SQL literals do not interpret them;
# RE2 does).
SQL_FINGERPRINT = r"""
SELECT doc_id,
       CASE WHEN fp >= 9223372036854775808::HUGEINT
            THEN (fp - 18446744073709551616::HUGEINT)::BIGINT
            ELSE fp::BIGINT END AS fingerprint
FROM (SELECT doc_id,
             list_reduce(list_prepend(0::HUGEINT,
                 list_transform(range(1, length(text) + 1),
                                i -> ascii(substr(text, i, 1))::HUGEINT)),
                 (h, c) -> (h * 257 + c) % 18446744073709551616::HUGEINT) AS fp
      FROM documents)
"""


_MINHASH_PAIR_CACHE: dict[str, "ray.data.MaterializedDataset"] = {}


def clear_query_caches() -> None:
    """Drop memoized intermediates (bench.py calls this between timed
    runs so every query pays its own cost)."""
    _MINHASH_PAIR_CACHE.clear()


def minhash_pairs_pipeline(docs: "ray.data.Dataset",
                           max_segment: int = 1024) -> "ray.data.Dataset":
    """Verified MinHash near-dup pairs (id_a, id_b) over a (doc_id,
    text) Dataset.

    Fully distributed: LSH band buckets -> candidate pairs -> bucketed
    pair dedup on the packed pid -> exact-Jaccard verify via doc-bucket
    co-group (stages/dedup.py machinery). Only the candidate-ID set is
    broadcast; the pair table and document texts never land on the
    driver — shuffled bytes are O(candidate pairs), not O(corpus).

    ``max_segment`` is the degenerate-bucket valve: band segments
    larger than this collapse identical-content members to a
    representative star (see candidate_pairs_bucketed) so an
    identical-doc flood costs O(n) pairs instead of O(n^2); segments
    at or below the cap keep the exact clique, so outputs at test/sf
    scales (largest segment << 1024) are unaffected.
    """
    from mapchete_xarray_ray.stages.dedup import (
        attach_pair_values,
        candidate_pairs_bucketed,
        dedup_pairs_ds,
        jaccard_ge,
        minhash_stage,
        paired_values,
        unpack_pids,
    )

    def minhash_with_bucket(batch: pa.Table) -> pa.Table:
        out = minhash_stage(batch, with_content_hash=True)
        b = out.column("band_hash").to_numpy() % 64
        return out.append_column("bucket", pa.array(b.astype(np.int64)))

    bands = _regroup(docs.map_batches(minhash_with_bucket, batch_format="pyarrow"))
    cands = bands.groupby("bucket").map_groups(
        lambda g: candidate_pairs_bucketed(g, ("band_id", "band_hash"),
                                           chash_col="chash",
                                           max_segment=max_segment),
        batch_format="pyarrow",
    )

    pids = dedup_pairs_ds(cands).materialize()
    paired = attach_pair_values(pids, docs, "text", pa.string())
    vbucket = _mod_bucket("pid", "vb")

    def score(group: pa.Table) -> pa.Table:
        pu, ta, tb = paired_values(group, "text")
        ta = ta.to_numpy(zero_copy_only=False)
        tb = tb.to_numpy(zero_copy_only=False)
        keep = np.fromiter((jaccard_ge(x, y) for x, y in zip(ta, tb)),
                           dtype=bool, count=len(pu))
        ia, ib = unpack_pids(pu[keep])
        return pa.table({"id_a": pa.array(ia, pa.int64()),
                         "id_b": pa.array(ib, pa.int64())})

    return (_regroup(paired.map_batches(vbucket, batch_format="pyarrow"),
                     0.125)
            .groupby("vb")
            .map_groups(score, batch_format="pyarrow"))


def _minhash_pairs_ds(sf_dir: str) -> "ray.data.MaterializedDataset":
    """Memoized-per-sf_dir MATERIALIZED form of
    :func:`minhash_pairs_pipeline` over the documents table (pure
    function of the input files), so dedup_clusters doesn't recompute
    the LSH + verify chain in the same process."""
    if sf_dir in _MINHASH_PAIR_CACHE:
        return _MINHASH_PAIR_CACHE[sf_dir]
    docs = _docs(sf_dir, ["doc_id", "text"])
    result = minhash_pairs_pipeline(docs).materialize()
    _MINHASH_PAIR_CACHE[sf_dir] = result
    return result


def q_minhash_neardup(sf_dir: str):
    """MinHash+LSH near-dup pairs with exact-Jaccard verify >= 0.5.

    SQL-exact BELOW the degenerate-bucket valve threshold: with the
    FNV-1a shingle hash (see ``_minhash_ctes``) the DuckDB twin
    reproduces signatures, band hashes, LSH candidates and the
    integer-threshold verify bit-for-bit as long as no band segment
    holds more than ``max_segment`` (1024) signature-identical docs.
    Above that — an identical-doc flood — the valve in
    ``minhash_pairs_pipeline`` deliberately emits a star around the
    segment representative instead of the quadratic all-pairs listing,
    so the pair SET differs from ``SQL_MINHASH_NEARDUP`` while the
    connected components (what dedup consumes) stay identical; see the
    component-equivalence proof in stages/dedup.py. Pair-exactness vs
    a sequential brute-force oracle is additionally tested in
    tests/test_dedup.py.
    """
    return _schema_finalize(_minhash_pairs_ds(sf_dir),
                            {"id_a": pa.int64(), "id_b": pa.int64()})


def q_dedup_clusters(sf_dir: str):
    """Near-dup CLUSTERS: MinHash-LSH pairs -> DISTRIBUTED connected
    components (stages/dedup.py connected_components_ds — per-round
    bucketed label propagation with pointer-doubling edges; the driver
    sees only a per-round changed count) -> (doc_id, cluster_id) with
    the smallest doc as the canonical keeper. Docs in no pair are
    implicitly their own singleton cluster (omitted — the output lists
    only docs affected by dedup). SQL-exact: the recursive-CTE twin
    closes the same verified pair set (``SQL_DEDUP_CLUSTERS``); the
    component labelling is additionally verified against a union-find
    oracle in tests/test_dedup.py."""
    from mapchete_xarray_ray.stages.dedup import connected_components_ds

    pairs = _minhash_pairs_ds(sf_dir)
    return _schema_finalize(connected_components_ds(pairs),
                            {"doc_id": pa.int64(),
                             "cluster_id": pa.int64()})


def _minhash_ctes() -> str:
    """Shared CTE chain reproducing the ENGINE's full MinHash+LSH
    near-dup chain in DuckDB, bit-for-bit (stages/dedup.py):

    - word-3-gram shingles over the same whitespace class as python
      ``str.split`` (docs under 3 words contribute the whole text,
      empty docs the empty string);
    - FNV-1a64 gram hash in HUGEINT lambdas (each DISTINCT gram string
      hashed once, joined back to its postings);
    - 64 minhash permutations ``((h*a) mod 2^64 + b) mod 2^64 mod
      (2^61-1)`` with the engine's PERM_A/PERM_B constants inlined as
      literals (single source of truth: imported here, not copied);
    - 16 bands x 4 rows, band hash = the engine's wrap-mul/xor fold in
      p-order (``list_reduce`` over ``list(mh ORDER BY p)``);
    - LSH candidates = distinct (id_a < id_b) sharing any band, then
      the exact-Jaccard verify as the INTEGER cross-compare
      ``2*inter >= union`` over distinct gram-hash sets — the same
      test ``jaccard_ge`` applies engine-side, so no float-threshold
      edge exists on either side.
    """
    from mapchete_xarray_ray.stages.dedup import (
        _N_PERM, _ROWS_PER_BAND, PERM_A, PERM_B)
    perm_rows = ",\n      ".join(
        f"({p}, {int(PERM_A[p])}::HUGEINT, {int(PERM_B[p])}::HUGEINT)"
        for p in range(_N_PERM))
    two64 = "18446744073709551616::HUGEINT"
    mersenne = "2305843009213693951::HUGEINT"  # 2^61 - 1
    return rf"""mh_words AS (
    SELECT doc_id,
           list_filter(regexp_split_to_array(text, '[ \t\n\x0b\f\r\x1c-\x1f]+'),
                       w -> w <> '') AS ws
    FROM documents
), mh_grams AS (
    SELECT doc_id, array_to_string(ws[i:i+2], ' ') AS gram
    FROM mh_words, LATERAL unnest(generate_series(1, len(ws) - 2)) AS t(i)
    WHERE len(ws) >= 3
    UNION ALL
    SELECT doc_id, coalesce(array_to_string(ws, ' '), '') AS gram
    FROM mh_words WHERE len(ws) < 3
), mh_dg AS (
    SELECT DISTINCT doc_id, gram FROM mh_grams
), mh_gh AS (
    SELECT gram,
           list_reduce(list_prepend(14695981039346656037::HUGEINT,
               list_transform(range(1, length(gram) + 1),
                              i -> ascii(substr(gram, i, 1))::HUGEINT)),
               (h, c) -> (xor(h, c) * 1099511628211::HUGEINT)
                         % {two64}) AS h
    FROM (SELECT DISTINCT gram FROM mh_dg)
), mh_dh AS (
    SELECT DISTINCT doc_id, h FROM mh_dg JOIN mh_gh USING (gram)
), mh_sizes AS (
    SELECT doc_id, count(*) AS n FROM mh_dh GROUP BY doc_id
), mh_perms AS (
    SELECT * FROM (VALUES
      {perm_rows}) AS t(p, a, b)
), mh_sig AS (
    SELECT doc_id, p,
           min(((h * a) % {two64} + b) % {two64} % {mersenne}) AS mh
    FROM mh_dh, mh_perms GROUP BY doc_id, p
), mh_band AS (
    SELECT doc_id, (p // {_ROWS_PER_BAND})::BIGINT AS band_id,
           list_reduce(list(mh ORDER BY p),
               (acc, v) -> xor((acc * 1099511628211::HUGEINT)
                               % {two64}, v)) AS bh
    FROM mh_sig GROUP BY doc_id, band_id
), mh_cand AS (
    SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b
    FROM mh_band a JOIN mh_band b
      ON a.band_id = b.band_id AND a.bh = b.bh AND a.doc_id < b.doc_id
), mh_inter AS (
    SELECT c.id_a, c.id_b, count(*) AS i
    FROM mh_cand c
    JOIN mh_dh x ON x.doc_id = c.id_a
    JOIN mh_dh y ON y.doc_id = c.id_b AND y.h = x.h
    GROUP BY c.id_a, c.id_b
), mh_pairs AS (
    SELECT c.id_a, c.id_b
    FROM mh_cand c
    JOIN mh_sizes sa ON sa.doc_id = c.id_a
    JOIN mh_sizes sb ON sb.doc_id = c.id_b
    LEFT JOIN mh_inter i ON i.id_a = c.id_a AND i.id_b = c.id_b
    WHERE 2 * coalesce(i.i, 0) >= sa.n + sb.n - coalesce(i.i, 0)
)"""


SQL_MINHASH_NEARDUP = f"""WITH {_minhash_ctes()}
SELECT id_a, id_b FROM mh_pairs
"""

# Min-label closure over the verified pair set (the same recursive-CTE
# pattern as SQL_EMB_DEDUP_CLUSTERS): every doc that appears in a pair
# gets the smallest doc_id of its connected component.
SQL_DEDUP_CLUSTERS = f"""WITH RECURSIVE {_minhash_ctes()},
mh_edges AS (SELECT id_a AS src, id_b AS dst FROM mh_pairs
             UNION ALL SELECT id_b, id_a FROM mh_pairs),
mh_reach(src, dst) AS (
  SELECT src, dst FROM mh_edges
  UNION
  SELECT r.src, e.dst FROM mh_reach r JOIN mh_edges e ON r.dst = e.src
)
SELECT src AS doc_id, least(src, min(dst))::BIGINT AS cluster_id
FROM mh_reach GROUP BY src
"""


# Shared CTE chain computing the per-doc SimHash signature in DuckDB:
# whitespace tokenization (same class as python str.split over ASCII),
# FNV-1a token hash in HUGEINT (bit-identical to stages/dedup.fnv1a64),
# per-bit majority vote, and a two's-complement cast to the engine's
# int64 signature. Tokenless docs get signature 0 via the LEFT JOIN.
_SIMHASH_SIG_CTES = r"""toks AS (
    SELECT doc_id, tok
    FROM (SELECT doc_id,
                 unnest(regexp_split_to_array(text, '[ \t\n\x0b\f\r\x1c-\x1f]+')) AS tok
          FROM documents)
    WHERE tok <> ''
), th AS (
    SELECT doc_id,
           list_reduce(list_prepend(14695981039346656037::HUGEINT,
               list_transform(range(1, length(tok) + 1),
                              i -> ascii(substr(tok, i, 1))::HUGEINT)),
               (h, c) -> (xor(h, c) * 1099511628211::HUGEINT)
                         % 18446744073709551616::HUGEINT) AS h
    FROM toks
), bitvotes AS (
    SELECT doc_id, bits.bit AS bit,
           sum(((h >> bits.bit) & 1::HUGEINT)::BIGINT) AS ones,
           count(*) AS n
    FROM th, (SELECT unnest(range(0, 64)) AS bit) bits
    GROUP BY doc_id, bits.bit
), sigsum AS (
    SELECT doc_id,
           sum(CASE WHEN ones * 2 > n THEN (1::HUGEINT << bit)
                    ELSE 0::HUGEINT END) AS s
    FROM bitvotes GROUP BY doc_id
), sig AS (
    SELECT d.doc_id,
           CASE WHEN s IS NULL THEN 0::BIGINT
                WHEN s >= 9223372036854775808::HUGEINT
                THEN (s - 18446744073709551616::HUGEINT)::BIGINT
                ELSE s::BIGINT END AS simhash
    FROM documents d LEFT JOIN sigsum ON d.doc_id = sigsum.doc_id
)"""

SQL_SIMHASH = f"WITH {_SIMHASH_SIG_CTES}\nSELECT doc_id, simhash FROM sig"

# Brute-force O(N^2) self-join oracle for the blocked near-dup path —
# a true oracle because 4x16-bit chunk blocking is pigeonhole-COMPLETE
# for Hamming <= 3 (proven in tests/test_dedup.py), so the engine's
# candidate generation misses nothing the brute force finds.
SQL_SIMHASH_NEARDUP = f"""WITH {_SIMHASH_SIG_CTES}
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       bit_count(xor(a.simhash, b.simhash))::BIGINT AS hamming
FROM sig a JOIN sig b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
"""


def q_simhash(sf_dir: str):
    """64-bit SimHash signature per doc.

    SQL-exact since the token hash moved to FNV-1a (stages/dedup.py
    ``fnv1a64`` — reproducible in DuckDB HUGEINT lambdas; ASCII parity
    domain, see ``fnv1a64`` docstring)."""
    from mapchete_xarray_ray.stages.dedup import simhash_stage

    def sig_only(batch: pa.Table) -> pa.Table:
        out = simhash_stage(batch)
        # one row per doc (simhash_stage emits 4 blocking rows)
        return (out.group_by("doc_id")
                   .aggregate([("sig", "min")])
                   .rename_columns(["doc_id", "simhash"]))

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        sig_only, batch_format="pyarrow")


def q_simhash_neardup(sf_dir: str):
    """SimHash near-dup pairs (Hamming <= 3): 4x16-bit chunk blocking
    (pigeonhole-complete for <=3) -> bucketed pair dedup -> exact
    Hamming verify with signatures attached by doc-bucket co-group
    (the same distributed machinery as the MinHash path — no
    corpus-sized signature broadcast). SQL-exact: blocking is
    pigeonhole-complete for Hamming <= 3 (proven in
    tests/test_dedup.py), so the brute-force self-join twin
    ``SQL_SIMHASH_NEARDUP`` sees identical pairs.
    """
    from mapchete_xarray_ray.stages.dedup import (
        attach_pair_values,
        batch_simhash64,
        candidate_pairs_bucketed,
        dedup_pairs_ds,
        hamming64,
        paired_values,
        simhash_stage,
        unpack_pids,
    )

    docs = _docs(sf_dir, ["doc_id", "text"])

    def stage_with_bucket(batch: pa.Table) -> pa.Table:
        out = simhash_stage(batch)
        b = out.column("chunk_val").to_numpy() % 64
        return out.append_column("bucket", pa.array(b.astype(np.int64)))

    rows = _regroup(docs.map_batches(stage_with_bucket, batch_format="pyarrow"))
    cands = rows.groupby("bucket").map_groups(
        lambda g: candidate_pairs_bucketed(g, ("chunk_id", "chunk_val")),
        batch_format="pyarrow",
    )

    pids = dedup_pairs_ds(cands).materialize()

    def sig_fn(kept: pa.Table) -> pa.Array:
        # recompute signatures ONLY for candidate docs (the id filter
        # runs before this hook) — cheaper than shipping a second
        # full-corpus signature pass through the shuffle
        sigs = batch_simhash64(kept.column("text").to_pylist())
        return pa.array(sigs.astype(np.int64), pa.int64())

    paired = attach_pair_values(pids, docs, "sig", pa.int64(),
                                value_fn=sig_fn)
    vbucket = _mod_bucket("pid", "vb")

    def score(group: pa.Table) -> pa.Table:
        pu, sa, sb = paired_values(group, "sig")
        sa = sa.to_numpy(zero_copy_only=False).astype(np.uint64)
        sb = sb.to_numpy(zero_copy_only=False).astype(np.uint64)
        d = hamming64(sa, sb)
        keep = d <= 3
        ia, ib = unpack_pids(pu[keep])
        return pa.table({"id_a": pa.array(ia, pa.int64()),
                         "id_b": pa.array(ib, pa.int64()),
                         "hamming": pa.array(d[keep], pa.int64())})

    out = (_regroup(paired.map_batches(vbucket, batch_format="pyarrow"),
                    0.125)
           .groupby("vb")
           .map_groups(score, batch_format="pyarrow"))
    return _schema_finalize(out, {"id_a": pa.int64(), "id_b": pa.int64(),
                                  "hamming": pa.int64()})


SQL_NGRAM_JACCARD = r"""
WITH g AS (
    SELECT doc_id,
           list_distinct(CASE WHEN len(words) >= 3
               THEN list_transform(range(1, len(words) - 1),
                                   i -> array_to_string(words[i:i+2], ' '))
               ELSE [coalesce(array_to_string(words, ' '), '')] END) AS grams
    FROM (SELECT doc_id,
                 list_filter(regexp_split_to_array(text, '[ \t\n\x0b\f\r\x1c-\x1f]+'),
                             w -> w <> '') AS words
          FROM documents)
)
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       (len(list_intersect(a.grams, b.grams))::DOUBLE
        / (len(a.grams) + len(b.grams)
           - len(list_intersect(a.grams, b.grams)))) AS jaccard
FROM g a JOIN g b ON a.doc_id < b.doc_id
WHERE 2 * len(list_intersect(a.grams, b.grams))
      >= len(a.grams) + len(b.grams) - len(list_intersect(a.grams, b.grams))
"""


def q_ngram_jaccard(sf_dir: str):
    """EXACT n-gram Jaccard near-dup pairs (word 3-grams, tau=0.5).

    Unlike the MinHash path this finds every qualifying pair, not an
    LSH approximation — candidate generation is AllPairs/PPJoin prefix
    filtering in document-frequency order (stages/dedup.py): explode
    docs to distinct (doc_id, gram_hash) rows; one gram-bucketed
    groupby attaches each gram's df (the bucket holds all its
    postings — no separate DF pass); one doc-bucketed groupby selects
    each doc's first ``n - ceil(tau*n) + 1`` grams by ascending
    (df, hash) — candidate-complete for Jaccard >= tau while indexing
    rare grams first; one gram-bucketed groupby expands prefix posting
    lists to candidate pairs with the PPJoin length + positional
    filters applied at emission. Then the shared distributed machinery:
    bucketed pair dedup -> doc-bucket co-group attach of each doc's
    sorted distinct gram-hash array (~8 B/gram, not the text) ->
    vectorized exact set-Jaccard verify. Shuffled bytes are O(gram
    postings + candidate pairs); nothing corpus-scale touches the
    driver. SQL-exact vs the brute-force O(N^2) self-join twin (integer
    cross-compare ``2*inter >= union`` on both sides — no float
    threshold edge; the twin intersects gram STRINGS, the engine their
    64-bit hashes — identical up to 2^-64-odds hash collisions)."""
    from mapchete_xarray_ray.stages.dedup import (
        attach_pair_values,
        dedup_pairs_ds,
        doc_gram_stage,
        gram_array_fn,
        gram_df_attach,
        ngram_prefix_select,
        paired_values,
        ppjoin_pairs_bucketed,
        unpack_pids,
    )

    docs = _docs(sf_dir, ["doc_id", "text"])

    def grams_with_gbucket(batch: pa.Table) -> pa.Table:
        out = doc_gram_stage(batch)
        b = out.column("gram_hash").to_numpy() % 64
        return out.append_column("gb", pa.array(b.astype(np.int64)))

    dg = _regroup(docs.map_batches(grams_with_gbucket,
                                   batch_format="pyarrow"))
    with_df = dg.groupby("gb").map_groups(gram_df_attach,
                                          batch_format="pyarrow")
    dbucket = _mod_bucket("doc_id", "db")
    prefix = (_regroup(with_df.map_batches(dbucket, batch_format="pyarrow"))
              .groupby("db")
              .map_groups(ngram_prefix_select, batch_format="pyarrow"))
    gbucket2 = _mod_bucket("gram_hash", "gb")
    cands = (_regroup(prefix.map_batches(gbucket2, batch_format="pyarrow"))
             .groupby("gb")
             .map_groups(ppjoin_pairs_bucketed, batch_format="pyarrow"))

    pids = dedup_pairs_ds(cands).materialize()
    grams_t = pa.list_(pa.int64())
    paired = attach_pair_values(pids, docs, "grams", grams_t,
                                value_fn=gram_array_fn)
    vbucket = _mod_bucket("pid", "vb")

    def score(group: pa.Table) -> pa.Table:
        pu, va, vb = paired_values(group, "grams")
        if isinstance(va, pa.ChunkedArray):
            va = va.combine_chunks()
        if isinstance(vb, pa.ChunkedArray):
            vb = vb.combine_chunks()
        fa, fb = va.flatten().to_numpy(), vb.flatten().to_numpy()
        oa = np.asarray(va.offsets) - (np.asarray(va.offsets)[0])
        ob = np.asarray(vb.offsets) - (np.asarray(vb.offsets)[0])
        n = len(pu)
        inter = np.empty(n, dtype=np.int64)
        union = np.empty(n, dtype=np.int64)
        for i in range(n):
            A = fa[oa[i]:oa[i + 1]]
            B = fb[ob[i]:ob[i + 1]]
            # both sorted unique: count A members present in B
            pos = np.searchsorted(B, A)
            valid = pos < len(B)
            gi = int((B[pos[valid]] == A[valid]).sum())
            inter[i] = gi
            union[i] = len(A) + len(B) - gi
        keep = 2 * inter >= union
        ia, ib = unpack_pids(pu[keep])
        return pa.table({
            "id_a": pa.array(ia, pa.int64()),
            "id_b": pa.array(ib, pa.int64()),
            "jaccard": pa.array(inter[keep] / union[keep], pa.float64()),
        })

    out = (_regroup(paired.map_batches(vbucket, batch_format="pyarrow"),
                    0.5)
           .groupby("vb")
           .map_groups(score, batch_format="pyarrow"))
    return _schema_finalize(out, {"id_a": pa.int64(), "id_b": pa.int64(),
                                  "jaccard": pa.float64()})


SQL_DEDUP_CANONICAL = r"""
WITH RECURSIVE g AS (
    SELECT doc_id,
           list_distinct(CASE WHEN len(words) >= 3
               THEN list_transform(range(1, len(words) - 1),
                                   i -> array_to_string(words[i:i+2], ' '))
               ELSE [coalesce(array_to_string(words, ' '), '')] END) AS grams
    FROM (SELECT doc_id,
                 list_filter(regexp_split_to_array(text, '[ \t\n\x0b\f\r\x1c-\x1f]+'),
                             w -> w <> '') AS words
          FROM documents)
),
pairs AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b
  FROM g a JOIN g b ON a.doc_id < b.doc_id
  WHERE 2 * len(list_intersect(a.grams, b.grams))
        >= len(a.grams) + len(b.grams) - len(list_intersect(a.grams, b.grams))
),
edges AS (SELECT id_a AS src, id_b AS dst FROM pairs
          UNION ALL SELECT id_b, id_a FROM pairs),
reach(src, dst) AS (
  SELECT src, dst FROM edges
  UNION
  SELECT r.src, e.dst FROM reach r JOIN edges e ON r.dst = e.src
),
clust AS (SELECT src AS doc_id, least(src, min(dst)) AS cluster_id
          FROM reach GROUP BY src)
SELECT d.doc_id FROM documents d
LEFT JOIN clust c ON c.doc_id = d.doc_id
WHERE c.cluster_id IS NULL OR c.cluster_id = d.doc_id
"""


def q_dedup_canonical(sf_dir: str):
    """END-TO-END exact near-dup corpus dedup under the driver hash:
    the surviving doc set after removing every non-canonical member of
    an exact word-3-gram Jaccard >= 0.5 cluster (canonical = smallest
    doc_id — the MinHash curation convention, here with NO
    approximation anywhere). Composition: the distributed PPJoin pair
    pipeline (q_ngram_jaccard) -> distributed/adaptive connected
    components -> an anti-join of the corpus against the non-canonical
    id set. The non-canonical set is duplicate-subgraph-sized (the
    quantity dedup exists to keep SMALL), so it broadcasts; the corpus
    itself streams through one vectorized filter. SQL twin = brute
    pairs + recursive-CTE closure + the same keep rule."""
    from mapchete_xarray_ray.stages.dedup import connected_components_ds

    pairs = q_ngram_jaccard(sf_dir)
    cc = connected_components_ds(pairs)

    def non_canonical(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy(zero_copy_only=False)
        c = batch.column("cluster_id").to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": pa.array(d[d != c], pa.int64())})

    drop = collect_table(cc.map_batches(non_canonical,
                                        batch_format="pyarrow"))
    drop_ids = np.sort(drop.column("doc_id").to_numpy(
        zero_copy_only=False)) if drop.num_rows else np.empty(0, np.int64)
    drop_ref = ray.put(drop_ids)

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        hit, _ = sorted_lookup(ray.get(drop_ref), ids)
        return pa.table({"doc_id": pa.array(ids[~hit], pa.int64())})

    out = _docs(sf_dir, ["doc_id"]).map_batches(keep,
                                                batch_format="pyarrow")
    return _schema_finalize(out, {"doc_id": pa.int64()})


def q_stratified_sample(sf_dir: str):
    """Stratified deterministic sample: exactly k=10 docs PER LANGUAGE,
    chosen by hash order (ties by doc_id) — per-batch partial top-k per
    stratum (only k rows per stratum per batch enter the shuffle), one
    small per-stratum groupby for the final pick. The equal-allocation
    sampling a curation pipeline uses to balance languages."""
    K = 10

    def topk_per_lang(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy(zero_copy_only=False)
        lang = t.column("lang").to_numpy(zero_copy_only=False)
        h = (d * 2654435761) % (1 << 31)
        order = np.lexsort((d, h, lang))
        lang_s, d_s = lang[order], d[order]
        new = np.ones(len(d_s), dtype=bool)
        new[1:] = lang_s[1:] != lang_s[:-1]
        starts = np.flatnonzero(new)
        rank = np.arange(len(d_s)) - np.repeat(starts, np.diff(
            np.append(starts, len(d_s))))
        keep = rank < K
        return pa.table({"doc_id": pa.array(d_s[keep], pa.int64()),
                         "lang": pa.array(lang_s[keep], pa.string())})

    def partial(batch: pa.Table) -> pa.Table:
        return topk_per_lang(batch)

    out = (_regroup(_docs(sf_dir, ["doc_id", "lang"])
                    .map_batches(partial, batch_format="pyarrow"), 0.125)
           .groupby("lang")
           .map_groups(topk_per_lang, batch_format="pyarrow"))
    return _schema_finalize(out, {"doc_id": pa.int64(),
                                  "lang": pa.string()})


SQL_STRATIFIED_SAMPLE = """
SELECT doc_id, lang FROM (
  SELECT doc_id, lang, row_number() OVER (
    PARTITION BY lang
    ORDER BY (doc_id * 2654435761) % 2147483648, doc_id) AS rn
  FROM documents) WHERE rn <= 10
"""


def q_ann_cosine(sf_dir: str):
    """Exact cosine top-5 per embedding vs the whole corpus (brute
    force, broadcast query matrix). Output keeps only (vec_id,
    neighbor_id, rank) — rank ordering is float-stable because both
    sides compute double-precision cosines.
    """
    from mapchete_xarray_ray.stages.ann import ann_brute_pipeline

    emb = _read(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    tbl = collect_table(emb)
    q_ids = tbl.column("vec_id").to_numpy(zero_copy_only=False)
    from mapchete_xarray_ray.stages.ann import _embedding_matrix
    q_mat = _embedding_matrix(tbl, "embedding")
    out = ann_brute_pipeline(emb, q_ids, q_mat, k=5)
    return _schema_finalize(out, {"vec_id": pa.int64(),
                                  "neighbor_id": pa.int64(),
                                  "rank": pa.int64()})


SQL_ANN_COSINE = """
SELECT a.vec_id, b.vec_id AS neighbor_id,
       row_number() OVER (
         PARTITION BY a.vec_id
         ORDER BY list_cosine_similarity(a.embedding::DOUBLE[],
                                         b.embedding::DOUBLE[]) DESC,
                  b.vec_id
       )::BIGINT AS rank
FROM embeddings a JOIN embeddings b ON a.vec_id <> b.vec_id
QUALIFY rank <= 5
"""


def q_sample(sf_dir: str):
    """Deterministic 10% sample (SURVEY §2.6): pure map, no shuffle —
    keep rows where hash(doc_id) lands in the first decile. The same
    predicate reproduces the same subset on every run/node."""
    def pick(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy(zero_copy_only=False)
        keep = (d * 2654435761) % 100 < 10
        return batch.filter(pa.array(keep))

    return _docs(sf_dir, ["doc_id", "lang", "n_chars"]).map_batches(
        pick, batch_format="pyarrow")


SQL_SAMPLE = """
SELECT doc_id, lang, n_chars FROM documents
WHERE (doc_id * 2654435761) % 100 < 10
"""


SQL_WEIGHTED_SAMPLE = """
SELECT doc_id, lang, n_chars FROM (
  SELECT doc_id, lang, n_chars,
         ln(((doc_id * 2654435761) % 2147483647 + 1) / 2147483648.0)
           / (n_chars + 1) AS k
  FROM documents
) ORDER BY k DESC, doc_id LIMIT 50
"""


def q_weighted_sample(sf_dir: str):
    """Deterministic weighted sample without replacement (the
    Efraimidis-Spirakis A-ES scheme): k=50 docs with inclusion odds
    proportional to weight = n_chars + 1 — the "sample long documents
    more" knob a curation pipeline wants. Each doc gets an exact
    hash-derived uniform u = ((id*2654435761) % (2^31-1) + 1) / 2^31
    (integer arithmetic + a power-of-two division, bit-identical in
    SQL), key = ln(u)/w, global top-k by key. Pure map + per-batch
    top-(k+8) partials (np.argpartition on the fast numpy log), tiny
    driver merge; the FINAL selection recomputes keys with ``math.log``
    (libm == DuckDB ``ln`` bitwise, numpy's SIMD log is ±1 ulp — the
    8-candidate overselection absorbs any partial-stage rank flip at
    the batch boundary, and the exact final pick pins the twin)."""
    import math

    K, PAD = 50, 8

    def a_es_key(d, w, log):
        u = ((d * 2654435761) % 2147483647 + 1) / 2147483648.0
        return log(u) / w

    def partial(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy(zero_copy_only=False)
        w = batch.column("n_chars").to_numpy(zero_copy_only=False) + 1
        key = a_es_key(d, w, np.log)
        if len(d) > K + PAD:
            idx = np.argpartition(-key, K + PAD)[:K + PAD]
            batch = batch.take(pa.array(np.sort(idx)))
        return batch

    cands = collect_table(
        _docs(sf_dir, ["doc_id", "lang", "n_chars"])
        .map_batches(partial, batch_format="pyarrow"))
    d = cands.column("doc_id").to_numpy(zero_copy_only=False)
    w = cands.column("n_chars").to_numpy(zero_copy_only=False) + 1
    key = np.array([math.log(v) for v in
                    ((d * 2654435761) % 2147483647 + 1) / 2147483648.0])
    key = key / w
    order = np.lexsort((d, -key))[:K]
    return cands.take(pa.array(np.sort(order)))


# --- relational / windowed aggregates (engine breadth) -------------------


def q_lineitem_agg(sf_dir: str):
    """TPC-H-Q1-shaped aggregate with map-side partials: per batch one
    partial row per (returnflag, linestatus), then a tiny groupby.
    Monetary sums stay integer (cents) so the SQL twin is bit-exact.
    """
    def partial(batch: pa.Table) -> pa.Table:
        qty = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        t = pa.table({
            "l_returnflag": batch.column("l_returnflag"),
            "l_linestatus": batch.column("l_linestatus"),
            "qty": pa.array(np.floor(qty).astype(np.int64)),
            "price_cents": pa.array(np.floor(price * 100).astype(np.int64)),
            "one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
        })
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("price_cents", "sum"), ("one", "sum")])
        return g.rename_columns(
            ["l_returnflag", "l_linestatus", "sum_qty", "sum_price_cents", "n_rows"])

    ds = (
        _regroup(_read(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_returnflag", "l_linestatus", "l_quantity",
                     "l_extendedprice"])
            .map_batches(partial, batch_format="pyarrow"))
        .groupby(["l_returnflag", "l_linestatus"])
        .sum(["sum_qty", "sum_price_cents", "n_rows"])
    )
    return ds.rename_columns({
        "sum(sum_qty)": "sum_qty",
        "sum(sum_price_cents)": "sum_price_cents",
        "sum(n_rows)": "n_rows",
    })


SQL_LINEITEM_AGG = """
SELECT l_returnflag, l_linestatus,
       sum(floor(l_quantity)::BIGINT)::BIGINT AS sum_qty,
       sum(floor(l_extendedprice * 100)::BIGINT)::BIGINT AS sum_price_cents,
       count(*)::BIGINT AS n_rows
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def q_events_tumbling(sf_dir: str):
    """Tumbling 1-hour windows per event_type (streaming-shaped
    aggregate, SURVEY §2.9 note: warc_ts/event-time as a data column).
    Pre-aggregated per batch; window id = epoch_us // 3600e6.
    """
    W = 3_600_000_000

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        val = batch.column("value").to_numpy(zero_copy_only=False)
        t = pa.table({
            "event_type": batch.column("event_type"),
            "window_id": pa.array(ts // W),
            "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            "value_milli": pa.array(np.floor(val * 1000).astype(np.int64)),
        })
        g = t.group_by(["event_type", "window_id"]).aggregate(
            [("n", "sum"), ("value_milli", "sum")])
        return g.rename_columns(["event_type", "window_id", "n", "value_milli"])

    ds = (
        _regroup(_read(f"{sf_dir}/events.parquet",
                                       columns=["ts", "event_type", "value"])
                 .map_batches(partial, batch_format="pyarrow"))
        .groupby(["event_type", "window_id"])
        .sum(["n", "value_milli"])
    )
    return ds.rename_columns({"sum(n)": "n_events",
                              "sum(value_milli)": "sum_value_milli"})


SQL_EVENTS_TUMBLING = """
SELECT event_type, epoch_us(ts) // 3600000000 AS window_id,
       count(*)::BIGINT AS n_events,
       sum(floor(value * 1000)::BIGINT)::BIGINT AS sum_value_milli
FROM events GROUP BY event_type, window_id
"""


def q_events_sessions(sf_dir: str):
    """Session windows per user (gap > 30 min splits), the stream-shaped
    per-key stateful op: partition by user_id, order by (ts, event_id)
    within the group, linear scan emits sessions. The ordering rule is
    part of the operator contract (same ORDER BY in the SQL twin).
    """
    GAP = 1_800_000_000  # 30 min in us

    def sessions(group: pa.Table) -> pa.Table:
        # one python call per user-hash BUCKET; all users in the bucket
        # are sessionized in one lexsort + segment-arithmetic pass
        eid = group.column("event_id").to_numpy(zero_copy_only=False)
        ts = group.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        uid = group.column("user_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, ts = uid[order], ts[order]
        n = len(ts)
        new_sess = np.ones(n, dtype=np.int64)
        if n > 1:
            new_sess[1:] = ((uid[1:] != uid[:-1])
                            | (ts[1:] - ts[:-1] > GAP)).astype(np.int64)
        # per-user session numbering: global cumsum rebased at each
        # user's first row (whose new_sess is always 1)
        cs = np.cumsum(new_sess)
        user_first = np.ones(n, dtype=bool)
        user_first[1:] = uid[1:] != uid[:-1]
        base = np.repeat(cs[user_first] - 1, np.diff(
            np.append(np.flatnonzero(user_first), n)))
        session_id = cs - base
        # per-session aggregates via segment boundaries
        starts = np.flatnonzero(new_sess)
        ends = np.append(starts[1:], n)
        return pa.table({
            "user_id": pa.array(uid[starts], pa.int64()),
            "session_id": pa.array(session_id[starts], pa.int64()),
            "start_us": pa.array(ts[starts], pa.int64()),
            "end_us": pa.array(ts[ends - 1], pa.int64()),
            "n_events": pa.array(ends - starts, pa.int64()),
        })

    add_bucket = _mod_bucket("user_id")
    return (
        _regroup(_read(f"{sf_dir}/events.parquet",
                       columns=["event_id", "ts", "user_id"])
                 .map_batches(add_bucket, batch_format="pyarrow"),
                 per_cpu=0.5)
        .groupby("bucket")
        .map_groups(sessions, batch_format="pyarrow")
    )


SQL_EVENTS_SESSIONS = """
WITH o AS (
  SELECT user_id, event_id, epoch_us(ts) AS ts_us,
         CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER w > 1800000000
                OR lag(epoch_us(ts)) OVER w IS NULL
              THEN 1 ELSE 0 END AS new_sess
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), s AS (
  SELECT user_id, ts_us,
         sum(new_sess) OVER (PARTITION BY user_id ORDER BY ts_us, event_id
                             ROWS UNBOUNDED PRECEDING) AS session_id
  FROM o
)
SELECT user_id, session_id::BIGINT AS session_id,
       min(ts_us)::BIGINT AS start_us, max(ts_us)::BIGINT AS end_us,
       count(*)::BIGINT AS n_events
FROM s GROUP BY user_id, session_id
"""


def q_ann_ivf(sf_dir: str):
    """IVF approximate similarity search (the scale path next to the
    brute-force baseline): k-means inverted lists + nprobe probing.
    SQL-exact via the integer-quantized k-means
    (stages/ann.ann_ivf_int_pipeline): hash-rank init, integer-dot
    assignment and integer centroid updates make every data-dependent
    branch reproducible in DuckDB (unrolled rounds — the BPE-twin
    pattern); only the in-list cosine ranking is float, the same
    established form as SQL_ANN_COSINE. Planted-twin recall and
    partition invariance are asserted in tests/test_ann.py."""
    from mapchete_xarray_ray.stages.ann import ann_ivf_int_pipeline

    emb = _read(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    out = ann_ivf_int_pipeline(emb, dim=64, k=5, n_clusters=16, nprobe=4,
                               rounds=_ANN_ROUNDS)
    return _schema_finalize(out, {"vec_id": pa.int64(),
                                  "neighbor_id": pa.int64(),
                                  "rank": pa.int64()})


def q_ann_pq(sf_dir: str):
    """Product-quantization ANN (compressed ADC scan — the third scale
    path next to IVF and LSH; see stages/ann.ann_pq_int_pipeline for
    the scale contract). SQL-exact: integer subspace codebooks and an
    integer-ADC score mean the DuckDB twin reproduces codes and
    neighbor ranking bit-for-bit. Planted-twin recall and partition
    invariance are asserted in tests/test_ann.py."""
    from mapchete_xarray_ray.stages.ann import ann_pq_int_pipeline

    emb = _read(f"{sf_dir}/embeddings.parquet",
                columns=["vec_id", "embedding"])
    out = ann_pq_int_pipeline(emb, dim=64, k=5, m_sub=8, n_codes=16,
                              rounds=_ANN_ROUNDS)
    return _schema_finalize(out, {"vec_id": pa.int64(),
                                  "neighbor_id": pa.int64(),
                                  "rank": pa.int64()})


_ANN_ROUNDS = 3  # Lloyd rounds for the int k-means (engine AND twins)


def _hash_init_cte(n: int) -> str:
    """CTE: the ``n`` vectors with smallest ((vec_id*2654435761) %
    2^32, vec_id) plus their 1e6-normalized integer form — the
    engine's stages/ann.hash_init_vectors + normq_int."""
    return f"""hinit AS (
  SELECT vec_id, eq,
         row_number() OVER (
           ORDER BY (vec_id::HUGEINT * 2654435761) % 4294967296, vec_id
         ) - 1 AS c
  FROM el QUALIFY c < {n}
)"""


_NORMQ = ("CASE WHEN ssq = 0 THEN sv ELSE "
          "list_transform(sv, x -> floor(x::DOUBLE * 1000000.0 "
          "/ sqrt(ssq::DOUBLE))::BIGINT) END")


def _ann_ivf_sql(dim: int = 64, n_clusters: int = 16, nprobe: int = 4,
                 k: int = 5, rounds: int = _ANN_ROUNDS) -> str:
    """DuckDB twin of ann_ivf_int_pipeline: hash-rank init, ``rounds``
    unrolled integer-Lloyd CTE blocks (assign = argmax integer dot,
    tie -> lowest cluster; update = integer component sums re-quantized
    by floor(s*1e6/sqrt(ssq)); empty cluster keeps its centroid), then
    top-1 inverted lists, top-``nprobe`` probes and the cosine rank."""
    d1 = dim + 1
    parts = [f"""{_quant_emb_cte()}, {_hash_init_cte(n_clusters)}, cent0 AS (
  SELECT c, {_NORMQ} AS v
  FROM (SELECT c, eq AS sv,
               list_sum(list_transform(eq, y -> y::HUGEINT * y)) AS ssq
        FROM hinit)
)"""]
    for r in range(rounds):
        parts.append(f"""d{r} AS (
  SELECT e.vec_id, c.c,
         list_sum(list_transform(range(1, {d1}),
                                 i -> e.eq[i] * c.v[i])) AS d
  FROM el e, cent{r} c
), a{r} AS (
  SELECT vec_id, c FROM (
    SELECT vec_id, c,
           row_number() OVER (PARTITION BY vec_id ORDER BY d DESC, c) AS rn
    FROM d{r}) WHERE rn = 1
), s{r} AS (
  SELECT a.c, t.i, sum(e.eq[t.i])::HUGEINT AS s
  FROM a{r} a JOIN el e USING (vec_id)
  CROSS JOIN (SELECT unnest(generate_series(1, {dim})) AS i) t
  GROUP BY a.c, t.i
), u{r} AS (
  SELECT c, sv, list_sum(list_transform(sv, y -> y * y)) AS ssq
  FROM (SELECT c, list(s ORDER BY i) AS sv FROM s{r} GROUP BY c)
), cent{r + 1} AS (
  SELECT p.c, coalesce(n.nv, p.v) AS v
  FROM cent{r} p LEFT JOIN
       (SELECT c, {_NORMQ} AS nv FROM u{r}) n USING (c)
)""")
    parts.append(f"""fd AS (
  SELECT e.vec_id, c.c,
         list_sum(list_transform(range(1, {d1}),
                                 i -> e.eq[i] * c.v[i])) AS d
  FROM el e, cent{rounds} c
), fr AS (
  SELECT vec_id, c,
         row_number() OVER (PARTITION BY vec_id ORDER BY d DESC, c) AS rn
  FROM fd
), cand AS (
  SELECT q.vec_id, v.vec_id AS neighbor_id
  FROM (SELECT vec_id, c FROM fr WHERE rn <= {nprobe}) q
  JOIN (SELECT vec_id, c FROM fr WHERE rn = 1) v USING (c)
  WHERE q.vec_id <> v.vec_id
)""")
    return ("WITH " + ",\n".join(parts) + f"""
SELECT ca.vec_id, ca.neighbor_id,
       row_number() OVER (
         PARTITION BY ca.vec_id
         ORDER BY list_cosine_similarity(a.emb, b.emb) DESC,
                  ca.neighbor_id
       )::BIGINT AS rank
FROM cand ca
JOIN el a ON a.vec_id = ca.vec_id
JOIN el b ON b.vec_id = ca.neighbor_id
QUALIFY rank <= {k}
""")


def _ann_pq_sql(dim: int = 64, m_sub: int = 8, n_codes: int = 16,
                k: int = 5, rounds: int = _ANN_ROUNDS) -> str:
    """DuckDB twin of ann_pq_int_pipeline: per-subspace integer Lloyd
    rounds (assign = argmin integer L2, tie -> lowest code; update =
    floor(sum/count) via double division — NEVER SQL ``//``, which
    truncates negatives where python floors), then integer-ADC scores
    ranked by (score DESC, neighbor_id)."""
    ds_ = dim // m_sub
    s1 = ds_ + 1
    parts = [f"""{_quant_emb_cte()}, {_hash_init_cte(n_codes)}, sub AS (
  SELECT e.vec_id, t.m, e.eq[t.m * {ds_} + 1 : t.m * {ds_} + {ds_}] AS sq
  FROM el e CROSS JOIN (SELECT unnest(range(0, {m_sub})) AS m) t
), pb0 AS (
  SELECT t.m, h.c AS k,
         h.eq[t.m * {ds_} + 1 : t.m * {ds_} + {ds_}] AS v
  FROM hinit h CROSS JOIN (SELECT unnest(range(0, {m_sub})) AS m) t
)"""]
    for r in range(rounds):
        parts.append(f"""pd{r} AS (
  SELECT s.vec_id, s.m, b.k,
         list_sum(list_transform(range(1, {s1}),
             i -> (s.sq[i] - b.v[i]) * (s.sq[i] - b.v[i]))) AS d
  FROM sub s JOIN pb{r} b ON b.m = s.m
), pa{r} AS (
  SELECT vec_id, m, k FROM (
    SELECT vec_id, m, k,
           row_number() OVER (PARTITION BY vec_id, m ORDER BY d, k) AS rn
    FROM pd{r}) WHERE rn = 1
), ps{r} AS (
  SELECT a.m, a.k, t.i, sum(s.sq[t.i]) AS sv, count(*) AS n
  FROM pa{r} a JOIN sub s ON s.vec_id = a.vec_id AND s.m = a.m
  CROSS JOIN (SELECT unnest(generate_series(1, {ds_})) AS i) t
  GROUP BY a.m, a.k, t.i
), pu{r} AS (
  SELECT m, k, list(sv ORDER BY i) AS sv, min(n) AS n
  FROM ps{r} GROUP BY m, k
), pb{r + 1} AS (
  SELECT p.m, p.k,
         coalesce(list_transform(u.sv,
                                 x -> floor(x::DOUBLE / u.n)::BIGINT),
                  p.v) AS v
  FROM pb{r} p LEFT JOIN pu{r} u ON u.m = p.m AND u.k = p.k
)""")
    parts.append(f"""pdT AS (
  SELECT s.vec_id, s.m, b.k,
         list_sum(list_transform(range(1, {s1}),
             i -> (s.sq[i] - b.v[i]) * (s.sq[i] - b.v[i]))) AS d
  FROM sub s JOIN pb{rounds} b ON b.m = s.m
), pcode AS (
  SELECT vec_id, m, k FROM (
    SELECT vec_id, m, k,
           row_number() OVER (PARTITION BY vec_id, m ORDER BY d, k) AS rn
    FROM pdT) WHERE rn = 1
), psc AS (
  SELECT q.vec_id AS qid, a.vec_id AS nid,
         sum(list_sum(list_transform(range(1, {s1}),
                                     i -> q.sq[i] * b.v[i]))) AS score
  FROM sub q
  JOIN pcode a ON a.m = q.m
  JOIN pb{rounds} b ON b.m = a.m AND b.k = a.k
  WHERE q.vec_id <> a.vec_id
  GROUP BY q.vec_id, a.vec_id
)""")
    return ("WITH " + ",\n".join(parts) + f"""
SELECT qid AS vec_id, nid AS neighbor_id,
       row_number() OVER (
         PARTITION BY qid ORDER BY score DESC, nid
       )::BIGINT AS rank
FROM psc
QUALIFY rank <= {k}
""")


def q_ann_lsh(sf_dir: str):
    """LSH-bucketed approximate all-pairs top-k. SQL-exact since the
    planes and embeddings are integer-quantized (floor(x*1e6)):
    bucket assignment is a sign test on exact integer dots, so the
    DuckDB twin reproduces the buckets bit-for-bit and ranks within
    each bucket by the same (cosine DESC, vec_id) order as the engine.
    Recall + determinism additionally asserted in tests/test_ann.py."""
    from mapchete_xarray_ray.stages.ann import ann_lsh_pipeline

    emb = _read(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    out = ann_lsh_pipeline(emb, dim=64, k=5, n_planes=6)
    return _schema_finalize(out, {"vec_id": pa.int64(),
                                  "neighbor_id": pa.int64(),
                                  "rank": pa.int64()})


def _plane_literal(planes_q) -> str:
    """(n_planes, dim) int64 -> SQL VALUES rows ``(p, [..dim ints..])``."""
    return ",\n      ".join(
        f"({p}, [{', '.join(str(int(v)) for v in row)}])"
        for p, row in enumerate(planes_q))


def _quant_emb_cte() -> str:
    """CTE exposing each embedding as DOUBLE[] plus its floor(x*1e6)
    integer quantization (the engine's stages/ann.quantize_q)."""
    return """el AS (
  SELECT vec_id, embedding::DOUBLE[] AS emb,
         list_transform(embedding::DOUBLE[],
                        x -> floor(x * 1000000.0)::BIGINT) AS eq
  FROM embeddings
)"""


def _ann_lsh_sql(dim: int = 64, n_planes: int = 6, k: int = 5) -> str:
    """DuckDB twin of ann_lsh: integer-dot sign buckets (plane
    constants imported from stages/ann — single source of truth), then
    exact cosine top-k within each bucket."""
    from mapchete_xarray_ray.stages.ann import hyperplanes_q
    planes = _plane_literal(hyperplanes_q(dim, n_planes))
    return f"""WITH {_quant_emb_cte()}, pl AS (
  SELECT * FROM (VALUES
      {planes}) AS t(p, v)
), dots AS (
  SELECT e.vec_id, pl.p,
         list_sum(list_transform(range(1, {dim + 1}),
                                 i -> e.eq[i] * pl.v[i])) AS d
  FROM el e, pl
), bkt AS (
  SELECT vec_id,
         sum(CASE WHEN d > 0 THEN (1::BIGINT << p) ELSE 0 END)::BIGINT
             AS bucket
  FROM dots GROUP BY vec_id
)
SELECT a.vec_id, b.vec_id AS neighbor_id,
       row_number() OVER (
         PARTITION BY a.vec_id
         ORDER BY list_cosine_similarity(ea.emb, eb.emb) DESC, b.vec_id
       )::BIGINT AS rank
FROM bkt a JOIN bkt b ON a.bucket = b.bucket AND a.vec_id <> b.vec_id
JOIN el ea ON ea.vec_id = a.vec_id
JOIN el eb ON eb.vec_id = b.vec_id
QUALIFY rank <= {k}
"""


def _emb_lsh_sql(dim: int = 64, tau: float = 0.35, n_planes: int = 4,
                 n_bands: int = 16) -> str:
    """DuckDB twin of emb_neardup_lsh: per-band integer-dot sign
    buckets, distinct candidate pairs sharing any (band, bucket), then
    the same exact-cosine >= tau verify as SQL_EMB_NEARDUP."""
    from mapchete_xarray_ray.stages.ann import _HP_SEED, hyperplanes_q
    rows = ",\n      ".join(
        f"({b}, {p}, [{', '.join(str(int(v)) for v in row)}])"
        for b in range(n_bands)
        for p, row in enumerate(hyperplanes_q(dim, n_planes,
                                              seed=_HP_SEED + 1 + b)))
    return f"""WITH {_quant_emb_cte()}, plb AS (
  SELECT * FROM (VALUES
      {rows}) AS t(band, p, v)
), dots AS (
  SELECT e.vec_id, plb.band, plb.p,
         list_sum(list_transform(range(1, {dim + 1}),
                                 i -> e.eq[i] * plb.v[i])) AS d
  FROM el e, plb
), bktb AS (
  SELECT vec_id, band,
         sum(CASE WHEN d > 0 THEN (1::BIGINT << p) ELSE 0 END)::BIGINT
             AS bucket
  FROM dots GROUP BY vec_id, band
), cand AS (
  SELECT DISTINCT a.vec_id AS id_a, b.vec_id AS id_b
  FROM bktb a JOIN bktb b
    ON a.band = b.band AND a.bucket = b.bucket AND a.vec_id < b.vec_id
)
SELECT c.id_a, c.id_b
FROM cand c
JOIN el a ON a.vec_id = c.id_a
JOIN el b ON b.vec_id = c.id_b
WHERE list_cosine_similarity(a.emb, b.emb) >= {tau}
"""


def _text_payload(batch: pa.Table, *, ascii_only: bool = False) -> pa.Table:
    """``(doc_id, text)`` -> ``(id, payload: binary)``: the input
    adapter shared by the multimodal queries (image/audio/frame) —
    text bytes standing in for opaque payloads. utf-8 string ->
    binary is a zero-copy Arrow cast (identical bytes to per-row
    ``text.encode("utf-8")``, no python loop). ``ascii_only`` keeps
    only single-byte texts (byte length == codepoint length), the
    subset where byte slicing and the SQL twin's character ``substr``
    agree exactly — the frame sampler needs it, the whole-payload
    image/audio kernels do not."""
    import pyarrow.compute as pc

    ids = batch.column("doc_id").cast(pa.int64())
    text = batch.column("text")
    if ascii_only:
        keep = pc.equal(pc.binary_length(text), pc.utf8_length(text))
        ids, text = ids.filter(keep), text.filter(keep)
    return pa.table({"id": ids, "payload": text.cast(pa.binary())})


def q_image_features(sf_dir: str):
    """Multimodal plumbing as a first-class pipeline under the driver's
    EXACT hash: documents' text bytes stand in for opaque image
    payloads (the real decode backend is stubbed — see
    stages/multimodal.py); the actor-pool decode stage, small-batch
    sizing and typed output schema are the real thing. The fake decode
    is plain byte arithmetic (length/byte-class-count dims + byte
    histogram), so the SQL twin reproduces width, height and the
    lowercase-class feature exactly — any drift in the decode plumbing
    flips the hash."""
    from mapchete_xarray_ray.stages.multimodal import ImageDecodeStage

    ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(_text_payload, batch_format="pyarrow")
        .map_batches(
            ImageDecodeStage,
            fn_constructor_kwargs=dict(backend="fake"),
            batch_format="pyarrow",
            batch_size=256,     # wide binary rows -> bounded batches
            concurrency=2,
        )
    )

    def flatten(batch: pa.Table) -> pa.Table:
        feats = np.asarray(batch.column("feature").to_pylist(), dtype=np.float64)
        # bucket 3 = bytes 0x60-0x7f (lowercase ascii) — the densest,
        # most content-sensitive histogram class for text payloads
        return pa.table({
            "doc_id": batch.column("id"),
            "width": batch.column("width"),
            "height": batch.column("height"),
            "feat3_milli": pa.array(np.floor(feats[:, 3] * 1000).astype(np.int64))
            if len(feats) else pa.array([], pa.int64()),
        })

    return ds.map_batches(flatten, batch_format="pyarrow")


SQL_IMAGE_FEATURES = r"""
WITH b AS (
  SELECT doc_id,
         strlen(text)::BIGINT AS len,
         length(regexp_replace(text, '[^\x20-\x3f]', '', 'g'))::BIGINT AS h1,
         length(regexp_replace(text, '[^\x60-\x7f]', '', 'g'))::BIGINT AS h3
  FROM documents)
SELECT doc_id,
       16 + (len % 256) AS width,
       CASE WHEN len = 0 THEN 16 ELSE 16 + (h1 % 256) END AS height,
       CASE WHEN len = 0 THEN 0
            ELSE floor((h3::DOUBLE / len) * 1000)::BIGINT END AS feat3_milli
FROM b
"""


SQL_AUDIO_FEATURES = r"""
WITH s AS (
  SELECT doc_id, i,
         CASE WHEN v >= 32768 THEN v - 65536 ELSE v END AS samp
  FROM (
    SELECT d.doc_id, t.i,
           ascii(substr(d.text, (2 * t.i + 1)::INT, 1))
           + 256 * ascii(substr(d.text, (2 * t.i + 2)::INT, 1)) AS v
    FROM documents d,
         LATERAL (SELECT unnest(range(len(d.text) // 2)) AS i) t
  )
),
z AS (
  SELECT doc_id,
         count(*) FILTER (WHERE samp * nxt < 0)::BIGINT AS n_zero_cross
  FROM (SELECT doc_id, samp,
               lead(samp) OVER (PARTITION BY doc_id ORDER BY i) AS nxt
        FROM s)
  GROUP BY doc_id
),
w AS (
  SELECT doc_id, i // 64 AS win, sum(samp * samp)::BIGINT AS energy
  FROM s GROUP BY doc_id, i // 64
),
p AS (
  SELECT doc_id, win, energy,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY energy DESC, win) AS rn
  FROM w
)
SELECT d.doc_id,
       (len(d.text) // 2)::BIGINT AS n_samples,
       coalesce(z.n_zero_cross, 0)::BIGINT AS n_zero_cross,
       coalesce(p.win, -1)::BIGINT AS peak_window,
       coalesce(p.energy, 0)::BIGINT AS peak_energy
FROM documents d
LEFT JOIN z USING (doc_id)
LEFT JOIN (SELECT * FROM p WHERE rn = 1) p USING (doc_id)
"""


def q_audio_features(sf_dir: str):
    """Multimodal AUDIO features under the driver's EXACT hash: the
    documents' text bytes stand in for opaque PCM payloads, and unlike
    the image/video fakes the decode here is the real thing —
    little-endian int16 PCM is pure byte arithmetic
    (stages/multimodal.py AudioFeatureStage), so sample decode,
    zero-crossing detection and the 64-sample windowed-energy peak all
    run exactly and integer-valued. The SQL twin re-derives the
    samples with ascii(substr(..)) byte arithmetic (ASCII corpus:
    codepoint == utf-8 byte, same domain note as image_features)."""
    from mapchete_xarray_ray.stages.multimodal import AudioFeatureStage

    ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(_text_payload, batch_format="pyarrow")
        .map_batches(
            AudioFeatureStage,
            fn_constructor_kwargs=dict(backend="pcm16"),
            batch_format="pyarrow",
            batch_size=256,     # wide binary rows -> bounded batches
            concurrency=2,
        )
    )

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["doc_id", "n_samples", "n_zero_cross", "peak_window",
             "peak_energy"])

    out = ds.map_batches(rename, batch_format="pyarrow")
    return _schema_finalize(out, {
        "doc_id": pa.int64(), "n_samples": pa.int64(),
        "n_zero_cross": pa.int64(), "peak_window": pa.int64(),
        "peak_energy": pa.int64()})


def q_orders_by_nation(sf_dir: str):
    """Relational broadcast join: orders x customer x nation -> per-nation
    order count + revenue (cents). The dimension tables are the small
    side (J2 pattern): shipped once via ray.put, probed per batch with a
    vectorized int-index lookup — no shuffle for the join, one tiny
    groupby for the aggregate. (For big-x-big joins Ray Data's hash
    ``Dataset.join`` exists; the broadcast shape is the scale-correct
    choice whenever one side fits in memory — admin tables always do.)
    """
    cust = collect_table(_read(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]))
    nation = collect_table(_read(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]))
    c_key = cust.column("c_custkey").to_numpy()
    c_nat = cust.column("c_nationkey").to_numpy()
    lookup = np.full(int(c_key.max()) + 2, -1, dtype=np.int64)
    lookup[c_key] = c_nat
    # dense name lookup: numpy object-array indexed by nation key — the
    # per-batch probe is one fancy-index, no per-row dict.get
    n_key = nation.column("n_nationkey").to_numpy()
    name_lkp = np.full(int(n_key.max()) + 2, "UNKNOWN", dtype=object)
    name_lkp[n_key] = nation.column("n_name").to_numpy(zero_copy_only=False)
    ref = ray.put((lookup, name_lkp))

    def partial(batch: pa.Table) -> pa.Table:
        lkp, names = ray.get(ref)
        ck = batch.column("o_custkey").to_numpy(zero_copy_only=False)
        price = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        natkey = lkp[ck]
        t = pa.table({
            "n_name": pa.array(names[np.clip(natkey, -1, len(names) - 1)],
                               pa.string()),
            "n_orders": pa.array(np.ones(len(ck), dtype=np.int64)),
            "revenue_cents": pa.array(np.floor(price * 100).astype(np.int64)),
        })
        g = t.group_by("n_name").aggregate([("n_orders", "sum"),
                                            ("revenue_cents", "sum")])
        return g.rename_columns(["n_name", "n_orders", "revenue_cents"])

    ds = (
        _regroup(_read(
            f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])
            .map_batches(partial, batch_format="pyarrow"))
        .groupby("n_name")
        .sum(["n_orders", "revenue_cents"])
    )
    return ds.rename_columns({"sum(n_orders)": "n_orders",
                              "sum(revenue_cents)": "revenue_cents"})


SQL_ORDERS_BY_NATION = """
SELECT n.n_name,
       count(*)::BIGINT AS n_orders,
       sum(floor(o.o_totalprice * 100)::BIGINT)::BIGINT AS revenue_cents
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY n.n_name
"""


def q_top_users(sf_dir: str):
    """Global top-10 users by event count (§2.6 top-k): pre-aggregated
    partials -> small groupby -> driver-side final top-k on the tiny
    per-user aggregate. Ties broken by user_id ascending."""
    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("user_id").aggregate([("user_id", "count")])
        return g.rename_columns(["user_id", "n"])

    per_user = collect_table(
        _regroup(_read(f"{sf_dir}/events.parquet",
                                       columns=["user_id"])
                 .map_batches(partial, batch_format="pyarrow"))
        .groupby("user_id").sum("n"))
    uid = per_user.column("user_id").to_numpy()
    n = per_user.column("sum(n)").to_numpy()
    order = np.lexsort((uid, -n))[:10]
    return pa.table({
        "user_id": pa.array(uid[order], pa.int64()),
        "n_events": pa.array(n[order], pa.int64()),
    })


SQL_TOP_USERS = """
SELECT user_id, count(*)::BIGINT AS n_events
FROM events GROUP BY user_id
ORDER BY n_events DESC, user_id LIMIT 10
"""


def q_events_sliding(sf_dir: str):
    """Sliding windows (size 2h, step 1h): each event replicates to its
    two covering windows inside map_batches (flat_map shape), partials
    pre-aggregated, then a small groupby. Window w covers
    [w*1h, w*1h + 2h)."""
    H = 3_600_000_000

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        w0 = ts // H
        win = np.concatenate([w0, w0 - 1])
        ets = np.concatenate([et, et])
        t = pa.table({
            "event_type": pa.array(ets, pa.string()),
            "window_id": pa.array(win),
            "n": pa.array(np.ones(len(win), dtype=np.int64)),
        })
        g = t.group_by(["event_type", "window_id"]).aggregate([("n", "sum")])
        return g.rename_columns(["event_type", "window_id", "n"])

    ds = (
        _regroup(_read(f"{sf_dir}/events.parquet",
                                       columns=["ts", "event_type"])
                 .map_batches(partial, batch_format="pyarrow"))
        .groupby(["event_type", "window_id"])
        .sum("n")
    )
    return ds.rename_columns({"sum(n)": "n_events"})


SQL_EVENTS_SLIDING = """
SELECT event_type,
       epoch_us(ts) // 3600000000 - off.o AS window_id,
       count(*)::BIGINT AS n_events
FROM events, (VALUES (0), (1)) off(o)
GROUP BY event_type, window_id
"""


def q_running_totals(sf_dir: str):
    """Stateful streaming shape: per-user running aggregates (count,
    sum, last event, MAX GAP between consecutive events) held in keyed
    incremental state fed in ts order — max_gap is order-dependent, so
    this genuinely exercises the stateful path (stages/streaming.py),
    not just a commutative groupby."""
    from mapchete_xarray_ray.stages.streaming import running_totals_group

    add_bucket = _mod_bucket("user_id", mod=32)

    return (
        _regroup(_read(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "ts", "user_id", "value"])
            .map_batches(add_bucket, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(running_totals_group, batch_format="pyarrow")
    )


SQL_RUNNING_TOTALS = """
WITH o AS (
  SELECT user_id, epoch_us(ts) AS ts_us,
         floor(value * 1000)::BIGINT AS v,
         epoch_us(ts) - lag(epoch_us(ts)) OVER
           (PARTITION BY user_id ORDER BY ts, event_id) AS gap
  FROM events
)
SELECT user_id,
       count(*)::BIGINT AS n_events,
       sum(v)::BIGINT AS sum_value_milli,
       max(ts_us)::BIGINT AS last_ts_us,
       coalesce(max(gap), 0)::BIGINT AS max_gap_us
FROM o GROUP BY user_id
"""


SQL_EVENTS_LATE = """
WITH o AS (
  SELECT event_id, user_id, epoch_us(ts) AS ts_us,
         epoch_us(ts)
           + ((event_id % 1000003) * 2654435761) % 600000001
           - 300000000 AS arr_us
  FROM events
), w AS (
  SELECT event_id, user_id, ts_us,
         max(ts_us) OVER (ORDER BY arr_us, event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           - 120000000 AS wm
  FROM o
)
SELECT event_id, user_id, ts_us, (wm - ts_us)::BIGINT AS late_by_us
FROM w WHERE ts_us < wm
"""


def q_events_late(sf_dir: str):
    """Streaming late-data detection under a GLOBAL watermark — the
    side-output every windowed pipeline needs: an event is LATE when
    its event time trails the high-water mark of everything that
    ARRIVED before it by more than the allowed lateness (120 s).

    The synthetic events table is ts-ordered, so a realistic arrival
    process is reconstructed deterministically: arrival time = event
    time + a ±300 s jitter from a modular hash of event_id (out-of-
    order delivery), total arrival order = (arr_us, event_id). The
    same formula runs in the SQL twin — the check is exact.

    A global running max over arrival order is a sequential scan; the
    distributed shape is the classic two-phase prefix aggregate:
    (1) one map pass emits each 10-minute arrival RANGE's max event
    time as a constant-size partial, (2) the driver folds the tiny
    per-range table into an EXCLUSIVE prefix max (range-count-sized —
    the only thing it ever holds) and broadcasts it, (3) a
    range-bucketed co-group sorts each range by arrival and combines
    the broadcast prefix with the in-range exclusive running max, all
    vectorized. Output rows are invariant to the range width — it only
    partitions the scan; at production rates the width is a knob
    (target events-per-range, not wall minutes)."""
    LATE_US = 120 * 1_000_000
    RANGE_US = 600 * 1_000_000  # 10-minute arrival ranges
    NEG = np.iinfo(np.int64).min // 4  # "no prior event" sentinel

    def jitter(e):
        # Knuth multiplier wraps the modulus even for small ids; the
        # pre-reduction keeps the product well inside int64 for any id.
        return ((e % 1000003) * 2654435761) % 600000001 - 300000000

    # materialize = pin the 3-int-column PROJECTION (not the table) for
    # the two passes below; re-scanning parquet twice would cost more
    # than object-store residency at this width, and the object store
    # spills if it must
    ev = _read(f"{sf_dir}/events.parquet",
               columns=["event_id", "ts", "user_id"]).materialize()

    def range_max(batch: pa.Table) -> pa.Table:
        e = batch.column("event_id").to_numpy(zero_copy_only=False)
        t = batch.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        rb, mx = group_reduce((t + jitter(e)) // RANGE_US, (np.maximum, t))
        return pa.table({"rb": pa.array(rb, pa.int64()),
                         "mx": pa.array(mx, pa.int64())})

    part = collect_table(ev.map_batches(range_max,
                                        batch_format="pyarrow"))
    uniq_rb, per_range = group_reduce(
        part.column("rb").to_numpy(zero_copy_only=False),
        (np.maximum, part.column("mx").to_numpy(zero_copy_only=False)))
    # exclusive prefix max across present ranges
    prefix = np.concatenate((
        [NEG], np.maximum.accumulate(per_range)[:-1])) \
        if len(per_range) else np.empty(0, np.int64)
    pref_ref = ray.put((uniq_rb, prefix))

    def add_rb(batch: pa.Table) -> pa.Table:
        e = batch.column("event_id").to_numpy(zero_copy_only=False)
        t = batch.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        return batch.append_column(
            "rb", pa.array(((t + jitter(e)) // RANGE_US).astype(np.int64)))

    def classify(group: pa.Table) -> pa.Table:
        e = group.column("event_id").to_numpy(zero_copy_only=False)
        t = group.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        u = group.column("user_id").to_numpy(zero_copy_only=False)
        arr = t + jitter(e)
        ranges, prefixes = ray.get(pref_ref)
        pos = np.searchsorted(ranges, arr[0] // RANGE_US)
        base = prefixes[pos] if pos < len(ranges) else NEG
        order = np.lexsort((e, arr))
        e_s, t_s, u_s = e[order], t[order], u[order]
        run = np.maximum.accumulate(t_s)
        prior = np.concatenate(([base], np.maximum(run[:-1], base)))
        wm = prior - LATE_US
        late = t_s < wm
        return pa.table({
            "event_id": pa.array(e_s[late], pa.int64()),
            "user_id": pa.array(u_s[late], pa.int64()),
            "ts_us": pa.array(t_s[late], pa.int64()),
            "late_by_us": pa.array(wm[late] - t_s[late], pa.int64()),
        })

    out = (_regroup(ev.map_batches(add_rb, batch_format="pyarrow"))
           .groupby("rb")
           .map_groups(classify, batch_format="pyarrow"))
    return _schema_finalize(out, {
        "event_id": pa.int64(), "user_id": pa.int64(),
        "ts_us": pa.int64(), "late_by_us": pa.int64()})


SQL_FUNNEL = """
WITH f AS (
  SELECT user_id,
         -- funnel is defined over PARTICIPANTS (users with at least
         -- one funnel-step event) — matching the Ray side, which
         -- filters to the three steps before any grouping, so a user
         -- whose events are all 'error'/'signup' appears on neither
         -- side regardless of fixture seed.
         coalesce(min(CASE WHEN event_type = 'view'
                           THEN epoch_us(ts) END), -1)::BIGINT
           AS first_view_us,
         coalesce(min(CASE WHEN event_type = 'click'
                           THEN epoch_us(ts) END), -1)::BIGINT
           AS first_click_us,
         coalesce(min(CASE WHEN event_type = 'purchase'
                           THEN epoch_us(ts) END), -1)::BIGINT
           AS first_purchase_us
  FROM events
  WHERE event_type IN ('view', 'click', 'purchase')
  GROUP BY user_id)
SELECT user_id, first_view_us, first_click_us, first_purchase_us,
       (CASE WHEN first_view_us >= 0
                  AND first_click_us > first_view_us
                  AND first_purchase_us > first_click_us
             THEN 1 ELSE 0 END)::BIGINT AS converted
FROM f
"""

_PR_STEP = """
SELECT n.v, (150000 + (850 * COALESCE(m.acc, 0)) // 1000)::BIGINT AS s
FROM nodes n LEFT JOIN (
  SELECT e.dst AS v, sum({prev}.s // deg.d)::BIGINT AS acc
  FROM e JOIN {prev} ON {prev}.v = e.src JOIN deg ON deg.v = e.src
  GROUP BY e.dst) m ON m.v = n.v
"""
SQL_PAGERANK = f"""
WITH e AS (
  SELECT DISTINCT l_orderkey * 2 AS src, l_partkey * 2 + 1 AS dst
  FROM lineitem
  UNION ALL
  SELECT DISTINCT l_partkey * 2 + 1 AS src, l_orderkey * 2 AS dst
  FROM lineitem),
nodes AS (SELECT DISTINCT src AS v FROM e),
deg AS (SELECT src AS v, count(*)::BIGINT AS d FROM e GROUP BY src),
s0 AS (SELECT v, 1000000::BIGINT AS s FROM nodes),
s1 AS ({_PR_STEP.format(prev='s0')}),
s2 AS ({_PR_STEP.format(prev='s1')}),
s3 AS ({_PR_STEP.format(prev='s2')})
SELECT v AS node_id, s AS score FROM s3
"""

_PR_ITERS = 3


def q_pagerank(sf_dir: str):
    """Iterative numeric graph algorithm — integer-quantized PageRank
    over the bipartite order<->part graph (node id = orderkey*2 /
    partkey*2+1; undirected by emitting both directions). Scores are
    pure int64 arithmetic (contrib = score // deg; next = 150000 +
    850*acc // 1000, i.e. damping 0.85 at 1e6 scale), so every
    iteration is order-independent and the fixed-{_PR_ITERS}-round
    chained-CTE DuckDB twin matches bit-exactly — the usual float
    power iteration could never be hash-checked.

    Scale shape per round (the label-propagation skeleton of
    connected_components_ds, numeric messages instead of min):
    (1) src-bucketed co-group of edges with (score, deg) rows emits
    per-dst PARTIAL contribution sums — a combiner, <= one row per
    (bucket, dst); (2) a dst-bucketed co-group folds partials with the
    node-degree rows into next-round scores. Edges and node rows
    materialize ONCE; only score rows rebuild per round (one
    materialize per round, the CC lazy-drop trick). The driver never
    holds nodes, edges, or scores."""
    def pairs(batch: pa.Table) -> pa.Table:
        o = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
        p = batch.column("l_partkey").to_numpy(zero_copy_only=False)
        src = np.concatenate([o * 2, p * 2 + 1])
        dst = np.concatenate([p * 2 + 1, o * 2])
        uniq = np.unique(np.stack([src, dst]), axis=1)  # batch combiner
        return pa.table({"src": pa.array(uniq[0], pa.int64()),
                         "dst": pa.array(uniq[1], pa.int64())})

    def build(group: pa.Table) -> pa.Table:
        """global edge distinct + per-src degree (the bucket holds ALL
        edges of its srcs). Emits edge rows (kind=0) and node rows
        (kind=1, d=deg, s=initial score)."""
        s = group.column("src").to_numpy(zero_copy_only=False)
        t = group.column("dst").to_numpy(zero_copy_only=False)
        uniq = np.unique(np.stack([s, t]), axis=1)
        s, t = uniq[0], uniq[1]
        uv, deg = group_sum(s, np.ones(len(s), dtype=np.int64))
        z_e = np.zeros(len(s), dtype=np.int64)
        return pa.table({
            "src": pa.array(np.concatenate([s, uv]), pa.int64()),
            "dst": pa.array(np.concatenate([t, np.full(len(uv), -1,
                                                       np.int64)])),
            "d": pa.array(np.concatenate([z_e, deg]), pa.int64()),
            "s": pa.array(np.concatenate(
                [z_e, np.full(len(uv), 1_000_000, np.int64)]), pa.int64()),
            "kind": pa.array(np.concatenate(
                [z_e, np.ones(len(uv), np.int64)]), pa.int64()),
        })

    def contribs(group: pa.Table) -> pa.Table:
        """src-bucket co-group: per-dst partial contribution sums."""
        kind = group.column("kind").to_numpy(zero_copy_only=False)
        src = group.column("src").to_numpy(zero_copy_only=False)
        is_n = kind == 1
        nv = src[is_n]
        o = np.argsort(nv, kind="stable")
        nv = nv[o]
        nd = group.column("d").to_numpy(zero_copy_only=False)[is_n][o]
        ns = group.column("s").to_numpy(zero_copy_only=False)[is_n][o]
        e_src, e_dst = src[~is_n], group.column("dst").to_numpy(
            zero_copy_only=False)[~is_n]
        hit, pos = sorted_lookup(nv, e_src)
        if not hit.all():
            raise KeyError("edge source missing from score table")
        contrib = ns[pos] // nd[pos]
        uv, acc = group_sum(e_dst, contrib)
        return pa.table({"v": pa.array(uv, pa.int64()),
                         "acc": pa.array(acc, pa.int64())})

    def fold_scores(group: pa.Table) -> pa.Table:
        """dst-bucket co-group: partial sums + node-deg rows -> next
        score rows (same schema as build's node rows)."""
        v = group.column("v").to_numpy(zero_copy_only=False)
        acc = group.column("acc").to_numpy(zero_copy_only=False)
        kind = group.column("kind").to_numpy(zero_copy_only=False)
        is_n = kind == 1
        uv, total = group_sum(v[~is_n], acc[~is_n])
        nv = v[is_n]
        o = np.argsort(nv, kind="stable")
        nv, nd = nv[o], acc[is_n][o]
        hit, pos = sorted_lookup(uv, nv)
        summed = np.where(hit, total[pos] if len(uv) else 0, 0)
        s_new = 150_000 + (850 * summed) // 1000
        return pa.table({
            "src": pa.array(nv, pa.int64()),
            "dst": pa.array(np.full(len(nv), -1, np.int64)),
            "d": pa.array(nd, pa.int64()),
            "s": pa.array(s_new, pa.int64()),
            "kind": pa.array(np.ones(len(nv), np.int64)),
        })

    li = _read(f"{sf_dir}/lineitem.parquet",
               columns=["l_orderkey", "l_partkey"])
    graph = (_regroup(li.map_batches(pairs, batch_format="pyarrow")
                      .map_batches(_mod_bucket("src", "sb"),
                          batch_format="pyarrow"))
             .groupby("sb")
             .map_groups(build, batch_format="pyarrow")
             .materialize())
    def keep_kind(k: int):
        def fn(batch: pa.Table) -> pa.Table:
            m = batch.column("kind").to_numpy(zero_copy_only=False) == k
            return batch.filter(pa.array(m))
        return fn

    edges = graph.map_batches(keep_kind(0),
                              batch_format="pyarrow").materialize()
    scores = graph.map_batches(keep_kind(1),
                               batch_format="pyarrow").materialize()
    sbucket = _mod_bucket("src", "sb")
    # node-deg rows reused every round on the fold side (kind=1 tags
    # them apart from the contribution partials)
    def node_acc(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({"v": batch.column("src"),
                         "acc": batch.column("d"),
                         "kind": pa.array(np.ones(n, np.int64))})

    def part_kind0(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return batch.append_column("kind",
                                   pa.array(np.zeros(n, np.int64)))

    vbucket = _mod_bucket("v", "vb")
    deg_rows = scores.map_batches(node_acc, batch_format="pyarrow")
    for _ in range(_PR_ITERS):
        part = (_regroup(edges.union(scores)
                         .map_batches(sbucket, batch_format="pyarrow"))
                .groupby("sb")
                .map_groups(contribs, batch_format="pyarrow")
                .map_batches(part_kind0, batch_format="pyarrow"))
        scores = (_regroup(part.union(deg_rows)
                           .map_batches(vbucket, batch_format="pyarrow"))
                  .groupby("vb")
                  .map_groups(fold_scores, batch_format="pyarrow")
                  .materialize())

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({"node_id": batch.column("src"),
                         "score": batch.column("s")})

    return _schema_finalize(
        scores.map_batches(project, batch_format="pyarrow"),
        {"node_id": pa.int64(), "score": pa.int64()})


SQL_RETENTION = """
WITH activity AS (
  SELECT DISTINCT user_id, epoch_us(ts) // 3600000000 AS h
  FROM events),
first_seen AS (
  SELECT user_id, min(h) AS cohort_h FROM activity GROUP BY user_id)
SELECT f.cohort_h::BIGINT AS cohort_hour,
       (a.h - f.cohort_h)::BIGINT AS offset_hours,
       count(*)::BIGINT AS n_users
FROM activity a JOIN first_seen f USING (user_id)
GROUP BY 1, 2
"""


def q_retention(sf_dir: str):
    """Cohort retention — the second canonical behavioral-analytics
    workload next to the funnel: users grouped by the hour they were
    FIRST active (the cohort), counted in every later hour they return
    (offset from cohort). Output: (cohort_hour, offset_hours, n_users).

    Scale shape: the per-batch combiner reduces events to DISTINCT
    (user, hour) pairs — everything downstream (cohort = min hour,
    offsets, counting) derives from that set, so the single
    user-bucketed exchange moves at most one row per (batch, user,
    active-hour), never events. The per-user fold emits per-(cohort,
    offset) partial counts (a second combiner), and one small groupby
    folds those."""
    H_US = 3_600_000_000

    def distinct_uh(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False)
        h = batch.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False) // H_US
        key = np.stack([u, h])
        uniq = np.unique(key, axis=1)
        return pa.table({"user_id": pa.array(uniq[0], pa.int64()),
                         "h": pa.array(uniq[1], pa.int64())})

    def fold(group: pa.Table) -> pa.Table:
        u = group.column("user_id").to_numpy(zero_copy_only=False)
        h = group.column("h").to_numpy(zero_copy_only=False)
        # per-user: cohort = min hour; one (cohort, offset) row per
        # DISTINCT (user, hour) — batch partials may repeat pairs
        order = np.lexsort((h, u))
        u_s, h_s = u[order], h[order]
        keep = np.ones(len(u_s), dtype=bool)
        keep[1:] = (u_s[1:] != u_s[:-1]) | (h_s[1:] != h_s[:-1])
        u_s, h_s = u_s[keep], h_s[keep]
        new_user = np.ones(len(u_s), dtype=bool)
        new_user[1:] = u_s[1:] != u_s[:-1]
        cohort = h_s[np.flatnonzero(new_user)]
        cohort_rep = np.repeat(cohort, np.diff(np.append(
            np.flatnonzero(new_user), len(u_s))))
        off = h_s - cohort_rep
        # combiner: partial counts per (cohort, offset) in this bucket
        key = cohort_rep * (1 << 32) + off   # off < 2^32 hours (490k yr)
        uk, n = group_sum(key, np.ones(len(key), dtype=np.int64))
        return pa.table({
            "cohort_hour": pa.array(uk >> 32, pa.int64()),
            "offset_hours": pa.array(uk & ((1 << 32) - 1), pa.int64()),
            "n_users": pa.array(n, pa.int64()),
        })

    def final(group: pa.Table) -> pa.Table:
        g = group.group_by(["cohort_hour", "offset_hours"]).aggregate(
            [("n_users", "sum")])
        return pa.table({
            "cohort_hour": g.column("cohort_hour").cast(pa.int64()),
            "offset_hours": g.column("offset_hours").cast(pa.int64()),
            "n_users": g.column("n_users_sum").cast(pa.int64()),
        })

    ev = _read(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    partials = (_regroup(ev.map_batches(distinct_uh,
                                        batch_format="pyarrow")
                         .map_batches(_mod_bucket("user_id", "ub"),
                             batch_format="pyarrow"))
                .groupby("ub")
                .map_groups(fold, batch_format="pyarrow"))
    out = (_regroup(partials.map_batches(
        _mod_bucket("cohort_hour", "cb"), batch_format="pyarrow"), 0.125)
        .groupby("cb")
        .map_groups(final, batch_format="pyarrow"))
    return _schema_finalize(out, {"cohort_hour": pa.int64(),
                                  "offset_hours": pa.int64(),
                                  "n_users": pa.int64()})


_FUNNEL_STEPS = ("view", "click", "purchase")


def q_funnel(sf_dir: str):
    """Funnel / conversion analysis — the behavioral-analytics staple:
    per user, the FIRST time of each step (view -> click -> purchase)
    and whether the user converted (strictly increasing first-times;
    a missing step or a tie breaks the funnel). Missing steps encode
    as -1 so the row stays integer-exact under the driver hash. The
    funnel covers PARTICIPANTS only: a user with zero funnel-step
    events emits no row (both sides filter to the three steps up
    front, so the contract holds on any fixture seed — a spectator
    row would force the scan to carry every user just to emit
    (-1,-1,-1,0)).

    Scale shape: first-times are MINIMUMS, so the per-batch combiner
    reduces each batch to <= one (user, step, min_ts) row per pair —
    the exchange moves constant partials per user, never events — and
    the per-user pivot runs in the bucketed co-group, vectorized."""
    def partial(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        keep = np.isin(et, _FUNNEL_STEPS)
        u = batch.column("user_id").to_numpy(zero_copy_only=False)[keep]
        t = batch.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False)[keep]
        # vectorized step->code map (three equality compares — no
        # per-event python on the scan of the largest input); every
        # kept value matches exactly one step by construction of keep
        et_k = et[keep]
        code = np.select([et_k == s for s in _FUNNEL_STEPS],
                         np.arange(len(_FUNNEL_STEPS), dtype=np.int64)
                         ).astype(np.int64)
        # first per (user, step): sort by (user, code, ts), take run heads
        order = np.lexsort((t, code, u))
        u_s, c_s, t_s = u[order], code[order], t[order]
        first = np.ones(len(u_s), dtype=bool)
        first[1:] = (u_s[1:] != u_s[:-1]) | (c_s[1:] != c_s[:-1])
        return pa.table({
            "user_id": pa.array(u_s[first], pa.int64()),
            "step": pa.array(c_s[first], pa.int64()),
            "ts_min": pa.array(t_s[first], pa.int64()),
        })

    def pivot(group: pa.Table) -> pa.Table:
        u = group.column("user_id").to_numpy(zero_copy_only=False)
        c = group.column("step").to_numpy(zero_copy_only=False)
        t = group.column("ts_min").to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(u, return_inverse=True)
        firsts = np.full((len(uniq), len(_FUNNEL_STEPS)), -1,
                         dtype=np.int64)
        # fold batch partials: keep the min ts per (user, step)
        order = np.lexsort((t, c, inv))
        head = np.ones(len(order), dtype=bool)
        head[1:] = ((inv[order][1:] != inv[order][:-1])
                    | (c[order][1:] != c[order][:-1]))
        sel = order[head]
        firsts[inv[sel], c[sel]] = t[sel]
        v, cl, p = firsts[:, 0], firsts[:, 1], firsts[:, 2]
        conv = ((v >= 0) & (cl > v) & (p > cl)).astype(np.int64)
        return pa.table({
            "user_id": pa.array(uniq, pa.int64()),
            "first_view_us": pa.array(v, pa.int64()),
            "first_click_us": pa.array(cl, pa.int64()),
            "first_purchase_us": pa.array(p, pa.int64()),
            "converted": pa.array(conv, pa.int64()),
        })

    ev = _read(f"{sf_dir}/events.parquet",
               columns=["user_id", "event_type", "ts"])
    out = (_regroup(ev.map_batches(partial, batch_format="pyarrow")
                    .map_batches(_mod_bucket("user_id", "ub"), batch_format="pyarrow"))
           .groupby("ub")
           .map_groups(pivot, batch_format="pyarrow"))
    return _schema_finalize(out, {
        "user_id": pa.int64(), "first_view_us": pa.int64(),
        "first_click_us": pa.int64(), "first_purchase_us": pa.int64(),
        "converted": pa.int64()})


SQL_EVENTS_RANK = """
SELECT event_id,
       row_number() OVER (ORDER BY ts, event_id)::BIGINT AS rank
FROM events
"""


def q_events_rank(sf_dir: str):
    """Global order statistics WITHOUT a global sort barrier: every
    event's dense rank in (ts, event_id) order — §2.6's missing global
    member (top-k and per-group sorts existed; total order did not).

    The scale shape is the canonical two-phase distributed rank: one
    map pass emits per-1h-time-range COUNTS (constant-size partials),
    the driver folds the tiny range table into an exclusive prefix-sum
    (range-count-sized — the only thing it holds) and broadcasts it,
    and a range-bucketed co-group sorts each range locally, stamping
    rank = range offset + in-range position. No all-to-all sort of the
    data itself; the exchange is the same bucketed groupby every other
    operator uses, and range width is a knob (target rows per range)."""
    RANGE_US = 3_600_000_000  # 1h event-time ranges

    ev = _read(f"{sf_dir}/events.parquet", columns=["event_id", "ts"])

    def range_counts(batch: pa.Table) -> pa.Table:
        t = batch.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        rb = t // RANGE_US
        uniq, cnt = np.unique(rb, return_counts=True)
        return pa.table({"rb": pa.array(uniq, pa.int64()),
                         "cnt": pa.array(cnt.astype(np.int64))})

    part = collect_table(ev.map_batches(range_counts,
                                        batch_format="pyarrow"))
    rb = part.column("rb").to_numpy(zero_copy_only=False)
    cnt = part.column("cnt").to_numpy(zero_copy_only=False)
    uniq_rb, total = group_sum(rb, cnt)
    offsets = np.concatenate(([0], np.cumsum(total)[:-1])) \
        if len(total) else total
    pref_ref = ray.put((uniq_rb, offsets))

    def add_rb(batch: pa.Table) -> pa.Table:
        t = batch.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        return batch.append_column(
            "rb", pa.array((t // RANGE_US).astype(np.int64)))

    def stamp(group: pa.Table) -> pa.Table:
        e = group.column("event_id").to_numpy(zero_copy_only=False)
        t = group.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        ranges, prefix = ray.get(pref_ref)
        hit, pos = sorted_lookup(ranges, t[:1] // RANGE_US)
        if not hit.all():
            raise KeyError("ts range missing from prefix table")
        base = prefix[pos[0]]
        order = np.lexsort((e, t))
        rank = np.empty(len(e), dtype=np.int64)
        rank[order] = base + 1 + np.arange(len(e), dtype=np.int64)
        return pa.table({"event_id": pa.array(e, pa.int64()),
                         "rank": pa.array(rank, pa.int64())})

    out = (_regroup(ev.map_batches(add_rb, batch_format="pyarrow"))
           .groupby("rb")
           .map_groups(stamp, batch_format="pyarrow"))
    return _schema_finalize(out, {"event_id": pa.int64(),
                                  "rank": pa.int64()})


SQL_EVENTS_SORTED_HEAD = """
SELECT event_id, epoch_us(ts) AS ts_us
FROM events ORDER BY ts, event_id LIMIT 100
"""


def q_events_sorted_head(sf_dir: str):
    """Native ``Dataset.sort`` interop (the §2.6 global sort expressed
    with Ray Data's built-in range-partitioned sort, the way
    ``orders_lineitem_join_native`` mirrors the co-group join): first
    100 events in (ts, event_id) order. The sort is a real all-to-all
    (sample -> range partition -> per-partition sort); limit() then
    stops the stream after the first blocks, so only the head is ever
    collected."""
    ev = _read(f"{sf_dir}/events.parquet", columns=["event_id", "ts"])

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": batch.column("event_id").cast(pa.int64()),
            "ts_us": batch.column("ts").cast(pa.int64()),
        })

    return (ev.sort(["ts", "event_id"]).limit(100)
            .map_batches(finalize, batch_format="pyarrow"))


def q_events_asof(sf_dir: str):
    """As-of self-join: each event paired with the most recent PRIOR
    event of the same user (the classic as-of/point-in-time join,
    SURVEY §2 custom-operator note): partition by key, ts-sort within
    the group, vectorized shift — no cross-row loop. Ordering rule
    (ts, event_id) is shared with the SQL twin."""
    def asof(group: pa.Table) -> pa.Table:
        # one python call per user-hash BUCKET: lexsort by (user, ts,
        # event_id), vectorized shift, user-boundary rows get the
        # no-prior sentinel
        eid = group.column("event_id").to_numpy(zero_copy_only=False)
        ts = group.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        uid = group.column("user_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        eid, ts, uid = eid[order], ts[order], uid[order]
        n = len(eid)
        prev_id = np.full(n, -1, dtype=np.int64)
        prev_gap = np.full(n, -1, dtype=np.int64)
        if n > 1:
            same = uid[1:] == uid[:-1]
            prev_id[1:][same] = eid[:-1][same]
            prev_gap[1:][same] = ts[1:][same] - ts[:-1][same]
        return pa.table({
            "event_id": pa.array(eid, pa.int64()),
            "user_id": pa.array(uid, pa.int64()),
            "prev_event_id": pa.array(prev_id),
            "gap_us": pa.array(prev_gap),
        })

    add_bucket = _mod_bucket("user_id")
    return (
        _regroup(_read(f"{sf_dir}/events.parquet",
                       columns=["event_id", "ts", "user_id"])
                 .map_batches(add_bucket, batch_format="pyarrow"),
                 per_cpu=0.5)
        .groupby("bucket")
        .map_groups(asof, batch_format="pyarrow")
    )


SQL_EVENTS_ASOF = """
SELECT event_id, user_id,
       coalesce(lag(event_id) OVER w, -1)::BIGINT AS prev_event_id,
       coalesce(epoch_us(ts) - lag(epoch_us(ts)) OVER w, -1)::BIGINT AS gap_us
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def q_emb_neardup(sf_dir: str):
    """Embedding-cosine near-dup pairs (cos >= 0.35): brute force per
    batch against the broadcast corpus matrix (the exact baseline the
    LSH-bucketed variant approximates)."""
    from mapchete_xarray_ray.stages.ann import _embedding_matrix, normalize_rows

    emb = _read(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    tbl = collect_table(emb)
    ids = tbl.column("vec_id").to_numpy(zero_copy_only=False)
    mat = normalize_rows(_embedding_matrix(tbl, "embedding"))
    ref = ray.put((ids, mat))
    TAU = 0.35

    def pairs(batch: pa.Table) -> pa.Table:
        c_ids, c_mat = ray.get(ref)
        b_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        b_mat = normalize_rows(_embedding_matrix(batch, "embedding"))
        sims = b_mat @ c_mat.T
        bi, ci = np.nonzero(sims >= TAU)
        keep = b_ids[bi] < c_ids[ci]  # id_a < id_b; drops self-pairs
        return pa.table({
            "id_a": pa.array(b_ids[bi][keep], pa.int64()),
            "id_b": pa.array(c_ids[ci][keep], pa.int64()),
        })

    return emb.map_batches(pairs, batch_format="pyarrow")


SQL_EMB_NEARDUP = """
SELECT a.vec_id AS id_a, b.vec_id AS id_b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.35
"""


def q_emb_dedup_clusters(sf_dir: str):
    """Embedding near-dup CLUSTERS under the driver's EXACT hash: the
    exact cosine pair set (q_emb_neardup, itself SQL-twinned) fed
    through the DISTRIBUTED connected-components operator
    (stages/dedup.py connected_components_ds). The SQL twin closes the
    same components with a recursive transitive-closure CTE, so the
    label-propagation machinery — not just a pytest oracle — sits under
    the driver hash."""
    from mapchete_xarray_ray.stages.dedup import connected_components_ds

    out = connected_components_ds(q_emb_neardup(sf_dir))

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"vec_id": batch.column("doc_id"),
                         "cluster_id": batch.column("cluster_id")})

    return out.map_batches(rename, batch_format="pyarrow")


SQL_EMB_DEDUP_CLUSTERS = """
WITH RECURSIVE pairs AS (
  SELECT a.vec_id AS id_a, b.vec_id AS id_b
  FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
  WHERE list_cosine_similarity(a.embedding::DOUBLE[],
                               b.embedding::DOUBLE[]) >= 0.35
),
edges AS (SELECT id_a AS src, id_b AS dst FROM pairs
          UNION ALL SELECT id_b, id_a FROM pairs),
reach(src, dst) AS (
  SELECT src, dst FROM edges
  UNION
  SELECT r.src, e.dst FROM reach r JOIN edges e ON r.dst = e.src
)
SELECT src AS vec_id, least(src, min(dst)) AS cluster_id
FROM reach GROUP BY src
"""


KMV_K = 16


def q_distinct_users_sketch(sf_dir: str):
    """KMV (k-minimum-values) approximate distinct count — the
    mergeable-sketch shape a 100 TB pipeline uses where exact distinct
    (q_distinct_users) would shuffle every key: each batch contributes
    its k smallest distinct user hashes (a constant-size partial), the
    driver merges sketches (k values each), and the estimator is
    (k-1) * 2^32 / kth_min. The hash is the SQL-expressible
    multiplicative mix (user_id * 2654435761) % 2^32, so the DuckDB
    twin reproduces the sketch — and its estimate — EXACTLY."""
    ev = _read(f"{sf_dir}/events.parquet", columns=["user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        u = np.unique(batch.column("user_id").to_numpy(zero_copy_only=False))
        if len(u) and u[0] < 0:
            # numpy floor-mod and SQL truncated-mod diverge on negative
            # ids — fail loud rather than silently mis-hash
            raise ValueError("KMV sketch requires non-negative user ids")
        h = np.unique((u * 2654435761) % (1 << 32))
        return pa.table({"hv": pa.array(h[:KMV_K], pa.int64())})

    sketches = collect_table(
        ev.map_batches(partial, batch_format="pyarrow"))
    merged = np.unique(sketches.column("hv").to_numpy(zero_copy_only=False))
    k = min(KMV_K, len(merged))
    if k < 2 or merged[k - 1] == 0:
        est = k
    else:
        est = int((k - 1) * (1 << 32) // int(merged[k - 1]))
    return pa.table({"k": pa.array([k], pa.int64()),
                     "kth_hash": pa.array([int(merged[k - 1])]
                                          if k else [0], pa.int64()),
                     "est_users": pa.array([est], pa.int64())})


SQL_DISTINCT_USERS_SKETCH = f"""
WITH h AS (SELECT DISTINCT
             (user_id::HUGEINT * 2654435761) % 4294967296 AS hv
           FROM events),
k AS (SELECT hv::BIGINT AS hv FROM h ORDER BY hv LIMIT {KMV_K}),
agg AS (SELECT count(*)::BIGINT AS k,
             coalesce(max(hv), 0)::BIGINT AS kth_hash FROM k)
SELECT k, kth_hash,
       CASE WHEN k < 2 OR kth_hash = 0 THEN k
            ELSE ((k - 1)::HUGEINT * 4294967296 // kth_hash)::BIGINT
       END AS est_users
FROM agg
"""


CMS_D, CMS_W = 4, 512
CMS_SALTS = (2654435761, 2246822519, 3266489917, 668265263)


def q_heavy_hitters_cms(sf_dir: str):
    """Count-Min sketch heavy-hitter estimation — the SECOND mergeable
    sketch family (KMV counts distincts; CMS estimates per-key
    frequency without a per-key shuffle): each batch contributes a
    constant-size partial (its (row, bucket) counter increments), one
    tiny groupby merges them into the d x w counter matrix, and every
    distinct user's estimate is the min over its d counters —
    overestimates only, bounded by collisions at w=512. All hashes are
    the SQL-expressible multiplicative mix (user * salt) % w, so the
    DuckDB twin reproduces sketch AND estimates exactly. The counter
    matrix is O(d*w) regardless of corpus size — the whole point; only
    it and the distinct-user list touch the driver."""
    ev = _read(f"{sf_dir}/events.parquet", columns=["user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False)
        if len(u) and u.min() < 0:
            raise ValueError("CMS requires non-negative user ids")
        js, bs, cs = [], [], []
        for j, salt in enumerate(CMS_SALTS):
            b = (u * salt) % CMS_W
            cnt = np.bincount(b, minlength=CMS_W)
            nz = np.flatnonzero(cnt)
            js.append(np.full(len(nz), j, dtype=np.int64))
            bs.append(nz.astype(np.int64))
            cs.append(cnt[nz].astype(np.int64))
        return pa.table({
            "j": pa.array(np.concatenate(js)),
            "b": pa.array(np.concatenate(bs)),
            "cnt": pa.array(np.concatenate(cs)),
        })

    def distinct_partial(batch: pa.Table) -> pa.Table:
        u = np.unique(batch.column("user_id").to_numpy(
            zero_copy_only=False))
        return pa.table({"user_id": pa.array(u, pa.int64())})

    # one scan feeds both: the materialized projection is (user_id)
    # only — re-used for the sketch partials and the distinct list
    ids = ev.materialize()
    sk = collect_table(ids.map_batches(partial, batch_format="pyarrow"))
    cms = np.zeros((CMS_D, CMS_W), dtype=np.int64)
    np.add.at(cms, (sk.column("j").to_numpy(zero_copy_only=False),
                    sk.column("b").to_numpy(zero_copy_only=False)),
              sk.column("cnt").to_numpy(zero_copy_only=False))
    users = np.unique(collect_table(
        ids.map_batches(distinct_partial, batch_format="pyarrow"))
        .column("user_id").to_numpy(zero_copy_only=False))
    est = np.full(len(users), np.iinfo(np.int64).max, dtype=np.int64)
    for j, salt in enumerate(CMS_SALTS):
        np.minimum(est, cms[j, (users * salt) % CMS_W], out=est)
    return pa.table({"user_id": pa.array(users, pa.int64()),
                     "est_n": pa.array(est, pa.int64())})


_CMS_PARAM_ROWS = ", ".join(
    f"({j}, {c})" for j, c in enumerate(CMS_SALTS))
SQL_HEAVY_HITTERS_CMS = f"""
WITH params(j, c) AS (VALUES {_CMS_PARAM_ROWS}),
cms AS (
  SELECT p.j, (e.user_id * p.c) % {CMS_W} AS b, count(*)::BIGINT AS cnt
  FROM events e CROSS JOIN params p GROUP BY 1, 2
),
users AS (SELECT DISTINCT user_id FROM events)
SELECT u.user_id, min(c.cnt)::BIGINT AS est_n
FROM users u
JOIN params p ON true
JOIN cms c ON c.j = p.j AND c.b = (u.user_id * p.c) % {CMS_W}
GROUP BY u.user_id
"""


def q_events_range_join(sf_dir: str):
    """Distributed range/interval join (SURVEY §2 custom-op list):
    every event with ``event_id % 997 == 0`` opens a 15-minute window;
    find all events falling inside any window. Shape: windows replicate
    to each 1-hour time bin they overlap (<= 2 bins, window < bin),
    events land in their own bin, co-group by bin, and the in-bin match
    is two vectorized ``searchsorted`` calls on the window starts plus
    a grouped-arange pair expansion — no per-event loop, no broadcast
    of either side. An (event, window) pair exists only in the event's
    bin, so no dedup pass is needed.
    """
    W = 900_000_000      # 15 min window length (us)
    BIN = 3_600_000_000  # 1 h co-group bins

    def wrows(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy(zero_copy_only=False)
        ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = eid % 997 == 0
        wid, ws = eid[keep], ts[keep]
        b0, b1 = ws // BIN, (ws + W - 1) // BIN
        two = b1 != b0
        return pa.table({
            "bin": pa.array(np.concatenate([b0, b1[two]]), pa.int64()),
            "id": pa.array(np.concatenate([wid, wid[two]]), pa.int64()),
            "ts": pa.array(np.concatenate([ws, ws[two]]), pa.int64()),
            "is_win": pa.array(np.ones(len(wid) + int(two.sum()), dtype=bool)),
        })

    def erows(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy(zero_copy_only=False)
        ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "bin": pa.array(ts // BIN, pa.int64()),
            "id": pa.array(eid, pa.int64()),
            "ts": pa.array(ts, pa.int64()),
            "is_win": pa.array(np.zeros(len(eid), dtype=bool)),
        })

    def match(group: pa.Table) -> pa.Table:
        isw = group.column("is_win").to_numpy(zero_copy_only=False)
        ids = group.column("id").to_numpy(zero_copy_only=False)
        ts = group.column("ts").to_numpy(zero_copy_only=False)
        wid, ws = ids[isw], ts[isw]
        o = np.lexsort((wid, ws))
        wid, ws = wid[o], ws[o]
        eid, ets = ids[~isw], ts[~isw]
        # containment ws <= ts < ws + W  <=>  ts - W < ws <= ts
        lo = np.searchsorted(ws, ets - W + 1, side="left")
        hi = np.searchsorted(ws, ets, side="right")
        cnt = hi - lo
        tot = int(cnt.sum())
        ev_rep = np.repeat(eid, cnt)
        ts_rep = np.repeat(ets, cnt)
        cum = np.concatenate([[0], np.cumsum(cnt)[:-1]])
        widx = np.arange(tot) - np.repeat(cum, cnt) + np.repeat(lo, cnt)
        return pa.table({
            "window_id": pa.array(wid[widx], pa.int64()),
            "event_id": pa.array(ev_rep, pa.int64()),
            "offset_us": pa.array(ts_rep - ws[widx], pa.int64()),
        })

    def both(batch: pa.Table) -> pa.Table:
        # one read feeds both sides (no second scan of the big input)
        return pa.concat_tables([wrows(batch), erows(batch)])

    ev = _read(f"{sf_dir}/events.parquet", columns=["event_id", "ts"])
    return (_regroup(ev.map_batches(both, batch_format="pyarrow"))
            .groupby("bin")
            .map_groups(match, batch_format="pyarrow"))


SQL_EVENTS_RANGE_JOIN = """
WITH w AS (
  SELECT event_id AS window_id, epoch_us(ts) AS ws
  FROM events WHERE event_id % 997 = 0
)
SELECT w.window_id, e.event_id,
       (epoch_us(e.ts) - w.ws)::BIGINT AS offset_us
FROM events e JOIN w
  ON epoch_us(e.ts) >= w.ws AND epoch_us(e.ts) < w.ws + 900000000
"""


def q_orders_lineitem_join(sf_dir: str):
    """Distributed big-x-big hash equi-join (orders x lineitem on
    orderkey) — the shuffle-join shape the broadcast J2 pattern can't
    cover when NEITHER side fits in memory. Plan: lineitem partials are
    pre-aggregated per orderkey inside map_batches (the combiner), both
    sides union under one schema and co-group by ``orderkey % 64`` —
    ONE shuffle moving per-key partials, never raw rows; the in-bucket
    merge is a vectorized sorted-merge (searchsorted), no per-key
    python. The deterministic ``orderkey % 31`` filter is derivable on
    BOTH sides without communication (key-predicate pushdown).
    """
    def l_partial(batch: pa.Table) -> pa.Table:
        k = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
        keep = k % 31 == 0
        k = k[keep]
        price = batch.column("l_extendedprice").to_numpy(
            zero_copy_only=False)[keep]
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)[keep]
        rev = np.floor(price * (1.0 - disc) * 100).astype(np.int64)
        uk, n, revs = group_sum(k, np.ones(len(k), dtype=np.int64), rev)
        return pa.table({
            "okey": pa.array(uk, pa.int64()),
            "priority": pa.array([""] * len(uk), pa.string()),
            "n": pa.array(n, pa.int64()),
            "rev": pa.array(revs, pa.int64()),
            "is_order": pa.array(np.zeros(len(uk), dtype=bool)),
        })

    def o_rows(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        keep = pa.array(k % 31 == 0)
        kept = batch.filter(keep)
        n = kept.num_rows
        return pa.table({
            "okey": kept.column("o_orderkey").cast(pa.int64()),
            "priority": kept.column("o_orderpriority"),
            "n": pa.array(np.zeros(n, dtype=np.int64)),
            "rev": pa.array(np.zeros(n, dtype=np.int64)),
            "is_order": pa.array(np.ones(n, dtype=bool)),
        })

    jbucket = _mod_bucket("okey", "jb")

    def join_group(group: pa.Table) -> pa.Table:
        iso = group.column("is_order").to_numpy(zero_copy_only=False)
        okey = group.column("okey").to_numpy(zero_copy_only=False)
        n = group.column("n").to_numpy(zero_copy_only=False)
        rev = group.column("rev").to_numpy(zero_copy_only=False)
        ukeys, un, ur = group_sum(okey[~iso], n[~iso], rev[~iso])
        oidx = np.flatnonzero(iso)
        ok = okey[oidx]
        hit, pos = sorted_lookup(ukeys, ok)  # inner join
        sel = oidx[hit]
        return pa.table({
            "o_orderkey": pa.array(ok[hit], pa.int64()),
            "o_orderpriority": group.column("priority").take(pa.array(sel)),
            "n_lines": pa.array(un[pos[hit]], pa.int64()),
            "revenue_cents": pa.array(ur[pos[hit]], pa.int64()),
        })

    lpart = _read(f"{sf_dir}/lineitem.parquet",
                  columns=["l_orderkey", "l_extendedprice", "l_discount"]
                  ).map_batches(l_partial, batch_format="pyarrow")
    orders = _read(f"{sf_dir}/orders.parquet",
                   columns=["o_orderkey", "o_orderpriority"]
                   ).map_batches(o_rows, batch_format="pyarrow")
    return (_regroup(lpart.union(orders)
                     .map_batches(jbucket, batch_format="pyarrow"), 0.25)
            .groupby("jb")
            .map_groups(join_group, batch_format="pyarrow"))


def q_orders_lineitem_join_native(sf_dir: str):
    """The SAME big-x-big equi-join expressed with Ray Data's native
    hash-shuffle ``Dataset.join`` (2.49+) instead of the hand-built
    union + co-group — demonstrating interop with the idiomatic
    operator. The scale levers stay identical: lineitem pre-aggregates
    per orderkey inside map_batches BEFORE the join (the combiner is
    what matters at 100 TB, whichever join executor runs), the orders
    side is filtered at the read, and a final per-key groupby folds
    partials that crossed batch boundaries. Bench note: the native
    operator measures ~11 s at sf0.1 vs ~4 s for the co-group plan,
    and the gap is FIXED cost, not data cost — Ray 2.49's hash-shuffle
    join spins up its aggregator actor pool per query (independent of
    num_partitions: 8 vs 32 measure the same). On a long-lived cluster
    that amortizes; the co-group version remains the reference plan
    because it joins AND aggregates in ONE exchange with no operator
    warm-up."""
    from mapchete_xarray_ray.scale import nblocks_for_cluster

    def l_partial(batch: pa.Table) -> pa.Table:
        k = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
        keep = (k % 31) == 0
        b = batch.filter(pa.array(keep))
        k = k[keep]
        price = b.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = b.column("l_discount").to_numpy(zero_copy_only=False)
        cents = np.floor(price * (1 - disc) * 100).astype(np.int64)
        t = pa.table({
            "l_orderkey": pa.array(k, pa.int64()),
            "n_lines": pa.array(np.ones(len(k), dtype=np.int64)),
            "revenue_cents": pa.array(cents),
        })
        g = t.group_by("l_orderkey").aggregate(
            [("n_lines", "sum"), ("revenue_cents", "sum")])
        return g.rename_columns(["l_orderkey", "n_lines", "revenue_cents"])

    def o_filter(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array((k % 31) == 0))

    orders = (_read(f"{sf_dir}/orders.parquet",
                    columns=["o_orderkey", "o_orderpriority"])
              .map_batches(o_filter, batch_format="pyarrow"))
    li = (_read(f"{sf_dir}/lineitem.parquet",
                columns=["l_orderkey", "l_extendedprice", "l_discount"])
          .map_batches(l_partial, batch_format="pyarrow"))
    joined = orders.join(li, "inner",
                         num_partitions=nblocks_for_cluster(0.25),
                         on=("o_orderkey",), right_on=("l_orderkey",))

    def final(group: pa.Table) -> pa.Table:
        g = (group.group_by(["o_orderkey", "o_orderpriority"]).aggregate(
            [("n_lines", "sum"), ("revenue_cents", "sum")]))
        return g.rename_columns(["o_orderkey", "o_orderpriority",
                                 "n_lines", "revenue_cents"])

    out = (joined.map_batches(
        _mod_bucket("o_orderkey", "jb"),
        batch_format="pyarrow")
        .groupby("jb")
        .map_groups(final, batch_format="pyarrow"))
    return _schema_finalize(out, {"o_orderkey": pa.int64(),
                                  "o_orderpriority": pa.string(),
                                  "n_lines": pa.int64(),
                                  "revenue_cents": pa.int64()})


def q_urgent_revenue_bloom(sf_dir: str):
    """Bloom-pruned semi-join aggregate (stages/bloom.py): revenue of
    lineitems belonging to URGENT orders. The urgent orderkey set
    (~20% of orders) is folded into a Bloom filter in one cheap pass
    and broadcast; lineitem rows are pruned BEFORE the exchange (~80%
    of rows never enter the shuffle, the 100 TB byte-saver), false
    positives are removed by the exact key co-group, and the final
    per-linestatus aggregate folds verified partials. Output identical
    with or without the filter — the SQL twin pins it."""
    from mapchete_xarray_ray.stages.bloom import (
        bloom_from_dataset,
        bloom_prune_stage,
    )

    def o_urgent(batch: pa.Table) -> pa.Table:
        keep = pa.compute.equal(batch.column("o_orderpriority"), "1-URGENT")
        k = batch.filter(keep).column("o_orderkey").cast(pa.int64())
        return pa.table({"key": k})

    # materialized: consumed twice (bloom build drains it at graph-build
    # time, o_rows re-reads it in the union) — without this the orders
    # scan + priority filter would execute twice
    urgent = (_read(f"{sf_dir}/orders.parquet",
                    columns=["o_orderkey", "o_orderpriority"])
              .map_batches(o_urgent, batch_format="pyarrow")
              .materialize())
    # ~10 bits/key at sf0.1 scale; fixed so results are deterministic
    M_BITS = 1 << 21
    words_ref = ray.put(bloom_from_dataset(urgent, "key", M_BITS))

    def l_partial(batch: pa.Table) -> pa.Table:
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        cents = np.floor(price * (1 - disc) * 100).astype(np.int64)
        t = pa.table({
            "key": batch.column("l_orderkey").cast(pa.int64()),
            "l_linestatus": batch.column("l_linestatus"),
            "n_lines": pa.array(np.ones(len(cents), dtype=np.int64)),
            "revenue_cents": pa.array(cents),
            "is_order": pa.array(np.zeros(len(cents), dtype=bool)),
        })
        g = t.group_by(["key", "l_linestatus", "is_order"]).aggregate(
            [("n_lines", "sum"), ("revenue_cents", "sum")])
        return g.rename_columns(["key", "l_linestatus", "is_order",
                                 "n_lines", "revenue_cents"])

    def o_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "key": batch.column("key").cast(pa.int64()),
            "l_linestatus": pa.array([""] * n, pa.string()),
            "is_order": pa.array(np.ones(n, dtype=bool)),
            "n_lines": pa.array(np.zeros(n, dtype=np.int64)),
            "revenue_cents": pa.array(np.zeros(n, dtype=np.int64)),
        })

    li = (_read(f"{sf_dir}/lineitem.parquet",
                columns=["l_orderkey", "l_linestatus", "l_extendedprice",
                         "l_discount"])
          .map_batches(bloom_prune_stage(words_ref, M_BITS, "l_orderkey"),
                       batch_format="pyarrow")
          .map_batches(l_partial, batch_format="pyarrow"))
    okeys = urgent.map_batches(o_rows, batch_format="pyarrow")

    def verify_agg(group: pa.Table) -> pa.Table:
        iso = group.column("is_order").to_numpy(zero_copy_only=False)
        key = group.column("key").to_numpy(zero_copy_only=False)
        ok = np.unique(key[iso])
        m = ~iso
        pos = np.searchsorted(ok, key[m])
        hit = pos < len(ok)
        hit[hit] = ok[pos[hit]] == key[m][hit]
        kept = group.filter(pa.array(m)).filter(pa.array(hit))
        g = kept.group_by("l_linestatus").aggregate(
            [("n_lines", "sum"), ("revenue_cents", "sum")])
        return g.rename_columns(["l_linestatus", "n_lines", "revenue_cents"])

    bucketed = (_regroup(li.union(okeys)
                         .map_batches(_mod_bucket("key", "jb"),
                             batch_format="pyarrow"), 0.25)
                .groupby("jb")
                .map_groups(verify_agg, batch_format="pyarrow"))
    # verify_agg emits <= one row per (bucket, linestatus) — bounded by
    # construction (bucket count x a handful of statuses), independent
    # of data size — so the final fold is a driver-side aggregate over
    # a constant-size table instead of a second all-to-all exchange
    part = collect_table(bucketed)
    if part.num_rows == 0:
        final_t = pa.table({"l_linestatus": pa.array([], pa.string()),
                            "n_lines": pa.array([], pa.int64()),
                            "revenue_cents": pa.array([], pa.int64())})
    else:
        g = part.group_by("l_linestatus").aggregate(
            [("n_lines", "sum"), ("revenue_cents", "sum")])
        final_t = pa.table({
            "l_linestatus": g.column("l_linestatus").cast(pa.string()),
            "n_lines": g.column("n_lines_sum").cast(pa.int64()),
            "revenue_cents": g.column("revenue_cents_sum").cast(pa.int64()),
        })
    return final_t


SQL_URGENT_REVENUE_BLOOM = """
SELECT l_linestatus,
       count(*)::BIGINT AS n_lines,
       sum(floor(l_extendedprice * (1 - l_discount) * 100)::BIGINT)::BIGINT
         AS revenue_cents
FROM lineitem JOIN orders ON o_orderkey = l_orderkey
WHERE o_orderpriority = '1-URGENT'
GROUP BY l_linestatus
"""


SQL_LANG_CENTROID = """
SELECT lang, dim,
       sum(floor(CAST(val AS DOUBLE) * 1000000)::BIGINT)::BIGINT AS sum_q,
       count(*)::BIGINT AS n_vecs
FROM (
  SELECT d.lang AS lang,
         unnest(range(64))::BIGINT AS dim,
         unnest(e.embedding) AS val
  FROM embeddings e JOIN documents d ON d.doc_id = e.vec_id)
GROUP BY lang, dim
"""


def q_lang_centroid(sf_dir: str):
    """Grouped VECTOR aggregate: the per-language embedding centroid
    (component sum + vector count per dimension — the caller divides),
    the class-prototype / per-domain-mean building block of embedding
    pipelines. Components are quantized ``floor(float64(x) * 1e6)``
    BEFORE summation so partials are order-independent int64 and the
    DuckDB twin matches bit-exactly (float sums would depend on
    association order across batches).

    Plan: embeddings co-group with (doc_id, lang) on the id bucket —
    ONE exchange that moves each vector once (the lang attach; a
    broadcast is impossible, documents is corpus-scale). The in-bucket
    kernel is a single unbuffered ``np.add.at`` of the quantized
    (n, dim) matrix into a (langs, dim) accumulator, reducing every
    bucket to a CONSTANT-size partial; the final fold over
    <= buckets x langs x dim rows happens on the driver (bounded by
    construction, like the bloom query's final)."""
    from mapchete_xarray_ray.stages.ann import _embedding_matrix

    def e_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "id": batch.column("vec_id").cast(pa.int64()),
            "lang": pa.array([""] * n, pa.string()),
            "embedding": batch.column("embedding"),
            "is_doc": pa.array(np.zeros(n, dtype=bool)),
        })

    def d_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        empty_vecs = pa.ListArray.from_arrays(
            pa.array(np.zeros(n + 1, dtype=np.int32)),
            pa.array([], pa.float32()))
        return pa.table({
            "id": batch.column("doc_id").cast(pa.int64()),
            "lang": batch.column("lang"),
            "embedding": empty_vecs,
            "is_doc": pa.array(np.ones(n, dtype=bool)),
        })

    EMPTY = {"lang": pa.string(), "dim": pa.int64(),
             "sum_q": pa.int64(), "n_vecs": pa.int64()}

    def centroid_partial(group: pa.Table) -> pa.Table:
        isd = group.column("is_doc").to_numpy(zero_copy_only=False)
        ids = group.column("id").to_numpy(zero_copy_only=False)
        docs = group.filter(pa.array(isd))
        embs = group.filter(pa.array(~isd))
        if docs.num_rows == 0 or embs.num_rows == 0:
            return pa.table({n: pa.array([], t) for n, t in EMPTY.items()})
        dk = ids[isd]
        o = np.argsort(dk, kind="stable")
        langs = docs.column("lang").to_numpy(zero_copy_only=False)[o]
        hit, pos = sorted_lookup(dk[o], ids[~isd])
        kept = embs.filter(pa.array(hit))          # inner join
        if kept.num_rows == 0:
            return pa.table({n: pa.array([], t) for n, t in EMPTY.items()})
        q = np.floor(_embedding_matrix(kept, "embedding")
                     * 1e6).astype(np.int64)
        lang_of = langs[pos[hit]]
        ulang, codes = np.unique(lang_of, return_inverse=True)
        acc = np.zeros((len(ulang), q.shape[1]), dtype=np.int64)
        np.add.at(acc, codes, q)
        cnt = np.bincount(codes, minlength=len(ulang)).astype(np.int64)
        nl, d = len(ulang), q.shape[1]
        return pa.table({
            "lang": pa.array(np.repeat(ulang, d), pa.string()),
            "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), nl)),
            "sum_q": pa.array(acc.reshape(-1), pa.int64()),
            "n_vecs": pa.array(np.repeat(cnt, d), pa.int64()),
        })

    emb = _read(f"{sf_dir}/embeddings.parquet",
                columns=["vec_id", "embedding"]
                ).map_batches(e_rows, batch_format="pyarrow")
    docs = _docs(sf_dir, ["doc_id", "lang"]
                 ).map_batches(d_rows, batch_format="pyarrow")
    partials = (_regroup(emb.union(docs)
                         .map_batches(_mod_bucket("id", "ib"),
                             batch_format="pyarrow"), 0.25)
                .groupby("ib")
                .map_groups(centroid_partial, batch_format="pyarrow"))
    part = collect_table(partials)
    if part.num_rows == 0:
        return pa.table({n: pa.array([], t) for n, t in EMPTY.items()})
    g = part.group_by(["lang", "dim"]).aggregate(
        [("sum_q", "sum"), ("n_vecs", "sum")])
    return pa.table({
        "lang": g.column("lang").cast(pa.string()),
        "dim": g.column("dim").cast(pa.int64()),
        "sum_q": g.column("sum_q_sum").cast(pa.int64()),
        "n_vecs": g.column("n_vecs_sum").cast(pa.int64()),
    })


SQL_BEST_PER_SOURCE = """
SELECT source, doc_id, n_chars FROM (
  SELECT source, doc_id, n_chars,
         row_number() OVER (PARTITION BY source
                            ORDER BY n_chars DESC, doc_id) AS rn
  FROM documents) WHERE rn = 1
"""


def q_best_per_source(sf_dir: str):
    """Keep-best dedup: ONE representative document per source (host),
    chosen by max n_chars with ties to the smallest doc_id — the
    argmax-per-group curation staple (keep the richest page per host).

    Distributed argmax: a per-batch combiner reduces each batch to one
    candidate row per source seen in it (so the exchange moves <= one
    row per (batch, source), never raw docs), the shuffle buckets by a
    stable hash of the source string, and the in-bucket final pick is
    the same vectorized lexsort-first kernel. The argmax, unlike a
    plain max, carries the full winning ROW through — the shape that
    generalizes to keep-best-by-quality-score."""
    from mapchete_xarray_ray.functions.geocode import stable_hash64

    def best_rows(src: np.ndarray, d: np.ndarray, nc: np.ndarray):
        codes, inv = np.unique(src, return_inverse=True)
        order = np.lexsort((d, -nc, inv))
        inv_s = inv[order]
        first = np.ones(len(inv_s), dtype=bool)
        first[1:] = inv_s[1:] != inv_s[:-1]
        win = order[first]
        return src[win], d[win], nc[win]

    def partial(batch: pa.Table) -> pa.Table:
        src = batch.column("source").to_numpy(zero_copy_only=False)
        d = batch.column("doc_id").to_numpy(zero_copy_only=False)
        nc = batch.column("n_chars").to_numpy(zero_copy_only=False)
        src, d, nc = best_rows(src, d, nc)
        sb = stable_hash64(src.astype(object)) % 64
        return pa.table({"source": pa.array(src, pa.string()),
                         "doc_id": pa.array(d, pa.int64()),
                         "n_chars": pa.array(nc, pa.int64()),
                         "sb": pa.array(sb.astype(np.int64))})

    def final(group: pa.Table) -> pa.Table:
        src = group.column("source").to_numpy(zero_copy_only=False)
        d = group.column("doc_id").to_numpy(zero_copy_only=False)
        nc = group.column("n_chars").to_numpy(zero_copy_only=False)
        src, d, nc = best_rows(src, d, nc)
        return pa.table({"source": pa.array(src, pa.string()),
                         "doc_id": pa.array(d, pa.int64()),
                         "n_chars": pa.array(nc, pa.int64())})

    out = (_regroup(_docs(sf_dir, ["doc_id", "source", "n_chars"])
                    .map_batches(partial, batch_format="pyarrow"))
           .groupby("sb")
           .map_groups(final, batch_format="pyarrow"))
    return _schema_finalize(out, {"source": pa.string(),
                                  "doc_id": pa.int64(),
                                  "n_chars": pa.int64()})


SQL_CUSTOMER_REVENUE = """
SELECT c_custkey, c_name, n_name, n_items, revenue_cents FROM (
  SELECT c.c_custkey, c.c_name, n.n_name,
         count(*)::BIGINT AS n_items,
         sum(floor(l.l_extendedprice * (1 - l.l_discount) * 100)::BIGINT)
           ::BIGINT AS revenue_cents
  FROM lineitem l
  JOIN orders o ON l.l_orderkey = o.o_orderkey
  JOIN customer c ON o.o_custkey = c.c_custkey
  JOIN nation n ON c.c_nationkey = n.n_nationkey
  WHERE l.l_returnflag = 'R'
  GROUP BY 1, 2, 3)
ORDER BY revenue_cents DESC, c_custkey LIMIT 20
"""


def q_customer_revenue(sf_dir: str):
    """TPC-H Q10 shape — the chained multi-join every warehouse runs:
    returned-lineitem revenue per customer, top 20, with the customer's
    nation name. Three join layers, each with the scale-correct plan:

    - lineitem (filtered to returnflag='R' AT THE READ side) pre-
      aggregates per orderkey in a combiner, co-groups with orders on
      the orderkey bucket — first exchange moves per-key partials;
    - the join output RE-KEYS to custkey with another in-group
      combiner, unions with customer rows and co-groups on the custkey
      bucket — the second exchange again moves partials;
    - nation (25 rows) is never shuffled OR broadcast: the dim attach
      happens AFTER the global top-k, on exactly 20 rows;
    - top-20 by (revenue DESC, custkey) = per-block partial top-20
      (bounded blocks), then one driver-side pick over <= 20 x blocks
      rows.
    """
    import pyarrow.parquet as pq

    def l_partial(batch: pa.Table) -> pa.Table:
        flag = batch.column("l_returnflag").to_numpy(zero_copy_only=False)
        keep = flag == "R"
        k = batch.column("l_orderkey").to_numpy(zero_copy_only=False)[keep]
        price = batch.column("l_extendedprice").to_numpy(
            zero_copy_only=False)[keep]
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)[keep]
        rev = np.floor(price * (1.0 - disc) * 100).astype(np.int64)
        uk, n, revs = group_sum(k, np.ones(len(k), dtype=np.int64), rev)
        return pa.table({
            "okey": pa.array(uk, pa.int64()),
            "ckey": pa.array(np.full(len(uk), -1, dtype=np.int64)),
            "n": pa.array(n, pa.int64()),
            "rev": pa.array(revs, pa.int64()),
            "is_order": pa.array(np.zeros(len(uk), dtype=bool)),
        })

    def o_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "okey": batch.column("o_orderkey").cast(pa.int64()),
            "ckey": batch.column("o_custkey").cast(pa.int64()),
            "n": pa.array(np.zeros(n, dtype=np.int64)),
            "rev": pa.array(np.zeros(n, dtype=np.int64)),
            "is_order": pa.array(np.ones(n, dtype=bool)),
        })

    def join_orders(group: pa.Table) -> pa.Table:
        """co-group on okey bucket: lineitem partials x orders ->
        per-CUSTKEY partials (combiner for the next exchange)."""
        iso = group.column("is_order").to_numpy(zero_copy_only=False)
        okey = group.column("okey").to_numpy(zero_copy_only=False)
        n = group.column("n").to_numpy(zero_copy_only=False)
        rev = group.column("rev").to_numpy(zero_copy_only=False)
        ckey = group.column("ckey").to_numpy(zero_copy_only=False)
        ukeys, un, ur = group_sum(okey[~iso], n[~iso], rev[~iso])
        ok, ock = okey[iso], ckey[iso]
        hit, pos = sorted_lookup(ukeys, ok)
        # combiner: collapse to one partial per custkey in this bucket
        uck, jn, jr = group_sum(ock[hit], un[pos[hit]], ur[pos[hit]])
        return pa.table({
            "ckey": pa.array(uck, pa.int64()),
            "n": pa.array(jn, pa.int64()),
            "rev": pa.array(jr, pa.int64()),
        })

    def cust_partial(batch: pa.Table) -> pa.Table:
        """tag sides for the custkey co-group under ONE schema."""
        if "ckey" in batch.column_names:      # revenue partial side
            m = batch.num_rows
            return pa.table({
                "ckey": batch.column("ckey"),
                "name": pa.array([""] * m, pa.string()),
                "nationkey": pa.array(np.full(m, -1, dtype=np.int64)),
                "n": batch.column("n"),
                "rev": batch.column("rev"),
                "is_cust": pa.array(np.zeros(m, dtype=bool))})
        m = batch.num_rows                    # customer side
        return pa.table({
            "ckey": batch.column("c_custkey").cast(pa.int64()),
            "name": batch.column("c_name"),
            "nationkey": batch.column("c_nationkey").cast(pa.int64()),
            "n": pa.array(np.zeros(m, dtype=np.int64)),
            "rev": pa.array(np.zeros(m, dtype=np.int64)),
            "is_cust": pa.array(np.ones(m, dtype=bool))})

    def join_customer(group: pa.Table) -> pa.Table:
        isc = group.column("is_cust").to_numpy(zero_copy_only=False)
        key = group.column("ckey").to_numpy(zero_copy_only=False)
        n = group.column("n").to_numpy(zero_copy_only=False)
        rev = group.column("rev").to_numpy(zero_copy_only=False)
        uk, un, ur = group_sum(key[~isc], n[~isc], rev[~isc])
        cidx = np.flatnonzero(isc)
        ck = key[cidx]
        hit, pos = sorted_lookup(uk, ck)   # inner: customers w/ returns
        sel = cidx[hit]
        return pa.table({
            "c_custkey": pa.array(ck[hit], pa.int64()),
            "c_name": group.column("name").take(pa.array(sel)),
            "nationkey": pa.array(group.column("nationkey").to_numpy(
                zero_copy_only=False)[sel], pa.int64()),
            "n_items": pa.array(un[pos[hit]], pa.int64()),
            "revenue_cents": pa.array(ur[pos[hit]], pa.int64()),
        })

    K = 20

    def local_topk(batch: pa.Table) -> pa.Table:
        rev = batch.column("revenue_cents").to_numpy(zero_copy_only=False)
        ck = batch.column("c_custkey").to_numpy(zero_copy_only=False)
        order = np.lexsort((ck, -rev))[:K]
        return batch.take(pa.array(order))

    lpart = _read(f"{sf_dir}/lineitem.parquet",
                  columns=["l_orderkey", "l_returnflag",
                           "l_extendedprice", "l_discount"]
                  ).map_batches(l_partial, batch_format="pyarrow")
    orders = _read(f"{sf_dir}/orders.parquet",
                   columns=["o_orderkey", "o_custkey"]
                   ).map_batches(o_rows, batch_format="pyarrow")
    by_cust = (_regroup(lpart.union(orders)
                        .map_batches(_mod_bucket("okey", "jb"),
                            batch_format="pyarrow"), 0.25)
               .groupby("jb")
               .map_groups(join_orders, batch_format="pyarrow"))
    cust = _read(f"{sf_dir}/customer.parquet",
                 columns=["c_custkey", "c_name", "c_nationkey"])
    # map each side to the COMMON schema BEFORE the union (house
    # pattern): unioning heterogeneous schemas trips Ray's RefBundle
    # schema-consistency warning and depends on unspecified behavior
    rev_side = by_cust.map_batches(cust_partial, batch_format="pyarrow")
    cust_side = cust.map_batches(cust_partial, batch_format="pyarrow")
    per_customer = (_regroup(rev_side.union(cust_side)
                             .map_batches(_mod_bucket("ckey", "cb"),
                                 batch_format="pyarrow"), 0.25)
                    .groupby("cb")
                    .map_groups(join_customer, batch_format="pyarrow"))
    cands = collect_table(
        per_customer.map_batches(local_topk, batch_format="pyarrow"))
    if cands.num_rows == 0:
        return pa.table({"c_custkey": pa.array([], pa.int64()),
                         "c_name": pa.array([], pa.string()),
                         "n_name": pa.array([], pa.string()),
                         "n_items": pa.array([], pa.int64()),
                         "revenue_cents": pa.array([], pa.int64())})
    rev = cands.column("revenue_cents").to_numpy(zero_copy_only=False)
    ck = cands.column("c_custkey").to_numpy(zero_copy_only=False)
    pick = np.lexsort((ck, -rev))[:K]
    top = cands.take(pa.array(pick))
    # dim attach AFTER top-k: 25 nation rows x 20 result rows
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    nk = nat.column("n_nationkey").to_numpy(zero_copy_only=False)
    no = np.argsort(nk, kind="stable")
    hit, pos = sorted_lookup(nk[no], top.column("nationkey").to_numpy(
        zero_copy_only=False))
    if not hit.all():   # fail loud, never attach a wrong dim row
        raise KeyError("customer nationkey missing from nation dim")
    names = nat.column("n_name").take(pa.array(no[pos]))
    return pa.table({
        "c_custkey": top.column("c_custkey"),
        "c_name": top.column("c_name"),
        "n_name": names,
        "n_items": top.column("n_items"),
        "revenue_cents": top.column("revenue_cents"),
    })


SQL_ORDERS_LINEITEM_JOIN = """
SELECT o_orderkey, o_orderpriority,
       count(*)::BIGINT AS n_lines,
       sum(floor(l_extendedprice * (1 - l_discount) * 100)::BIGINT)::BIGINT
         AS revenue_cents
FROM orders JOIN lineitem ON l_orderkey = o_orderkey
WHERE o_orderkey % 31 = 0
GROUP BY o_orderkey, o_orderpriority
"""


def _build_counts(store, row: int, col: int, rows: pa.Table):
    """:func:`~mapchete_xarray_ray.pipelines.commit.tile_writer` builder
    of the store roundtrips: one tile's (px, py) rows -> its one-band
    doc-count grid. On a time-axis archive a doc lands in step
    ``doc_id % n_time`` and the tile writes only the steps it has
    (labelled-slice insertion)."""
    from mapchete_xarray_ray.stages.rasterize import count_tensor

    cp, n = store.chunk_px, rows.num_rows
    px = rows.column("px").to_numpy(zero_copy_only=False)
    py = rows.column("py").to_numpy(zero_copy_only=False)
    tidx = (rows.column("doc_id").to_numpy(zero_copy_only=False) % store.n_time
            if store.has_time else np.zeros(n, dtype=np.int64))
    tensor, present = count_tensor((py % cp) * cp + px % cp, tidx,
                                   [np.ones(n, dtype=np.int64)], cp,
                                   store.spec.dtype)
    if not store.has_time:
        return tensor[:, 0], None, n
    return tensor, store.spec.timestamps[present], n


def _fresh_counts_spec(prefix: str, time: dict | None = None):
    """Fresh tmp-dir JobSpec + initialized one-band int32 count archive
    at ZOOM for a roundtrip query, optionally with a time axis.
    Returns (base_dir, spec)."""
    import atexit
    import os
    import shutil
    import tempfile

    from mapchete_xarray_ray.sinks.zarr import ZarrTileStore
    from mapchete_xarray_ray.spec import JobSpec

    base = tempfile.mkdtemp(prefix=prefix, dir="/tmp")
    # consumed lazily after return -> clean at process exit, not here
    atexit.register(shutil.rmtree, base, ignore_errors=True)
    spec = JobSpec(path=os.path.join(base, "counts.zarr"), zoom=ZOOM,
                   bounds=(-180.0, -90.0, 180.0, 90.0), bands=1,
                   dtype="int32", nodata=0, time=time)
    ZarrTileStore(spec).initialize()
    return base, spec


def _write_counts_archive(sf_dir: str, drop_mod: int | None = None,
                          time: dict | None = None):
    """Rasterize documents into a fresh per-tile count archive at ZOOM
    (the shared write half of the store/pyramid roundtrip queries),
    every tile committed through ``finalize_tile`` with its lineage
    record. Returns (spec, written) AFTER the write barrier — only the
    small per-tile summary rows land on the driver.
    ``drop_mod``: if set, docs with ``doc_id % drop_mod == 0`` are
    excluded (a deterministic "previous corpus generation" for the
    archive-diff query). ``time``: the spec's time axis (see
    :func:`_build_counts`)."""
    from mapchete_xarray_ray.pipelines.commit import tile_writer

    _base, spec = _fresh_counts_spec("store_rt_", time)

    # regroup at 1.0/cpu, not the aggregate default 0.25: the groupby's
    # OUTPUT block count == its input block count, and these groups DO
    # WORK (encode + chunk writes) — 8 blocks would cap the tile-write
    # parallelism at a quarter of the cluster (observed: write stage
    # 8 tasks x 290ms remote while 24 cpus idled)
    docs = _docs(sf_dir, ["doc_id"])
    if drop_mod is not None:
        def keep(batch: pa.Table) -> pa.Table:
            d = batch.column("doc_id").to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(d % drop_mod != 0))
        docs = docs.map_batches(keep, batch_format="pyarrow")
    cols = ["px", "py", "tile_id"] + (["doc_id"] if time else [])
    written = collect_table(
        _regroup(docs
                 .map_batches(assign_doc_ids_fn(ZOOM), batch_format="pyarrow")
                 .select_columns(cols)
                 .map_batches(_mod_bucket("tile_id", "tb"),
                              batch_format="pyarrow"), 1.0)
        .groupby("tb")
        .map_groups(tile_writer(spec, _build_counts), batch_format="pyarrow"))
    return spec, written


def _pixel_rows(spec):
    """Read every tile of a count archive back as one row per non-zero
    pixel: ``(tile_id, iy, ix, n_docs)``, plus ``t_idx`` before ``iy``
    on a time-axis archive. The work list is one LIST of the chunk
    names."""
    from mapchete_xarray_ray.grid import pack_tile_id
    from mapchete_xarray_ray.sinks.zarr import ZarrTileStore
    from mapchete_xarray_ray.sources.zarr_input import map_tiles

    tiles = sorted(ZarrTileStore(spec).existing_tiles())
    names = (["tile_id"] + (["t_idx"] if spec.time is not None else [])
             + ["iy", "ix", "n_docs"])

    def read_tiles(rows: list[int], cols: list[int]) -> pa.Table:
        store = ZarrTileStore(spec)
        parts = []
        for row, col in zip(rows, cols):
            cube = store.read_tile(row, col)[0]  # (h, w) or (T, h, w)
            nz = np.nonzero(cube)
            parts.append([np.full(len(nz[0]), pack_tile_id(spec.zoom, row, col)),
                          *nz, cube[nz]])
        return pa.table({n: pa.array(np.concatenate(c).astype(np.int64))
                         for n, c in zip(names, zip(*parts))})

    return _schema_finalize(map_tiles(tiles, read_tiles),
                            dict.fromkeys(names, pa.int64()))


def q_store_roundtrip(sf_dir: str):
    """Zarr store write/read roundtrip under the driver oracle (S1-S4 +
    A4): documents are rasterized into per-tile count grids, written
    tile-by-tile into a real :class:`ZarrTileStore` archive (encode +
    chunk addressing + fill handling), then read back via
    :meth:`read_tile` and vectorized to one row per non-zero pixel. The
    SQL twin is the plain per-pixel GROUP BY — any byte-level breakage
    in the store (encode/decode, chunk naming, tile->chunk offset)
    flips the hash. Reference contract: _output.py:353-390, 422-458.
    """
    spec, _written = _write_counts_archive(sf_dir)
    return _pixel_rows(spec)


def q_store_roundtrip_prepart(sf_dir: str):
    """Shuffle-free tile write over PRE-PARTITIONED input (S3 + S10 —
    the round-2 verdict's "only structural win left"). Phase 1 pays the
    one all-to-all ONCE, at ingest: assigned rows, already projected
    narrow, land in hive-partitioned parquet keyed by tile-hash bucket
    (``sinks/parquet.write_partitioned`` — atomic per-partition markers,
    so the ingest itself resumes). Phase 2, the recurring job, never
    shuffles: each partition directory is an independent work item; a
    task reads its bucket locally and writes its tiles through the
    exact segment-per-tile path as ``store_roundtrip`` (chunk ownership
    holds because the partition key is ``tile_id % NB``). At 100 TB
    this is the layout that amortizes the ingest exchange across every
    downstream run — re-process, pyramid, incremental — each a pure map
    job that also resumes per partition. The read-back and SQL twin are
    IDENTICAL to ``store_roundtrip``, so the driver hash certifies the
    shuffle-free path produces the same archive content. The reference
    gets the same property from mapchete's per-tile task list
    (_output.py:353-390); here the partition layout IS the task list.
    """
    import os

    import pyarrow.parquet as pq

    from mapchete_xarray_ray.pipelines.commit import tile_writer
    from mapchete_xarray_ray.sinks.parquet import write_partitioned

    base, spec = _fresh_counts_spec("store_prepart_")
    part_dir = os.path.join(base, "pages_by_tb")

    # phase 1 — ingest: the only shuffle, into partitioned storage
    assigned = (_docs(sf_dir, ["doc_id"])
                .map_batches(assign_doc_ids_fn(ZOOM), batch_format="pyarrow")
                .select_columns(["px", "py", "tile_id"])
                .map_batches(_mod_bucket("tile_id", "tb"),
                             batch_format="pyarrow"))
    write_partitioned(assigned, part_dir, "tb", mode="overwrite")

    # phase 2 — the tile-write job: a map over partition dirs, no
    # exchange. pyarrow's dataset reader skips the _SUCCESS markers
    # (default ignore_prefixes '.', '_').
    pdirs = sorted(
        os.path.join(part_dir, d) for d in os.listdir(part_dir)
        if os.path.exists(os.path.join(part_dir, d, "_SUCCESS")))
    write_bucket = tile_writer(spec, _build_counts)

    def write_from_partition(batch: pa.Table) -> pa.Table:
        return pa.concat_tables([write_bucket(pq.read_table(pdir))
                                 for pdir in batch.column("pdir").to_pylist()])

    work = ray.data.from_arrow(pa.table({"pdir": pa.array(pdirs)}))
    collect_table(work.repartition(max(len(pdirs), 1))
                  .map_batches(write_from_partition, batch_format="pyarrow"))

    # phase 3 — read-back, identical to store_roundtrip
    return _pixel_rows(spec)


def q_pyramid_roundtrip(sf_dir: str):
    """E3 (output-as-input pyramid) under the driver oracle: rasterize
    docs into a z5 count archive, run the real pyramid step (per-parent
    2x2 mosaic read -> sum-downsample -> z4 write, no shuffle —
    pipelines/pyramid.py), read the z4 archive back and emit per-pixel
    rows. The SQL twin aggregates counts directly at z4 pixel
    coordinates (px//2, py//2) — any error in the mosaic window read,
    the block-reduce, or the child/parent tile addressing flips the
    hash. Reference contract: _output.py:146-163, 165-200, 556.
    """
    import os

    from mapchete_xarray_ray.pipelines.pyramid import run_pyramid_step
    from mapchete_xarray_ray.sources.zarr_input import spec_from_archive

    spec, _written = _write_counts_archive(sf_dir)
    z4_path = os.path.join(os.path.dirname(spec.path), "counts_z4.zarr")
    # consuming the step's Dataset is the write barrier
    collect_table(run_pyramid_step(spec.path, z4_path, how="sum"))
    return _pixel_rows(spec_from_archive(z4_path))


SQL_PYRAMID_ROUNDTRIP = """
SELECT
  (4::BIGINT << 58)
    | (((((doc_id * 40503) % 8192) // 2) // 256)::BIGINT << 29)
    | ((((doc_id * 2654435761) % 16384) // 2) // 256) AS tile_id,
  (((doc_id * 40503) % 8192) // 2) % 256 AS iy,
  (((doc_id * 2654435761) % 16384) // 2) % 256 AS ix,
  count(*)::BIGINT AS n_docs
FROM documents
GROUP BY tile_id, iy, ix
"""


def q_pyramid_chain(sf_dir: str):
    """E3 ITERATED (the reference's full overview build, not just one
    step): rasterize docs into a z5 count archive, then chain the real
    pyramid step three times — z5 -> z4 -> z3 -> z2, each level a
    per-parent 2x2 mosaic read -> sum-downsample -> write with its own
    lineage records and continue-mode resume
    (pipelines/pyramid.py run_pyramid_chain) — and read the FINAL z2
    archive back per pixel. The SQL twin aggregates counts directly at
    z2 pixel coordinates (px//8: three halvings fused), so any error
    in ANY level's mosaic window, block-reduce, dtype widening
    (uint16 -> uint32 at the first sum level) or addressing flips the
    hash. Reference contract: _output.py:146-163, 165-200, 556.
    """
    from mapchete_xarray_ray.pipelines.pyramid import run_pyramid_chain
    from mapchete_xarray_ray.sources.zarr_input import spec_from_archive

    spec, _written = _write_counts_archive(sf_dir)
    levels = run_pyramid_chain(spec.path, min_zoom=2, how="sum")
    assert [lv["zoom"] for lv in levels] == [4, 3, 2]
    return _pixel_rows(spec_from_archive(levels[-1]["path"]))


SQL_PYRAMID_CHAIN = """
SELECT
  (2::BIGINT << 58)
    | (((((doc_id * 40503) % 8192) // 8) // 256)::BIGINT << 29)
    | ((((doc_id * 2654435761) % 16384) // 8) // 256) AS tile_id,
  (((doc_id * 40503) % 8192) // 8) % 256 AS iy,
  (((doc_id * 2654435761) % 16384) // 8) % 256 AS ix,
  count(*)::BIGINT AS n_docs
FROM documents
GROUP BY tile_id, iy, ix
"""


def q_frame_sample(sf_dir: str):
    """Multimodal frame sampling under the driver's EXACT hash: doc
    text bytes stand in for opaque video payloads; the actor-pool
    :class:`FrameSampleStage` (flat_map shape — one row per sampled
    frame, stride 2) slices each payload into ``(doc_id % 7) + 2``
    frame segments. The fake codec is deterministic byte slicing, so
    the SQL twin reproduces every frame byte-for-byte via substr — the
    Ray-side plumbing (actor pool, small binary batches, flat_map
    output schema) is the real thing being checked.
    """
    from mapchete_xarray_ray.stages.multimodal import FrameSampleStage

    def to_payload(batch: pa.Table) -> pa.Table:
        # ASCII-only subset (helper's byte==codepoint filter), same
        # predicate as the SQL twin's octet_length == length
        t = _text_payload(batch, ascii_only=True)
        d = t.column("id").to_numpy(zero_copy_only=False)
        return t.append_column(
            "n_frames", pa.array((d % 7) + 2, pa.int64()))

    ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(to_payload, batch_format="pyarrow")
        .map_batches(
            FrameSampleStage,
            fn_constructor_kwargs=dict(backend="fake", stride=2),
            batch_format="pyarrow",
            batch_size=256,   # wide binary rows -> bounded batches
            concurrency=2,
        )
    )

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("id"),
            "frame_idx": batch.column("frame_idx"),
            "frame_text": batch.column("frame_payload").cast(pa.string()),
        })

    return ds.map_batches(finalize, batch_format="pyarrow")


SQL_FRAME_SAMPLE = """
WITH f AS (
  SELECT doc_id, text, (doc_id % 7) + 2 AS nf,
         greatest(length(text) // ((doc_id % 7) + 2), 1) AS seg
  FROM documents
  WHERE octet_length(encode(text)) = length(text)  -- ASCII subset
)
SELECT doc_id, frame_idx,
       substr(text, (frame_idx * seg)::INT + 1, seg::INT) AS frame_text
FROM (SELECT doc_id, text, seg,
             unnest(range(0, nf::BIGINT, 2)) AS frame_idx
      FROM f)
"""


def q_emb_neardup_lsh(sf_dir: str):
    """LSH-bucketed embedding near-dup pairs (the scale path next to
    the exact broadcast baseline q_emb_neardup): per-band hyperplane
    buckets, exact cosine within buckets (all emitted pairs are true
    positives), distributed cross-band dedup. SQL-exact: planes and
    embeddings are integer-quantized so the DuckDB twin reproduces the
    buckets bit-for-bit (see _emb_lsh_sql); precision (subset of
    exact) + recall + determinism asserted in tests/test_ann.py."""
    from mapchete_xarray_ray.stages.ann import emb_neardup_lsh_pipeline

    emb = _read(f"{sf_dir}/embeddings.parquet",
                columns=["vec_id", "embedding"])
    out = emb_neardup_lsh_pipeline(emb, dim=64, tau=0.35)
    return _schema_finalize(out, {"id_a": pa.int64(), "id_b": pa.int64()})


def q_store_roundtrip_time(sf_dir: str):
    """The 4-D TIME-AXIS store path under the driver oracle (A3 + S7 +
    the r2 edge-chunk padding): three time steps with ``chunksize=2``
    force TWO time-chunk files per tile (the second padded), docs land
    in step ``doc_id % 3``, each tile writes only the steps it has
    (labeled-slice insertion), and the read-back crosses both chunk
    files. SQL twin: per (tile, step, pixel) counts. Any breakage in
    the time coordinate, chunk addressing ``{t}.{r}.{c}``, padding, or
    labeled insertion flips the hash. Reference: _output.py:213-217,
    358-389, 641-649."""
    steps = ["2024-01-01", "2024-01-02", "2024-01-03"]
    spec, _written = _write_counts_archive(sf_dir, time={
        "start": steps[0], "end": steps[-1], "steps": steps, "chunksize": 2})
    return _pixel_rows(spec)


SQL_STORE_ROUNDTRIP_TIME = """
SELECT
  (5::BIGINT << 58)
    | ((((doc_id * 40503) % 8192) // 256)::BIGINT << 29)
    | (((doc_id * 2654435761) % 16384) // 256) AS tile_id,
  doc_id % 3 AS t_idx,
  ((doc_id * 40503) % 8192) % 256 AS iy,
  ((doc_id * 2654435761) % 16384) % 256 AS ix,
  count(*)::BIGINT AS n_docs
FROM documents
GROUP BY tile_id, t_idx, iy, ix
"""


def _lineitem_exact_rank(sf_dir: str, rank_of_n, out_col: str):
    """Distributed EXACT order statistic (the k-th smallest per key,
    ``rank_of_n(n)`` giving the 1-based rank) of integer price cents
    per (returnflag, linestatus) — the distributed selection shape no
    single-pass commutative aggregate can express. Two streaming
    passes: (1) per-batch partial histograms over coarse 65536-cent
    buckets (vectorized, pre-combined per batch) locate each key's
    target bucket and the rank within it; (2) a filtered rescan keeps
    ONLY that bucket's values (~n / n_buckets rows) and a small per-key
    groupby emits the k-th element distributively. Driver holds
    histograms + one (bucket, rank) per key, never the data."""
    COLS = ["l_returnflag", "l_linestatus", "l_extendedprice"]
    SHIFT = 16  # 65k-cent histogram buckets: ~170 buckets over the price
    # range keeps the per-batch partials small (pre-aggregation works),
    # and the pass-2 rescan still keeps only ~n/170 rows per key

    def hist_partial(batch: pa.Table) -> pa.Table:
        cents = np.floor(batch.column("l_extendedprice").to_numpy(
            zero_copy_only=False) * 100).astype(np.int64)
        t = pa.table({
            "l_returnflag": batch.column("l_returnflag"),
            "l_linestatus": batch.column("l_linestatus"),
            "bucket": pa.array(cents >> SHIFT),
            "n": pa.array(np.ones(len(cents), dtype=np.int64)),
        })
        g = t.group_by(["l_returnflag", "l_linestatus", "bucket"]).aggregate(
            [("n", "sum")])
        return g.rename_columns(["l_returnflag", "l_linestatus", "bucket", "n"])

    hist = collect_table(
        _regroup(_read(f"{sf_dir}/lineitem.parquet", columns=COLS)
                 .map_batches(hist_partial, batch_format="pyarrow"))
        .groupby(["l_returnflag", "l_linestatus", "bucket"])
        .sum("n"))
    hdf = hist.to_pandas().rename(columns={"sum(n)": "n"})

    # per key: target rank -> owning bucket + rank within the bucket
    targets = {}
    for key, grp in hdf.groupby(["l_returnflag", "l_linestatus"]):
        grp = grp.sort_values("bucket")
        counts = grp["n"].to_numpy()
        cum = np.cumsum(counts)
        rank = int(rank_of_n(int(cum[-1])))  # 1-based
        bi = int(np.searchsorted(cum, rank))
        targets[key] = (int(grp["bucket"].iloc[bi]),
                        rank - (int(cum[bi - 1]) if bi else 0))
    t_ref = ray.put(targets)

    def keep_bucket(batch: pa.Table) -> pa.Table:
        tg = ray.get(t_ref)
        rf = batch.column("l_returnflag").to_numpy(zero_copy_only=False)
        ls = batch.column("l_linestatus").to_numpy(zero_copy_only=False)
        cents = np.floor(batch.column("l_extendedprice").to_numpy(
            zero_copy_only=False) * 100).astype(np.int64)
        bucket = cents >> SHIFT
        keep = np.zeros(len(cents), dtype=bool)
        for (krf, kls), (kb, _r) in tg.items():
            keep |= (rf == krf) & (ls == kls) & (bucket == kb)
        return pa.table({
            "l_returnflag": pa.array(rf[keep], pa.string()),
            "l_linestatus": pa.array(ls[keep], pa.string()),
            "cents": pa.array(cents[keep], pa.int64()),
        })

    def pick_kth(group: pa.Table) -> pa.Table:
        # one group per (key); the k-th element comes from a partition
        # select over the ~n/170 in-bucket values — the rescan never
        # lands on the driver (only the per-key result rows do)
        tg = ray.get(t_ref)
        rf = group.column("l_returnflag").to_numpy(zero_copy_only=False)
        ls = group.column("l_linestatus").to_numpy(zero_copy_only=False)
        cents = group.column("cents").to_numpy(zero_copy_only=False)
        _kb, rank_in = tg[(rf[0], ls[0])]
        kth = int(np.partition(cents, rank_in - 1)[rank_in - 1])
        return pa.table({
            "l_returnflag": pa.array([rf[0]], pa.string()),
            "l_linestatus": pa.array([ls[0]], pa.string()),
            out_col: pa.array([kth], pa.int64()),
        })

    out = (_regroup(_read(f"{sf_dir}/lineitem.parquet", columns=COLS)
                    .map_batches(keep_bucket, batch_format="pyarrow"), 0.125)
           .groupby(["l_returnflag", "l_linestatus"])
           .map_groups(pick_kth, batch_format="pyarrow"))
    return _schema_finalize(out, {"l_returnflag": pa.string(),
                                  "l_linestatus": pa.string(),
                                  out_col: pa.int64()})


def q_price_quantile_sketch(sf_dir: str):
    """Binned quantile sketch — the THIRD mergeable sketch family
    (KMV: distincts, CMS: frequencies, this: quantiles). One cheap
    min/max/count scan pins the integer-cents domain, then every batch
    contributes a constant 4096-bin histogram partial; the merged
    histogram answers any quantile by cumulative walk with error
    <= one bin width + 1 cent (the bin's true lower boundary is
    fractional and the estimate floors it; ~0.025% of the range —
    the bound the pytest pins), never re-touching the data — the property that matters when the exact per-key rank
    rescan (``lineitem_median``) is too expensive or the stream is
    gone. ALL arithmetic is integer (cents, bin index by integer
    mul/div, rank targets by ceil division), so the DuckDB twin
    reproduces sketch AND estimates bit-exactly. The driver holds two
    bounded tables: 3 scalars, then 4096 counters."""
    B = 4096
    QS = (500, 950, 990)  # permille

    li = _read(f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"])

    def cents_of(batch: pa.Table) -> np.ndarray:
        p = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        return np.floor(p * 100).astype(np.int64)

    def mmc(batch: pa.Table) -> pa.Table:
        c = cents_of(batch)
        return pa.table({"mn": pa.array([int(c.min())], pa.int64()),
                         "mx": pa.array([int(c.max())], pa.int64()),
                         "n": pa.array([len(c)], pa.int64())})

    EMPTY_OUT = pa.table({"q_permille": pa.array([], pa.int64()),
                          "rank_target": pa.array([], pa.int64()),
                          "est_cents": pa.array([], pa.int64())})

    part = collect_table(li.map_batches(mmc, batch_format="pyarrow"))
    if part.num_rows == 0:
        return EMPTY_OUT
    mn = int(part.column("mn").to_numpy(zero_copy_only=False).min())
    mx = int(part.column("mx").to_numpy(zero_copy_only=False).max())
    n = int(part.column("n").to_numpy(zero_copy_only=False).sum())
    width = mx - mn + 1

    def bins(batch: pa.Table) -> pa.Table:
        from mapchete_xarray_ray.nputil import group_sum

        c = cents_of(batch)
        b = (c - mn) * B // width
        uniq, cnt = group_sum(b, np.ones(len(b), np.int64))
        return pa.table({"bin": pa.array(uniq, pa.int64()),
                         "cnt": pa.array(cnt, pa.int64())})

    from mapchete_xarray_ray.nputil import group_sum

    hist = collect_table(li.map_batches(bins, batch_format="pyarrow"))
    ub, uc = group_sum(hist.column("bin").to_numpy(zero_copy_only=False),
                       hist.column("cnt").to_numpy(zero_copy_only=False))
    cum = np.cumsum(uc)
    rows = []
    for q in QS:
        # ceil(q*n/1000) with a POSITIVE numerator: DuckDB // truncates
        # toward zero while python floors, so -(-x // 1000) diverges on
        # the two engines — (x + 999) // 1000 is floor==trunc-safe
        target = (q * n + 999) // 1000
        bin_ix = int(ub[np.searchsorted(cum, target)])
        rows.append((q, target, mn + bin_ix * width // B))
    return pa.table({
        "q_permille": pa.array([r[0] for r in rows], pa.int64()),
        "rank_target": pa.array([r[1] for r in rows], pa.int64()),
        "est_cents": pa.array([r[2] for r in rows], pa.int64()),
    })


SQL_PRICE_QUANTILE_SKETCH = """
WITH p AS (
  SELECT floor(l_extendedprice * 100)::BIGINT AS cents FROM lineitem
), mm AS (
  SELECT min(cents) AS mn, max(cents) AS mx,
         (max(cents) - min(cents) + 1) AS width, count(*)::BIGINT AS n
  FROM p
), h AS (
  SELECT ((cents - mn) * 4096) // width AS bin, count(*)::BIGINT AS cnt
  FROM p, mm GROUP BY 1
), c AS (
  SELECT bin, sum(cnt) OVER (ORDER BY bin) AS cum FROM h
), qs AS (
  SELECT unnest([500, 950, 990])::BIGINT AS q_permille
), t AS (
  SELECT q_permille, (q_permille * n + 999) // 1000 AS rank_target
  FROM qs, mm
)
SELECT t.q_permille,
       t.rank_target::BIGINT AS rank_target,
       (mm.mn + min(c.bin) * mm.width // 4096)::BIGINT AS est_cents
FROM t JOIN c ON c.cum >= t.rank_target, mm
GROUP BY t.q_permille, t.rank_target, mm.mn, mm.width
"""


def q_lineitem_median(sf_dir: str):
    """Exact lower median (rank (n+1)//2) per key — see
    :func:`_lineitem_exact_rank`."""
    return _lineitem_exact_rank(sf_dir, lambda n: (n + 1) // 2,
                                "median_cents")


def q_lineitem_p95(sf_dir: str):
    """Exact 95th percentile (rank ceil(0.95 n), integer arithmetic so
    the SQL twin is bit-identical) per key — the same two-pass
    histogram+rescan selection as the median, proving the operator
    generalizes to any order statistic."""
    return _lineitem_exact_rank(sf_dir, lambda n: (95 * n + 99) // 100,
                                "p95_cents")


SQL_LINEITEM_P95 = """
SELECT l_returnflag, l_linestatus, cents AS p95_cents FROM (
  SELECT l_returnflag, l_linestatus,
         floor(l_extendedprice * 100)::BIGINT AS cents,
         row_number() OVER (
           PARTITION BY l_returnflag, l_linestatus
           ORDER BY floor(l_extendedprice * 100)::BIGINT) AS rn,
         count(*) OVER (PARTITION BY l_returnflag, l_linestatus) AS n
  FROM lineitem
) WHERE rn = (95 * n + 99) // 100
"""


SQL_LINEITEM_MEDIAN = """
SELECT l_returnflag, l_linestatus, cents AS median_cents FROM (
  SELECT l_returnflag, l_linestatus,
         floor(l_extendedprice * 100)::BIGINT AS cents,
         row_number() OVER (
           PARTITION BY l_returnflag, l_linestatus
           ORDER BY floor(l_extendedprice * 100)::BIGINT) AS rn,
         count(*) OVER (PARTITION BY l_returnflag, l_linestatus) AS n
  FROM lineitem
) WHERE rn = (n + 1) // 2
"""


def q_events_dedup_horizon(sf_dir: str):
    """Stream-shaped dedup-within-horizon (stages/streaming.py's third
    named use case): an event is kept unless the SAME (user,
    event_type) fired within the previous hour — the
    suppress-repeated-alerts operator. Bucketed by user, ordered
    (ts, event_id) within the bucket, boundary-masked vectorized gap
    test; same shape as events_asof."""
    H = 3_600_000_000

    def horizon(group: pa.Table) -> pa.Table:
        eid = group.column("event_id").to_numpy(zero_copy_only=False)
        ts = group.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        uid = group.column("user_id").to_numpy(zero_copy_only=False)
        et = group.column("event_type").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, et, uid))
        eid, ts, uid, et = eid[order], ts[order], uid[order], et[order]
        keep = np.ones(len(eid), dtype=bool)
        if len(eid) > 1:
            same = (uid[1:] == uid[:-1]) & (et[1:] == et[:-1])
            keep[1:] = ~same | (ts[1:] - ts[:-1] > H)
        return pa.table({"event_id": pa.array(eid[keep], pa.int64()),
                         "user_id": pa.array(uid[keep], pa.int64()),
                         "event_type": pa.array(et[keep], pa.string())})

    add_bucket = _mod_bucket("user_id")
    return (
        _regroup(_read(f"{sf_dir}/events.parquet",
                       columns=["event_id", "ts", "user_id", "event_type"])
                 .map_batches(add_bucket, batch_format="pyarrow"),
                 per_cpu=0.5)
        .groupby("bucket")
        .map_groups(horizon, batch_format="pyarrow")
    )


SQL_EVENTS_DEDUP_HORIZON = """
SELECT event_id, user_id, event_type FROM (
  SELECT event_id, user_id, event_type,
         epoch_us(ts) - lag(epoch_us(ts)) OVER
           (PARTITION BY user_id, event_type ORDER BY ts, event_id) AS gap
  FROM events
) WHERE gap IS NULL OR gap > 3600000000
"""


def q_lineitem_rollup(sf_dir: str):
    """Hierarchical aggregate (GROUP BY ROLLUP shape): revenue sums at
    (returnflag, linestatus), per returnflag, and grand total — the
    coarser levels derive from the FINEST aggregate's partial rows
    (never a second scan of the input), the scale-right rollup plan.
    NULL rollup slots use the 'ALL' sentinel on both sides."""
    def partial(batch: pa.Table) -> pa.Table:
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        t = pa.table({
            "l_returnflag": batch.column("l_returnflag"),
            "l_linestatus": batch.column("l_linestatus"),
            "rev": pa.array(np.floor(price * 100).astype(np.int64)),
            "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
        })
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("rev", "sum"), ("n", "sum")])
        return g.rename_columns(["l_returnflag", "l_linestatus", "rev", "n"])

    def rollup(batch: pa.Table) -> pa.Table:
        # derive all three levels from the finest aggregate (tiny)
        base = batch.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("rev", "sum"), ("n", "sum")]).rename_columns(
            ["l_returnflag", "l_linestatus", "rev", "n"])
        lvl1 = base.group_by("l_returnflag").aggregate(
            [("rev", "sum"), ("n", "sum")]).rename_columns(
            ["l_returnflag", "rev", "n"])
        tot_rev = int(pa.compute.sum(base.column("rev")).as_py() or 0)
        tot_n = int(pa.compute.sum(base.column("n")).as_py() or 0)
        out = {
            "l_returnflag": (base.column("l_returnflag").to_pylist()
                             + lvl1.column("l_returnflag").to_pylist()
                             + ["ALL"]),
            "l_linestatus": (base.column("l_linestatus").to_pylist()
                             + ["ALL"] * lvl1.num_rows + ["ALL"]),
            "revenue_cents": (base.column("rev").to_pylist()
                              + lvl1.column("rev").to_pylist() + [tot_rev]),
            "n_rows": (base.column("n").to_pylist()
                       + lvl1.column("n").to_pylist() + [tot_n]),
        }
        return pa.table({
            "l_returnflag": pa.array(out["l_returnflag"], pa.string()),
            "l_linestatus": pa.array(out["l_linestatus"], pa.string()),
            "revenue_cents": pa.array(out["revenue_cents"], pa.int64()),
            "n_rows": pa.array(out["n_rows"], pa.int64()),
        })

    return (_read(f"{sf_dir}/lineitem.parquet",
                  columns=["l_returnflag", "l_linestatus",
                           "l_extendedprice"])
            .map_batches(partial, batch_format="pyarrow")
            .repartition(1)
            .map_batches(rollup, batch_format="pyarrow"))


SQL_LINEITEM_ROLLUP = """
SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag,
       coalesce(l_linestatus, 'ALL') AS l_linestatus,
       sum(floor(l_extendedprice * 100)::BIGINT)::BIGINT AS revenue_cents,
       count(*)::BIGINT AS n_rows
FROM lineitem
GROUP BY ROLLUP(l_returnflag, l_linestatus)
"""


def q_corpus_curation(sf_dir: str):
    """END-TO-END training-data curation, the composition a real user
    runs daily, as ONE streaming chain under the driver's exact hash:
    language-ID (stopword heuristic) -> quality metrics -> filter
    (known lang, >= 20 tokens, >= 100 chars) -> exact dedup by content
    (hash-bucket shuffle, keep min doc_id) -> deterministic 50% sample
    -> (doc_id, lang_pred, n_tokens). One map pass computes all
    per-doc features; the only shuffle is the dedup's bucketed
    co-group. Every stage reuses the individually-oracled kernels, so
    the composed hash pins their interaction, not just each stage.
    """
    return curation_pipeline(_docs(sf_dir, ["doc_id", "text"]))


def curation_pipeline(docs: ray.data.Dataset,
                      keep_text: bool = False) -> ray.data.Dataset:
    """The curation chain over any (doc_id, text) Dataset — shared by
    the registry query and the CLI ``export`` command. ``keep_text``
    carries the curated document text through (the export use case);
    the registry query drops it to match its SQL-twin shape."""
    from mapchete_xarray_ray.functions.geocode import stable_hash64
    from mapchete_xarray_ray.stages.text import langid_stage, quality_stage

    def features_filter(batch: pa.Table) -> pa.Table:
        batch = quality_stage(langid_stage(batch))
        keep = (
            pa.compute.and_(
                pa.compute.and_(
                    pa.compute.not_equal(batch.column("lang_pred"), "unknown"),
                    pa.compute.greater_equal(batch.column("n_tokens"), 20)),
                pa.compute.greater_equal(batch.column("n_chars"), 100)))
        kept = batch.filter(keep)
        h = stable_hash64(kept.column("text").to_numpy(zero_copy_only=False))
        return pa.table({
            "text": kept.column("text"),
            "lang_pred": kept.column("lang_pred"),
            "n_tokens": kept.column("n_tokens"),
            "doc_id": kept.column("doc_id"),
            "bucket": pa.array((h % 64).astype(np.int64)),
        })

    def dedup_sample(group: pa.Table) -> pa.Table:
        # lang_pred / n_tokens are pure functions of text, so min()
        # over a duplicate set returns THE value
        agg = group.group_by("text").aggregate(
            [("doc_id", "min"), ("lang_pred", "min"), ("n_tokens", "min")])
        d = agg.column("doc_id_min").to_numpy(zero_copy_only=False)
        if d.size and (d.min() < 0 or d.max() >= 2**31):
            # the sample multiplier overflows int64 beyond 2^31 ids —
            # numpy would wrap silently while the SQL twin errors
            # (same documented domain as functions/geocode.py)
            raise ValueError(
                "deterministic sample requires 0 <= doc_id < 2**31")
        keep = (d * 2654435761) % 100 < 50
        out = {
            "doc_id": pa.array(d[keep], pa.int64()),
            "lang_pred": agg.column("lang_pred_min").filter(pa.array(keep)),
            "n_tokens": agg.column("n_tokens_min").filter(
                pa.array(keep)).cast(pa.int64()),
        }
        if keep_text:
            # group_by("text") keys-first: column 0 is the text itself
            out["text"] = agg.column("text").filter(pa.array(keep))
        return pa.table(out)

    return (
        _regroup(docs.map_batches(features_filter, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(dedup_sample, batch_format="pyarrow")
    )


def _curation_sql(with_text: bool = False) -> str:
    from mapchete_xarray_ray.stages.text import langid_sql_parts

    hits, case = langid_sql_parts("text")
    inner = ", ".join(hits[L] for L in sorted(hits))
    return rf"""
WITH h AS (SELECT doc_id, text, {inner} FROM documents),
l AS (SELECT doc_id, text, {case} AS lang_pred,
             array_length(regexp_split_to_array(trim(text, ' ' || chr(9) || chr(10) || chr(12) || chr(13)), '\s+'))::BIGINT
               AS n_tokens,
             length(text)::BIGINT AS n_chars
      FROM h),
f AS (SELECT * FROM l
      WHERE lang_pred <> 'unknown' AND n_tokens >= 20 AND n_chars >= 100),
d AS (SELECT text, min(doc_id)::BIGINT AS doc_id,
             min(lang_pred) AS lang_pred,
             min(n_tokens)::BIGINT AS n_tokens
      FROM f GROUP BY text)
SELECT doc_id, lang_pred, n_tokens{", text" if with_text else ""} FROM d
WHERE (doc_id * 2654435761) % 100 < 50
"""


def q_token_stats(sf_dir: str):
    """BPE-ish pre-tokenization counts per document (letter runs |
    digit runs | single non-alnum chars — the GPT-2-style split shape)
    under the driver's EXACT hash: the byte-level vectorized kernel
    (stages/text.py bpe_token_stage) vs DuckDB evaluating the same
    regex via regexp_extract_all."""
    from mapchete_xarray_ray.stages.text import bpe_token_stage

    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(bpe_token_stage, batch_format="pyarrow"))


SQL_TOKEN_STATS = r"""
SELECT doc_id,
  len(regexp_extract_all(text,
      '[A-Za-z]+|[0-9]+|[^A-Za-z0-9 \t\n\x0B\f\r]'))::BIGINT AS n_tokens_bpe,
  len(regexp_extract_all(text, '[A-Za-z]+'))::BIGINT AS n_words,
  len(regexp_extract_all(text, '[0-9]+'))::BIGINT AS n_numbers,
  len(regexp_extract_all(text,
      '[^A-Za-z0-9 \t\n\x0B\f\r]'))::BIGINT AS n_punct
FROM documents
"""


def q_inverted_index(sf_dir: str):
    """Distributed inverted-index build (term -> sorted posting list)
    for mid-frequency vocabulary — the retrieval-side primitive of a
    training-data pipeline (targeted corpus search / contamination
    checks). One pass emits distinct (doc_id, term) pairs per batch
    (within-doc dedup via a pyarrow group_by — docs never span
    batches, so per-batch distinct IS global distinct); pairs shuffle
    once by term-hash bucket; each bucket segments its rows by term
    (lexsort + run lengths), drops df-1 singletons, and materializes
    per-term rows with vectorized Arrow kernels — a zero-copy
    ListArray over the sorted doc-id strings + ``pc.binary_join`` —
    no python loop over terms or rows. ``df`` counts ALL docs, but the
    stored posting list is TRUNCATED to the first ``CAP`` doc_ids (in
    doc_id order) — the standard posting-shard bound: row size stays
    O(CAP) ids at any corpus scale (a hot stopword term carries its
    true df but not a corpus-sized string), and the only all-to-all
    moves (int64, short-string) pairs. Exact DuckDB twin via a
    row_number window under the same cap."""
    import pyarrow.compute as pc

    from mapchete_xarray_ray.functions.geocode import stable_hash64
    from mapchete_xarray_ray.stages.text import trim_ws

    DF_MIN, CAP = 2, 100

    EMPTY = pa.table({"doc_id": pa.array([], pa.int64()),
                      "term": pa.array([], pa.string()),
                      "tb": pa.array([], pa.int64())})

    def doc_term_pairs(batch: pa.Table) -> pa.Table:
        trimmed = trim_ws(batch.column("text"))
        keep = pc.not_equal(trimmed, "")
        doc = batch.column("doc_id").filter(keep)
        if len(doc) == 0:
            return EMPTY
        toks = pc.split_pattern_regex(trimmed.filter(keep), r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        offs = toks.offsets.to_numpy(zero_copy_only=False)
        docs_rep = doc.take(pa.array(np.repeat(
            np.arange(len(toks)), np.diff(offs))))
        pairs = (pa.table({"doc_id": docs_rep, "term": toks.flatten()})
                 .group_by(["doc_id", "term"]).aggregate([]))
        h = stable_hash64(pairs.column("term").to_numpy(zero_copy_only=False)
                          .astype(object)) % 64
        return pairs.append_column("tb", pa.array(h.astype(np.int64)))

    def bucket_postings(group: pa.Table) -> pa.Table:
        out_empty = pa.table({"term": pa.array([], pa.string()),
                              "df": pa.array([], pa.int64()),
                              "postings": pa.array([], pa.string())})
        terms = group.column("term").to_numpy(zero_copy_only=False)
        docs = group.column("doc_id").to_numpy(zero_copy_only=False)
        o = np.lexsort((docs, terms))
        terms, docs = terms[o], docs[o]
        new = np.ones(len(terms), dtype=bool)
        new[1:] = terms[1:] != terms[:-1]
        starts = np.flatnonzero(new)
        df = np.diff(np.append(starts, len(terms)))
        kseg = df >= DF_MIN
        if not kseg.any():
            return out_empty
        # truncate each kept segment to its first CAP rows (doc_id
        # order within a segment is guaranteed by the lexsort above)
        pos = np.arange(len(terms)) - np.repeat(starts, df)
        krow = np.repeat(kseg, df) & (pos < CAP)
        stored = np.minimum(df[kseg], CAP)
        doc_strs = pc.cast(pa.array(docs[krow]), pa.string())
        offsets = np.concatenate(([0], np.cumsum(stored)))
        postings = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                     doc_strs), ",")
        return pa.table({"term": pa.array(terms[starts[kseg]], pa.string()),
                         "df": pa.array(df[kseg], pa.int64()),
                         "postings": postings})

    return (_regroup(_docs(sf_dir, ["doc_id", "text"])
                     .map_batches(doc_term_pairs, batch_format="pyarrow"),
                     0.25)
            .groupby("tb")
            .map_groups(bucket_postings, batch_format="pyarrow"))


SQL_INVERTED_INDEX = r"""
WITH t AS (
  SELECT DISTINCT doc_id,
         unnest(regexp_split_to_array(trim(text, ' ' || chr(9) || chr(10) || chr(12) || chr(13)), '\s+')) AS term
  FROM documents WHERE trim(text, ' ' || chr(9) || chr(10) || chr(12) || chr(13)) <> ''
), r AS (
  SELECT term, doc_id,
         row_number() OVER (PARTITION BY term ORDER BY doc_id) AS rn,
         count(*) OVER (PARTITION BY term) AS df
  FROM t
)
SELECT term, max(df)::BIGINT AS df,
       string_agg(doc_id::VARCHAR, ',' ORDER BY doc_id) AS postings
FROM r WHERE rn <= 100 AND df >= 2
GROUP BY term
"""


def _doc_gram_pairs(batch: pa.Table, n: int, distinct: bool = True) -> tuple:
    """(doc_id, word n-gram) pairs of a batch, fully vectorized:
    tokenize once, compute every gram start position with offset
    arithmetic, materialize gram STRINGS with one
    ``pc.binary_join_element_wise`` over shifted takes (no python loop
    over docs or grams), then (when ``distinct``) dedup within doc via
    a pyarrow group_by. Each row is one whole document, so per-batch
    distinct IS global distinct; ``distinct=False`` keeps every
    occurrence (for frequency-based metrics). Returns
    (doc_ids, grams) arrays (possibly empty)."""
    import pyarrow.compute as pc

    from mapchete_xarray_ray.stages.text import trim_ws

    empty = (pa.array([], pa.int64()), pa.array([], pa.string()))
    if "text" not in batch.column_names or batch.num_rows == 0:
        return empty
    trimmed = trim_ws(batch.column("text"))
    keep = pc.not_equal(trimmed, "")
    doc = batch.column("doc_id").filter(keep)
    if len(doc) == 0:
        return empty
    toks = pc.split_pattern_regex(trimmed.filter(keep), r"\s+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = toks.flatten()
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    lens = np.diff(offs)
    pos_in_doc = np.arange(offs[-1]) - np.repeat(offs[:-1], lens)
    start = pos_in_doc < np.repeat(lens - (n - 1), lens)
    idx = np.flatnonzero(start)
    if len(idx) == 0:
        return empty
    grams = pc.binary_join_element_wise(
        *(flat.take(pa.array(idx + j)) for j in range(n)), " ")
    doc_rep = doc.take(pa.array(
        np.repeat(np.arange(len(lens)), lens)[idx]))
    if not distinct:
        return doc_rep, grams
    pairs = (pa.table({"doc_id": doc_rep, "gram": grams})
             .group_by(["doc_id", "gram"]).aggregate([]))
    return pairs.column("doc_id"), pairs.column("gram")


def q_decontaminate(sf_dir: str):
    """Eval-set decontamination — the pre-training hygiene pass that
    flags train documents sharing any word n-gram with a held-out eval
    set (the GPT-3-style n-gram overlap check). The eval set here is
    the deterministic ``doc_id % 97 == 0`` slice of the corpus (~1%;
    in production it is a separate small table — same shape). Scale
    contract: the eval side is small BY DEFINITION, so its distinct
    gram hashes are collected once and ``ray.put``-broadcast as one
    sorted uint64 array (an eval suite of 10^6 grams is 8 MB); the
    train side streams, and each batch answers itself — distinct
    (doc, gram) pairs, one ``searchsorted`` membership probe, one
    ``group_sum`` per doc — with NO shuffle anywhere. Were the eval
    side ever corpus-sized, the fallback is the repo's hash co-group
    semi-join (see ``customers_with_orders``). Gram identity is the
    64-bit stable hash of the gram string (collision odds ~2^-64 per
    pair — the repo-wide exact-dedup convention). Exact DuckDB twin
    joins on the gram strings themselves."""
    from mapchete_xarray_ray.functions.geocode import stable_hash64
    from mapchete_xarray_ray.nputil import group_sum, sorted_lookup

    N, EVAL_MOD = 3, 97

    docs = _docs(sf_dir, ["doc_id", "text"])

    def _mod_mask(batch: pa.Table, is_eval: bool) -> pa.Array:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        m = (ids % EVAL_MOD) == 0
        return pa.array(m if is_eval else ~m)

    def eval_gram_hashes(batch: pa.Table) -> pa.Table:
        _, grams = _doc_gram_pairs(batch.filter(_mod_mask(batch, True)), N)
        h = np.unique(stable_hash64(
            grams.to_numpy(zero_copy_only=False).astype(object)))
        return pa.table({"h": pa.array(h.view(np.int64), pa.int64())})

    # eval side: tiny by definition -> distinct hashes to the driver
    ev_tabs = [collect_table(docs.map_batches(
        eval_gram_hashes, batch_format="pyarrow"))]
    ev = np.unique(np.concatenate(
        [t.column("h").to_numpy(zero_copy_only=False) for t in ev_tabs
         if t.num_columns > 0] or [np.array([], np.int64)])).view(np.uint64)
    ev_ref = ray.put(np.sort(ev))

    def contaminated(batch: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "hit_grams": pa.array([], pa.int64())})
        d, grams = _doc_gram_pairs(batch.filter(_mod_mask(batch, False)), N)
        if len(d) == 0:
            return empty
        h = stable_hash64(
            grams.to_numpy(zero_copy_only=False).astype(object))
        hit, _ = sorted_lookup(ray.get(ev_ref), h)
        dids = d.to_numpy(zero_copy_only=False)
        uniq, hits = group_sum(dids[hit], np.ones(int(hit.sum()), np.int64))
        return pa.table({"doc_id": pa.array(uniq, pa.int64()),
                         "hit_grams": pa.array(hits, pa.int64())})

    return docs.map_batches(contaminated, batch_format="pyarrow")


SQL_DECONTAMINATE = r"""
WITH w AS (
  SELECT doc_id,
         regexp_split_to_array(trim(text, ' ' || chr(9) || chr(10) || chr(12) || chr(13)), '\s+') AS ws
  FROM documents
  WHERE trim(text, ' ' || chr(9) || chr(10) || chr(12) || chr(13)) <> ''
), g AS (
  SELECT DISTINCT doc_id, array_to_string(ws[i:i+2], ' ') AS gram
  FROM w, LATERAL (SELECT unnest(generate_series(1, len(ws)-2)) AS i) t
), ev AS (
  SELECT DISTINCT gram FROM g WHERE doc_id % 97 = 0
)
SELECT g.doc_id, count(*)::BIGINT AS hit_grams
FROM g JOIN ev USING (gram)
WHERE g.doc_id % 97 <> 0
GROUP BY g.doc_id
"""


def _doc_chunk_pairs(batch: pa.Table, c: int) -> tuple:
    """(doc_id, NON-overlapping word c-chunk) pairs — the fixed-stride
    sibling of :func:`_doc_gram_pairs` (same tokenize + offset
    arithmetic, but only every c-th start position and only FULL
    chunks, every occurrence kept). Returns (doc_ids, chunk_strings)."""
    import pyarrow.compute as pc

    from mapchete_xarray_ray.stages.text import trim_ws

    empty = (pa.array([], pa.int64()), pa.array([], pa.string()))
    trimmed = trim_ws(batch.column("text"))
    keep = pc.not_equal(trimmed, "")
    doc = batch.column("doc_id").filter(keep)
    if len(doc) == 0:
        return empty
    toks = pc.split_pattern_regex(trimmed.filter(keep), r"\s+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = toks.flatten()
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    lens = np.diff(offs)
    pos_in_doc = np.arange(offs[-1]) - np.repeat(offs[:-1], lens)
    start = (pos_in_doc % c == 0) & (pos_in_doc <= np.repeat(lens - c, lens))
    idx = np.flatnonzero(start)
    if len(idx) == 0:
        return empty
    chunks = pc.binary_join_element_wise(
        *(flat.take(pa.array(idx + j)) for j in range(c)), " ")
    doc_rep = doc.take(pa.array(
        np.repeat(np.arange(len(lens)), lens)[idx]))
    return doc_rep, chunks


def q_dup_chunks(sf_dir: str):
    """Cross-document duplicated-chunk scoring — the CCNet/Gopher-style
    boilerplate signal a web corpus is filtered on: split each doc
    into non-overlapping word-8 chunks, count every chunk's
    occurrences CORPUS-WIDE, and report per doc how many of its chunks
    occur anywhere else (same doc or another). Scale contract: ONE
    exchange moves 16 B (doc_id, chunk-hash) pairs bucketed by the
    chunk hash, so all occurrences of a chunk co-locate and each
    bucket answers its own duplicate test and pre-sums per doc; a
    second small exchange folds the per-bucket doc partials. No
    broadcast (the duplicated-chunk set is corpus-sized for real web
    data — unlike decontaminate's tiny eval side, it must never land
    on the driver). Chunk identity is the 64-bit stable hash (the
    repo-wide exact-dedup convention); the DuckDB twin partitions on
    the chunk strings themselves."""
    from mapchete_xarray_ray.functions.geocode import stable_hash64
    from mapchete_xarray_ray.nputil import group_sum

    C = 8
    docs = _docs(sf_dir, ["doc_id", "text"])

    def chunk_pairs(batch: pa.Table) -> pa.Table:
        d, chunks = _doc_chunk_pairs(batch, C)
        h = stable_hash64(
            chunks.to_numpy(zero_copy_only=False).astype(object)
        ).view(np.int64)
        return pa.table({
            "doc_id": d.cast(pa.int64()) if len(d) else pa.array([], pa.int64()),
            "chash": pa.array(h, pa.int64()),
            "cb": pa.array(h % 64, pa.int64()),
        })

    def bucket_stats(group: pa.Table) -> pa.Table:
        ch = group.column("chash").to_numpy(zero_copy_only=False)
        d = group.column("doc_id").to_numpy(zero_copy_only=False)
        uniq_h, inv, cnt = np.unique(ch, return_inverse=True,
                                     return_counts=True)
        dup = (cnt[inv] >= 2).astype(np.int64)
        ud, n, dupn = group_sum(d, np.ones(len(d), np.int64), dup)
        return pa.table({
            "doc_id": pa.array(ud, pa.int64()),
            "n_chunks": pa.array(n, pa.int64()),
            "dup_chunks": pa.array(dupn, pa.int64()),
            "db": pa.array(ud % 64, pa.int64()),
        })

    def doc_fold(group: pa.Table) -> pa.Table:
        d = group.column("doc_id").to_numpy(zero_copy_only=False)
        n = group.column("n_chunks").to_numpy(zero_copy_only=False)
        dupn = group.column("dup_chunks").to_numpy(zero_copy_only=False)
        ud, tn, td = group_sum(d, n, dupn)
        return pa.table({"doc_id": pa.array(ud, pa.int64()),
                         "n_chunks": pa.array(tn, pa.int64()),
                         "dup_chunks": pa.array(td, pa.int64())})

    out = (_regroup(docs.map_batches(chunk_pairs, batch_format="pyarrow"),
                    0.125)
           .groupby("cb")
           .map_groups(bucket_stats, batch_format="pyarrow")
           .groupby("db")
           .map_groups(doc_fold, batch_format="pyarrow"))
    return _schema_finalize(out, {"doc_id": pa.int64(),
                                  "n_chunks": pa.int64(),
                                  "dup_chunks": pa.int64()})


SQL_DUP_CHUNKS = r"""
WITH w AS (
  SELECT doc_id,
         regexp_split_to_array(trim(text, ' ' || chr(9) || chr(10) || chr(12) || chr(13)), '\s+') AS ws
  FROM documents
  WHERE trim(text, ' ' || chr(9) || chr(10) || chr(12) || chr(13)) <> ''
), c AS (
  SELECT doc_id, array_to_string(ws[i:i+7], ' ') AS chunk
  FROM w, LATERAL (SELECT unnest(generate_series(1, len(ws) - 7, 8)) AS i) t
)
SELECT doc_id, count(*)::BIGINT AS n_chunks,
       sum(CASE WHEN cnt >= 2 THEN 1 ELSE 0 END)::BIGINT AS dup_chunks
FROM (SELECT doc_id, count(*) OVER (PARTITION BY chunk) AS cnt FROM c)
GROUP BY doc_id
"""


def q_props_rollup(sf_dir: str):
    """JSON property extraction + per-type rollup (§2.8 json scalar
    fns): pull the integer ``k`` field out of the ``props`` JSON string
    with ONE vectorized regex kernel (``pc.extract_regex`` — no
    per-row json.loads loop) and aggregate per event_type. Doubles are
    int-quantized before the distributed sum (floor(value*1e6), the
    repo convention) so partials are order-independent and the DuckDB
    twin is bit-exact. Scale shape: per-batch combiner collapses each
    block to <=|event_type| rows, then one tiny groupby folds the
    partials; rows with no regex match keep their count but drop out
    of the k aggregates (NULL semantics). The twin uses the SAME
    first-match regex (regexp_extract), not json ->>, so the
    extraction contract is identical by construction — this is a
    substring extractor, not a JSON parser (a quoted '"k":' inside a
    string value resolves to the first match on BOTH sides; true JSON
    semantics would need a per-row json.loads loop)."""
    events = _read(f"{sf_dir}/events.parquet",
                   ["event_type", "props", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ext = pc.extract_regex(batch.column("props").combine_chunks(),
                               r'"k"\s*:\s*(?P<k>-?\d+)')
        k = pc.struct_field(ext, "k").cast(pa.int64())
        micros = pc.floor(pc.multiply(
            batch.column("value").cast(pa.float64()), 1e6)).cast(pa.int64())
        g = (pa.table({"event_type": batch.column("event_type"),
                       "k": k, "micros": micros})
             .group_by("event_type")
             .aggregate([([], "count_all"), ("k", "sum"), ("k", "min"),
                         ("k", "max"), ("micros", "sum")]))
        return pa.table({
            "event_type": g.column("event_type"),
            "n_events": g.column("count_all").cast(pa.int64()),
            "sum_k": g.column("k_sum").cast(pa.int64()),
            "min_k": g.column("k_min").cast(pa.int64()),
            "max_k": g.column("k_max").cast(pa.int64()),
            "sum_value_micros": g.column("micros_sum").cast(pa.int64()),
        })

    def fold(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "event_type": group.column("event_type").slice(0, 1),
            "n_events": pa.array(
                [pc.sum(group.column("n_events")).as_py()], pa.int64()),
            "sum_k": pa.array(
                [pc.sum(group.column("sum_k")).as_py()], pa.int64()),
            "min_k": pa.array(
                [pc.min(group.column("min_k")).as_py()], pa.int64()),
            "max_k": pa.array(
                [pc.max(group.column("max_k")).as_py()], pa.int64()),
            "sum_value_micros": pa.array(
                [pc.sum(group.column("sum_value_micros")).as_py()],
                pa.int64()),
        })

    out = (_regroup(events.map_batches(partial, batch_format="pyarrow"),
                    0.125)
           .groupby("event_type")
           .map_groups(fold, batch_format="pyarrow"))
    return _schema_finalize(out, {
        "event_type": pa.string(), "n_events": pa.int64(),
        "sum_k": pa.int64(), "min_k": pa.int64(), "max_k": pa.int64(),
        "sum_value_micros": pa.int64()})


SQL_PROPS_ROLLUP = r"""
-- the twin uses the SAME first-match regex extraction as the engine
-- (not json ->>): identical contracts by construction, so inputs where
-- a quoted "k" appears inside a string value diverge on NEITHER side
WITH ext AS (
  SELECT event_type, value,
         CAST(NULLIF(regexp_extract(props, '"k"\s*:\s*(-?\d+)', 1), '')
              AS BIGINT) AS k
  FROM events
)
SELECT event_type,
       count(*)::BIGINT AS n_events,
       sum(k)::BIGINT AS sum_k,
       min(k)::BIGINT AS min_k,
       max(k)::BIGINT AS max_k,
       sum(floor(value * 1e6)::BIGINT)::BIGINT AS sum_value_micros
FROM ext
GROUP BY event_type
"""


def q_lang_len_quantiles(sf_dir: str):
    """Per-group EXACT discrete quantiles (percentile_disc) without a
    per-group sort exchange: document length is a bounded-cardinality
    value, so each block collapses to (lang, n_chars)->count partials,
    one small groupby co-locates a language's histogram, and the
    quantile is read off the cumulative counts with integer arithmetic
    (first value where 2*cum >= n for the median, 10*cum >= 9*n for
    p90 — exactly SQL percentile_disc's smallest-value-with-
    cume_dist>=q rule, no float division). Scale contract: the
    exchange moves histogram partials (distinct (lang,len) pairs per
    block), never documents; the per-group fold holds one language's
    distinct lengths, not its rows. For genuinely unbounded value
    domains the binned ``price_quantile_sketch`` is the scale path —
    this is the exact path when cardinality permits. NULL langs are
    excluded on both sides (lang_rebalance contract)."""
    docs = _docs(sf_dir, ["lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        g = (pa.table({"lang": batch.column("lang"),
                       "len": batch.column("n_chars").cast(pa.int64())})
             .filter(pc.is_valid(batch.column("lang")))
             .group_by(["lang", "len"]).aggregate([([], "count_all")]))
        return pa.table({"lang": g.column("lang"),
                         "len": g.column("len"),
                         "cnt": g.column("count_all").cast(pa.int64())})

    def fold(group: pa.Table) -> pa.Table:
        lens = group.column("len").to_numpy(zero_copy_only=False)
        cnts = group.column("cnt").to_numpy(zero_copy_only=False)
        ulen, ucnt = group_sum(lens, cnts)  # ascending lens
        cum = np.cumsum(ucnt)
        n = int(cum[-1])
        med = int(ulen[np.searchsorted(2 * cum, n)])
        p90 = int(ulen[np.searchsorted(10 * cum, 9 * n)])
        return pa.table({"lang": group.column("lang").slice(0, 1),
                         "n_docs": pa.array([n], pa.int64()),
                         "median_len": pa.array([med], pa.int64()),
                         "p90_len": pa.array([p90], pa.int64())})

    out = (_regroup(docs.map_batches(partial, batch_format="pyarrow"),
                    0.125)
           .groupby("lang")
           .map_groups(fold, batch_format="pyarrow"))
    return _schema_finalize(out, {
        "lang": pa.string(), "n_docs": pa.int64(),
        "median_len": pa.int64(), "p90_len": pa.int64()})


SQL_LANG_LEN_QUANTILES = r"""
SELECT lang, count(*)::BIGINT AS n_docs,
       percentile_disc(0.5) WITHIN GROUP (ORDER BY n_chars)::BIGINT
         AS median_len,
       percentile_disc(0.9) WITHIN GROUP (ORDER BY n_chars)::BIGINT
         AS p90_len
FROM documents
WHERE lang IS NOT NULL
GROUP BY lang
"""


def q_kmeans(sf_dir: str):
    """Distributed k-means (3 Lloyd assignment passes, 2 centroid
    updates) — the embedding-clustering step of corpus curation
    (cluster-balanced sampling, semantic dedup pre-bucketing). Scale
    shape: centroids are the ONLY shared state — (k x dim) ints
    broadcast once per round via ``ray.put``; each batch computes its
    assignment locally and collapses to a (k x dim) partial sum +
    k counts, so the driver folds k*blocks bounded rows per round and
    the vectors themselves never shuffle (the pagerank/bpe_merges
    iterative pattern, but with NO exchange at all). Exactness:
    vectors are int-quantized (floor(f64*1e6)) before any arithmetic,
    distances are integer sums (|xq|<=1e6 -> dist <= dim*4e12, far
    inside int64; per-dim partial sums stay exact up to ~9e12 rows),
    argmin ties break toward the smallest cluster id, and the centroid
    update is TRUNCATING division (sign*(|s|//n)) to match DuckDB
    ``//``. Init = the k vectors with the smallest vec_ids (bounded
    per-block min-k partials). The DuckDB twin replays the identical
    rounds as chained CTEs."""
    from mapchete_xarray_ray.stages.ann import _embedding_matrix

    K, ROUNDS = 8, 3
    emb = _read(f"{sf_dir}/embeddings.parquet", ["vec_id", "embedding"])

    def _quant(batch: pa.Table) -> np.ndarray:
        return np.floor(_embedding_matrix(batch, "embedding")
                        * 1e6).astype(np.int64)

    def init_partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        order = np.argsort(ids)[:K]
        xq = _quant(batch)[order]
        return pa.table({"vec_id": pa.array(ids[order], pa.int64()),
                         "xq": pa.array(list(xq), pa.list_(pa.int64()))})

    part = collect_table(emb.map_batches(init_partial,
                                         batch_format="pyarrow"))
    ids = part.column("vec_id").to_numpy(zero_copy_only=False)
    order = np.argsort(ids)[:K]
    cent = np.array(part.column("xq").to_pylist(),
                    dtype=np.int64)[order]  # (K, dim), ascending vec_id

    def round_partial(ref):
        def fn(batch: pa.Table) -> pa.Table:
            c = ray.get(ref)
            x = _quant(batch)
            d2 = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            a = np.argmin(d2, axis=1)  # first min == smallest cluster id
            sums = np.zeros((K, x.shape[1]), np.int64)
            np.add.at(sums, a, x)
            return pa.table({
                "cl": pa.array(np.arange(K, dtype=np.int64)),
                "cnt": pa.array(np.bincount(a, minlength=K)
                                .astype(np.int64)),
                "sums": pa.array(list(sums), pa.list_(pa.int64()))})
        return fn

    for _ in range(ROUNDS - 1):
        ref = ray.put(cent)
        part = collect_table(emb.map_batches(round_partial(ref),
                                             batch_format="pyarrow"))
        cls = part.column("cl").to_numpy(zero_copy_only=False)
        cnts = part.column("cnt").to_numpy(zero_copy_only=False)
        summat = np.array(part.column("sums").to_pylist(), dtype=np.int64)
        new = cent.copy()
        for c in range(K):
            m = cls == c
            n = int(cnts[m].sum())
            if n:  # empty cluster keeps its centroid (twin: coalesce)
                s = summat[m].sum(axis=0)
                new[c] = np.sign(s) * (np.abs(s) // n)  # trunc == DuckDB //
        cent = new

    ref = ray.put(cent)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        x = _quant(batch)
        d2 = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        return pa.table({
            "vec_id": batch.column("vec_id").cast(pa.int64()),
            "cluster": pa.array(np.argmin(d2, axis=1).astype(np.int64))})

    return _schema_finalize(emb.map_batches(assign, batch_format="pyarrow"),
                            {"vec_id": pa.int64(), "cluster": pa.int64()})


def _kmeans_round_sql(prev_c: str, a: str, c: str | None) -> str:
    """One Lloyd round as CTE text: assignment ``a`` from centroids
    ``prev_c`` (argmin of integer squared distance, ties to the
    smallest cluster), then updated centroids ``c`` (truncating
    per-dim mean, empty clusters coalesce to the previous centroid)."""
    out = f"""{a} AS (
  SELECT vec_id, cl FROM (
    SELECT vec_id, cl,
           row_number() OVER (PARTITION BY vec_id ORDER BY dist, cl) AS rn
    FROM (SELECT q.vec_id, c.cl,
                 sum((q.xq - c.cq) * (q.xq - c.cq)) AS dist
          FROM q JOIN {prev_c} c USING (d) GROUP BY q.vec_id, c.cl)
  ) WHERE rn = 1
)"""
    if c is not None:
        out += f""", {c} AS (
  SELECT p.cl, p.d, coalesce((s.sq // s.cnt)::BIGINT, p.cq) AS cq
  FROM {prev_c} p LEFT JOIN (
    SELECT a.cl, q.d, sum(q.xq) AS sq, count(*) AS cnt
    FROM {a} a JOIN q USING (vec_id) GROUP BY a.cl, q.d
  ) s ON s.cl = p.cl AND s.d = p.d
)"""
    return out


SQL_KMEANS = f"""
WITH q AS (
  SELECT vec_id, d, floor(e * 1e6)::BIGINT AS xq
  FROM (SELECT vec_id, unnest(range(64)) AS d,
               unnest(embedding::DOUBLE[]) AS e FROM embeddings)
), init AS (
  SELECT vec_id, (row_number() OVER (ORDER BY vec_id) - 1)::BIGINT AS cl
  FROM embeddings ORDER BY vec_id LIMIT 8
), c0 AS (
  SELECT i.cl, q.d, q.xq AS cq FROM init i JOIN q USING (vec_id)
), {_kmeans_round_sql('c0', 'a1', 'c1')},
{_kmeans_round_sql('c1', 'a2', 'c2')},
{_kmeans_round_sql('c2', 'a3', None)}
SELECT vec_id, cl AS cluster FROM a3
"""


def q_focal_density(sf_dir: str):
    """Focal (3x3 neighborhood) aggregation over the tile grid — the
    halo-exchange primitive behind focal means / convolution pyramids
    (mapchete processes neighbouring-tile context via pixelbuffer
    reads; the zarr driver forbids a WRITE pixelbuffer,
    reference _output.py:42-45, so the neighbourhood op is expressed on
    the tile-count grid instead of the pixel grid). Scale shape:
    REPLICATE-AND-REDUCE — each batch collapses to per-tile count
    partials, every partial is scattered to its <=9 neighbour
    coordinates (a 9x fan-out of TINY aggregated rows, never of
    documents), and ONE groupby folds both the focal sum and the
    tile's own count (``self_n``, nonzero only for the (0,0) offset) so
    no second pass / join is needed to restrict output to tiles that
    actually exist. This is exactly how a halo exchange should look on
    Ray Data: the shuffle moves O(occupied tiles x 9) rows, not pixels,
    and empty neighbourhood slots never materialize."""
    nrows, ncols = 1 << ZOOM, 2 << ZOOM  # geodetic z5: 32 x 64

    def scatter(batch: pa.Table) -> pa.Table:
        batch = assign_doc_ids_fn(ZOOM)(batch)
        g = batch.group_by(["tile_row", "tile_col"]).aggregate(
            [([], "count_all")])
        r = g.column("tile_row").to_numpy(zero_copy_only=False)
        c = g.column("tile_col").to_numpy(zero_copy_only=False)
        n = g.column("count_all").to_numpy(zero_copy_only=False).astype(
            np.int64)
        rcs, contribs, selfs = [], [], []
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                nr, nc = r + dr, c + dc
                keep = ((nr >= 0) & (nr < nrows)
                        & (nc >= 0) & (nc < ncols))
                rcs.append((nr[keep] << 29) | nc[keep])
                contribs.append(n[keep])
                selfs.append(n[keep] if dr == dc == 0
                             else np.zeros(keep.sum(), np.int64))
        return pa.table({"rc": pa.array(np.concatenate(rcs)),
                         "contrib": pa.array(np.concatenate(contribs)),
                         "self_n": pa.array(np.concatenate(selfs))})

    def finalize(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        batch = batch.filter(pc.greater(batch.column("self_n"), 0))
        rc = batch.column("rc").to_numpy(zero_copy_only=False)
        return pa.table({
            "tile_row": pa.array(rc >> 29),
            "tile_col": pa.array(rc & ((1 << 29) - 1)),
            "n_docs": batch.column("self_n").cast(pa.int64()),
            "focal_docs": batch.column("contrib").cast(pa.int64())})

    out = (_regroup(_docs(sf_dir, ["doc_id"])
                    .map_batches(scatter, batch_format="pyarrow"), 0.125)
           .groupby("rc").sum(["contrib", "self_n"])
           .rename_columns({"sum(contrib)": "contrib",
                            "sum(self_n)": "self_n"})
           .map_batches(finalize, batch_format="pyarrow"))
    return _schema_finalize(out, {
        "tile_row": pa.int64(), "tile_col": pa.int64(),
        "n_docs": pa.int64(), "focal_docs": pa.int64()})


SQL_FOCAL_DENSITY = """
WITH cells AS (
  SELECT ((doc_id * 40503) % 8192) // 256 AS r,
         ((doc_id * 2654435761) % 16384) // 256 AS c,
         count(*)::BIGINT AS n
  FROM documents GROUP BY r, c
)
SELECT a.r::BIGINT AS tile_row, a.c::BIGINT AS tile_col,
       a.n::BIGINT AS n_docs, sum(b.n)::BIGINT AS focal_docs
FROM cells a JOIN cells b
  ON b.r BETWEEN a.r - 1 AND a.r + 1
 AND b.c BETWEEN a.c - 1 AND a.c + 1
GROUP BY a.r, a.c, a.n
"""


def q_zonal_stats(sf_dir: str):
    """Zonal statistics (A4-family raster<->vector): per-REGION count +
    char sum of the documents inside it. Zonal semantics differ from
    the PIP join: a point in several overlapping regions is counted by
    EVERY one (admin hierarchies overlap), so this is not a
    post-aggregation of ``pip_join``'s lowest-id assignment. Scale
    shape: the polygon side broadcasts once per actor
    (``ZonalStats.__init__`` builds the edge arrays, ST3), each batch
    collapses to <=|regions| partial rows, and one tiny groupby folds
    them — the exchange moves O(regions x blocks) rows, never points.
    The BETWEEN twin is exact because the fixture rings are integer
    axis-aligned rectangles and PIPJoiner counts edges as inside."""
    from mapchete_xarray_ray.stages.join import ZonalStats

    regions = _pip_regions()
    ds = (_docs(sf_dir, ["doc_id", "n_chars"])
          .map_batches(assign_doc_ids_fn(ZOOM), batch_format="pyarrow")
          .map_batches(
              ZonalStats,
              fn_constructor_kwargs=dict(regions=regions, x_col="px",
                                         y_col="py",
                                         value_cols=("n_chars",)),
              batch_format="pyarrow",
              concurrency=2))
    out = (_regroup(ds, 0.125)
           .groupby("region_id").sum(["n_pts", "sum_n_chars"])
           .rename_columns({"sum(n_pts)": "n_docs",
                            "sum(sum_n_chars)": "sum_chars"}))
    return _schema_finalize(out, {"region_id": pa.int64(),
                                  "n_docs": pa.int64(),
                                  "sum_chars": pa.int64()})


SQL_ZONAL_STATS = """
WITH pts AS (
  SELECT n_chars,
         (doc_id * 2654435761) % 16384 AS px,
         (doc_id * 40503) % 8192 AS py
  FROM documents
), regions(region_id, minx, miny, maxx, maxy) AS (
  VALUES (0, 1000, 1000, 5000, 4000),
         (1, 4000, 3000, 9000, 6000),
         (2, 9000, 3000, 12000, 6000),
         (3, 13000, 500, 16000, 7500)
)
SELECT region_id::BIGINT AS region_id, count(*)::BIGINT AS n_docs,
       sum(n_chars)::BIGINT AS sum_chars
FROM pts JOIN regions
  ON px BETWEEN minx AND maxx AND py BETWEEN miny AND maxy
GROUP BY region_id
"""


def q_grouping_cube(sf_dir: str):
    """Every GROUPING SETS level — ((lang,source),(lang),(source),())
    — computed in ONE exchange: each batch collapses to (lang,source)
    partials once, the partials are scattered to all four grouping
    levels with '(all)' sentinels for the rolled-up dimension (the
    focal_density replicate-and-reduce shape — a 4x fan-out of tiny
    aggregated rows, never of documents), and a single groupby folds
    everything. A naive plan is 4 separate scans + 4 shuffles; this is
    1 scan + 1 shuffle of O(|lang x source| x blocks x 4) rows. NULL
    langs are mapped to '(null)' BEFORE aggregation on both sides so
    data-nulls can't collide with rollup sentinels. ``level`` is the
    GROUPING_ID-style marker (0 = finest, 3 = grand total)."""
    docs = _docs(sf_dir, ["lang", "source", "n_chars"])

    SCHEMA = {"lang": pa.string(), "source": pa.string(),
              "level": pa.int64(), "n_docs": pa.int64(),
              "sum_chars": pa.int64()}

    def scatter(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        g = (pa.table({
                "lang": pc.coalesce(batch.column("lang"),
                                    pa.scalar("(null)")),
                "source": pc.coalesce(batch.column("source"),
                                      pa.scalar("(null)")),
                "n_chars": batch.column("n_chars").cast(pa.int64())})
             .group_by(["lang", "source"])
             .aggregate([([], "count_all"), ("n_chars", "sum")]))
        lang = g.column("lang")
        src = g.column("source")
        n = g.column("count_all").cast(pa.int64())
        s = g.column("n_chars_sum").cast(pa.int64())
        allv = pa.array(["(all)"] * g.num_rows, pa.string())
        parts = []
        for lvl, (lcol, scol) in enumerate(
                [(lang, src), (lang, allv), (allv, src), (allv, allv)]):
            parts.append(pa.table({
                "lang": lcol, "source": scol,
                "level": pa.array([lvl] * g.num_rows, pa.int64()),
                "n_docs": n, "sum_chars": s}))
        return pa.concat_tables(parts)

    out = (_regroup(docs.map_batches(scatter, batch_format="pyarrow"),
                    0.125)
           .groupby(["lang", "source", "level"])
           .sum(["n_docs", "sum_chars"])
           .rename_columns({"sum(n_docs)": "n_docs",
                            "sum(sum_chars)": "sum_chars"}))
    return _schema_finalize(out, SCHEMA)


SQL_GROUPING_CUBE = """
WITH d AS (
  SELECT coalesce(lang, '(null)') AS lang,
         coalesce(source, '(null)') AS source, n_chars
  FROM documents
)
SELECT lang, source, 0::BIGINT AS level, count(*)::BIGINT AS n_docs,
       sum(n_chars)::BIGINT AS sum_chars FROM d GROUP BY lang, source
UNION ALL
SELECT lang, '(all)', 1::BIGINT, count(*)::BIGINT, sum(n_chars)::BIGINT
FROM d GROUP BY lang
UNION ALL
SELECT '(all)', source, 2::BIGINT, count(*)::BIGINT, sum(n_chars)::BIGINT
FROM d GROUP BY source
UNION ALL
SELECT '(all)', '(all)', 3::BIGINT, count(*)::BIGINT, sum(n_chars)::BIGINT
FROM d
"""


def q_focal_pixels(sf_dir: str):
    """Per-PIXEL 3x3 box sum with a real 1-pixel HALO READ from
    neighbouring tiles — mapchete's pixelbuffer processing pattern
    (process tiles read with a buffer; the zarr driver only forbids a
    WRITE buffer, reference _output.py:42-45). Each task reads its
    tile's pixel window expanded by 1 via the integer-exact
    ``read_pixel_window`` mosaic (crossing chunk boundaries, nodata
    fill at archive edges), box-sums the halo'd array with 9 shifted
    adds, and emits the nonzero core pixels. Scale contract: tasks
    read only their own 3x3 chunk neighbourhood (no shuffle at all —
    the tile grid is the partitioning), and the halo is |border| extra
    pixels per tile, the same O(perimeter) overhead a 256-node raster
    pipeline pays. Exact: uint16 counts box-summed in int64."""
    from mapchete_xarray_ray.sinks.zarr import ZarrTileStore
    from mapchete_xarray_ray.sources.zarr_input import (
        map_tiles,
        read_pixel_window,
    )

    spec, written = _write_counts_archive(sf_dir)

    def focal_tiles(rows: list[int], cols: list[int]) -> pa.Table:
        store = ZarrTileStore(spec)
        cp = store.chunk_px
        H, W = store.height, store.width
        out_x, out_y, out_n, out_f = [], [], [], []
        for row, col in zip(rows, cols):
            r0, c0 = row * cp, col * cp
            hr0, hr1 = max(r0 - 1, 0), min(r0 + cp + 1, H)
            hc0, hc1 = max(c0 - 1, 0), min(c0 + cp + 1, W)
            halo = read_pixel_window(store, hr0, hr1, hc0, hc1)[0].astype(
                np.int64)
            # pad to a uniform cp+2 frame so edge tiles (clipped halo)
            # box-sum identically to interior ones (outside = 0 docs)
            frame = np.zeros((cp + 2, cp + 2), np.int64)
            frame[hr0 - (r0 - 1):hr1 - (r0 - 1),
                  hc0 - (c0 - 1):hc1 - (c0 - 1)] = halo
            box = np.zeros((cp, cp), np.int64)
            for dy in range(3):
                for dx in range(3):
                    box += frame[dy:dy + cp, dx:dx + cp]
            core = frame[1:cp + 1, 1:cp + 1]
            yy, xx = np.nonzero(core)
            out_y.append((yy + r0).astype(np.int64))
            out_x.append((xx + c0).astype(np.int64))
            out_n.append(core[yy, xx])
            out_f.append(box[yy, xx])
        return pa.table({"x": pa.array(np.concatenate(out_x)),
                         "y": pa.array(np.concatenate(out_y)),
                         "n_docs": pa.array(np.concatenate(out_n)),
                         "focal_docs": pa.array(np.concatenate(out_f))})

    tiles = list(zip(written.column("tile_row").to_pylist(),
                     written.column("tile_col").to_pylist()))
    return _schema_finalize(map_tiles(tiles, focal_tiles), {
        "x": pa.int64(), "y": pa.int64(),
        "n_docs": pa.int64(), "focal_docs": pa.int64()})


SQL_FOCAL_PIXELS = """
WITH px AS (
  SELECT (doc_id * 2654435761) % 16384 AS x,
         (doc_id * 40503) % 8192 AS y,
         count(*)::BIGINT AS n
  FROM documents GROUP BY x, y
)
SELECT a.x::BIGINT AS x, a.y::BIGINT AS y, a.n::BIGINT AS n_docs,
       sum(b.n)::BIGINT AS focal_docs
FROM px a JOIN px b
  ON b.x BETWEEN a.x - 1 AND a.x + 1
 AND b.y BETWEEN a.y - 1 AND a.y + 1
GROUP BY a.x, a.y, a.n
"""


def q_archive_diff(sf_dir: str):
    """Cross-generation archive diff — the incremental-recompute
    primitive: byte-compare every tile of the current archive (all
    docs) against the previous generation (docs with doc_id % 7 == 0
    missing), emitting ``changed`` per tile. A 100 TB daily pipeline
    re-derives ONLY changed tiles, so this comparison must itself be
    distributed: the work list is the union of both chunk listings,
    each task reads its tile from BOTH stores (missing chunks in the
    old generation read back as fill — reference test_driver.py:39-46
    semantics) and compares RAW BYTES. Exact byte identity, not
    checksum equality: lineage crc32 is the resume hint, but a diff
    that feeds recompute decisions cannot accept hash-collision
    false-negatives. Delegates to the CLI's kernel
    (:func:`pipelines.diff.archive_diff_ds`) so the compare contract
    lives in one place; the union equals the current generation's tile
    list here because the old generation's docs are a subset. The SQL
    twin: a tile changed iff it contains a doc whose id is 0 mod 7."""
    from mapchete_xarray_ray.pipelines.diff import archive_diff_ds

    spec_a, _written_a = _write_counts_archive(sf_dir)
    spec_b, _written_b = _write_counts_archive(sf_dir, drop_mod=7)
    out = archive_diff_ds(spec_a.path, spec_b.path)
    return _schema_finalize(out, {"tile_id": pa.int64(),
                                  "changed": pa.int64()})


SQL_ARCHIVE_DIFF = """
SELECT
  (5::BIGINT << 58)
    | ((((doc_id * 40503) % 8192) // 256)::BIGINT << 29)
    | (((doc_id * 2654435761) % 16384) // 256) AS tile_id,
  max(CASE WHEN doc_id % 7 = 0 THEN 1 ELSE 0 END)::BIGINT AS changed
FROM documents
GROUP BY tile_id
"""


def q_seq_pack(sf_dir: str):
    """Sequence packing — the pre-training batching step: concatenate
    every document's tokens in doc_id order into one global token
    stream and split it into fixed-size context windows (B=256), so
    each doc lands at a deterministic (window, offset); docs may span
    windows (first_seq < last_seq). The primitive underneath is a
    DISTRIBUTED WEIGHTED PREFIX-SUM over a 100-TB-wide total order —
    the same two-phase scan as ``events_rank`` but summing token
    counts, not row counts: text tokenizes ONCE into a materialized
    3-int64-column projection, one pass over it reduces each doc_id
    RANGE to a constant-size token-count partial, the driver folds
    the tiny range table into exclusive offsets and broadcasts it,
    and a range-bucketed co-group stamps every doc with
    ``range offset + in-range exclusive cumsum``. No all-to-all sort
    of the docs; range width (64 docs) is a knob. Exact DuckDB twin
    via a ROWS UNBOUNDED PRECEDING window sum."""
    from mapchete_xarray_ray.nputil import group_sum, sorted_lookup
    from mapchete_xarray_ray.stages.text import token_count_stage, trim_ws

    B, RANGE = 256, 64

    docs = _docs(sf_dir, ["doc_id", "text"])

    def tok_rb(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "n_tokens": pa.array([], pa.int64()),
                          "rb": pa.array([], pa.int64())})
        keep = pc.not_equal(trim_ws(batch.column("text")), "")
        kept = batch.filter(keep)
        if kept.num_rows == 0:
            return empty
        out = token_count_stage(kept)
        d = out.column("doc_id").cast(pa.int64())
        return pa.table({
            "doc_id": d,
            "n_tokens": out.column("n_tokens"),
            "rb": pa.array(d.to_numpy(zero_copy_only=False) // RANGE,
                           pa.int64()),
        })

    # tokenize ONCE: the regex split is the dominant CPU cost, so both
    # passes run over this materialized 3-int64-column projection
    # (~24 B/doc, a few % of input bytes — the object store spills it
    # at corpus scale) instead of re-tokenizing the text per pass
    counts = docs.map_batches(tok_rb, batch_format="pyarrow").materialize()

    def range_sums(batch: pa.Table) -> pa.Table:
        uniq, tot = group_sum(
            batch.column("rb").to_numpy(zero_copy_only=False),
            batch.column("n_tokens").to_numpy(zero_copy_only=False))
        return pa.table({"rb": pa.array(uniq, pa.int64()),
                         "tok": pa.array(tot, pa.int64())})

    part = collect_table(counts.map_batches(range_sums,
                                            batch_format="pyarrow"))
    rb = part.column("rb").to_numpy(zero_copy_only=False)
    tok = part.column("tok").to_numpy(zero_copy_only=False)
    uniq_rb, total = group_sum(rb, tok)
    offsets = np.concatenate(([0], np.cumsum(total)[:-1])) \
        if len(total) else total
    pref_ref = ray.put((uniq_rb, offsets))

    def stamp(group: pa.Table) -> pa.Table:
        d = group.column("doc_id").to_numpy(zero_copy_only=False)
        n = group.column("n_tokens").to_numpy(zero_copy_only=False)
        ranges, prefix = ray.get(pref_ref)
        hit, pos = sorted_lookup(ranges, d[:1] // RANGE)
        if not hit.all():
            raise KeyError("doc range missing from prefix table")
        order = np.argsort(d, kind="stable")
        start = np.empty(len(d), dtype=np.int64)
        start[order] = prefix[pos[0]] + np.concatenate(
            ([0], np.cumsum(n[order])[:-1]))
        return pa.table({
            "doc_id": pa.array(d, pa.int64()),
            "n_tokens": pa.array(n, pa.int64()),
            "tok_start": pa.array(start, pa.int64()),
            "first_seq": pa.array(start // B, pa.int64()),
            "last_seq": pa.array((start + n - 1) // B, pa.int64()),
            "seq_offset": pa.array(start % B, pa.int64()),
        })

    out = (_regroup(counts)
           .groupby("rb")
           .map_groups(stamp, batch_format="pyarrow"))
    return _schema_finalize(out, {
        "doc_id": pa.int64(), "n_tokens": pa.int64(),
        "tok_start": pa.int64(), "first_seq": pa.int64(),
        "last_seq": pa.int64(), "seq_offset": pa.int64()})


SQL_SEQ_PACK = r"""
WITH t AS (
  SELECT doc_id,
         array_length(regexp_split_to_array(trim(text, ' ' || chr(9) || chr(10) || chr(12) || chr(13)), '\s+'))::BIGINT AS n_tokens
  FROM documents
  WHERE trim(text, ' ' || chr(9) || chr(10) || chr(12) || chr(13)) <> ''
), c AS (
  SELECT doc_id, n_tokens,
         coalesce(sum(n_tokens) OVER (ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)::BIGINT
           AS tok_start
  FROM t
)
SELECT doc_id, n_tokens, tok_start,
       (tok_start // 256)::BIGINT AS first_seq,
       ((tok_start + n_tokens - 1) // 256)::BIGINT AS last_seq,
       (tok_start % 256)::BIGINT AS seq_offset
FROM c
"""


def q_lang_rebalance(sf_dir: str):
    """Temperature-based language rebalancing — the multilingual
    pretraining sampler (mT5/XLM-R): languages are resampled toward
    q_l ∝ n_l^alpha (alpha=0.5, i.e. sqrt), which up-weights tail
    languages relative to their corpus share; per-lang keep rate
    r_l = min(1, T*q_l/n_l) under a budget T = 4N/5, capped at 1 for
    languages already under their target. Keep decisions are the
    repo's exact hash-derived uniforms (u < r_l), so the sample is a
    pure function of doc_id — reproducible across runs, partitionings
    and engines. Scale shape: one tiny per-lang count groupby (partial
    counts per batch, langs number in the dozens), the rate table is
    computed driver-side with scalar libm (``math.sqrt`` — correctly
    rounded, bit-identical to DuckDB ``sqrt``; the cross-lang sum
    accumulates in lang-ascending order on BOTH sides) and broadcast;
    the keep pass is a stateless map. Exact SQL twin with the same
    expression tree."""
    import math

    from mapchete_xarray_ray.nputil import group_sum

    docs = _docs(sf_dir, ["doc_id", "lang"])

    def lang_counts(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # NULL lang drops out, matching the twin's JOIN USING (lang)
        g = (pa.table({"lang": batch.column("lang")})
             .filter(pc.is_valid(batch.column("lang")))
             .group_by("lang").aggregate([([], "count_all")]))
        return pa.table({"lang": g.column("lang"),
                         "cnt": g.column("count_all").cast(pa.int64())})

    part = collect_table(docs.map_batches(lang_counts,
                                          batch_format="pyarrow"))
    langs = part.column("lang").to_numpy(zero_copy_only=False)
    cnts = part.column("cnt").to_numpy(zero_copy_only=False)
    uniq_l, uniq_c = group_sum(langs.astype(object), cnts)
    n_total = int(uniq_c.sum())
    budget = (4 * n_total) // 5
    # lang-ascending accumulation order == the SQL twin's
    # sum(... ORDER BY lang); group_sum already returns keys ascending
    ssum = 0.0
    for c in uniq_c:
        ssum += math.sqrt(float(c))
    rates = np.array([
        min(1.0, (float(budget) * (math.sqrt(float(c)) / ssum)) / float(c))
        for c in uniq_c])
    table_ref = ray.put((uniq_l.astype("U"), rates))

    def keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "lang": pa.array([], pa.string())})
        # NULL lang drops out here too (twin: inner JOIN USING (lang))
        batch = batch.filter(pc.is_valid(batch.column("lang")))
        if batch.num_rows == 0:
            return empty
        ls, rs = ray.get(table_ref)
        d = batch.column("doc_id").to_numpy(zero_copy_only=False)
        bl = batch.column("lang").to_numpy(zero_copy_only=False).astype("U")
        pos = np.searchsorted(ls, bl)
        if (pos >= len(ls)).any() or (ls[pos] != bl).any():
            raise KeyError("lang missing from rate table")
        u = ((d * 2654435761) % 2147483647 + 1) / 2147483648.0
        m = u < rs[pos]
        return pa.table({"doc_id": pa.array(d[m], pa.int64()),
                         "lang": batch.column("lang").filter(pa.array(m))})

    return docs.map_batches(keep, batch_format="pyarrow")


SQL_LANG_REBALANCE = r"""
WITH c AS (
  SELECT lang, count(*)::BIGINT AS cnt FROM documents
  WHERE lang IS NOT NULL GROUP BY lang
), s AS (
  SELECT sum(sqrt(cnt::DOUBLE) ORDER BY lang) AS ssum,
         (4 * sum(cnt) // 5)::BIGINT AS budget
  FROM c
), r AS (
  SELECT lang,
         least(1.0, (budget::DOUBLE * (sqrt(cnt::DOUBLE) / ssum))
                    / cnt::DOUBLE) AS rate
  FROM c, s
)
SELECT d.doc_id, d.lang
FROM documents d JOIN r USING (lang)
WHERE ((d.doc_id * 2654435761) % 2147483647 + 1) / 2147483648.0 < r.rate
"""


def q_centroid_classify(sf_dir: str):
    """Nearest-centroid classification over the embedding corpus — the
    cheap quality-classifier shape of a training-data pipeline (assign
    every vector to its closest class prototype, report agreement with
    the stored label). Entirely SHUFFLE-FREE: pass 1 reduces each
    batch to a constant (labels x dims) quantized-sum partial
    (``np.add.at``), the driver folds the bounded partial table
    (labels x dims x blocks rows) and broadcasts the (L, 64) int64
    centroid sums + counts; pass 2 is a stateless map computing exact
    INTEGER dot products (quantized components x quantized sums — no
    float accumulation anywhere) and scoring ``dot/count`` with one
    IEEE division, ties to the smallest label. Both engines see
    bit-identical floats, so the argmax (and the twin) is exact.
    int64 headroom: |q| <= 1e6, sum_q <= n_label*1e6, dot <= 64*1e12*
    n_label — safe to ~10^5 vectors/label; past that, drop the
    quantization scale a decade."""
    from mapchete_xarray_ray.stages.ann import _embedding_matrix

    DIM, SCALE = 64, 1_000_000

    emb = _read(f"{sf_dir}/embeddings.parquet",
                columns=["vec_id", "embedding", "label"])

    def partials(batch: pa.Table) -> pa.Table:
        lab = batch.column("label").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        q = np.floor(_embedding_matrix(batch, "embedding")
                     * SCALE).astype(np.int64)
        uniq, inv = np.unique(lab, return_inverse=True)
        sums = np.zeros((len(uniq), DIM), dtype=np.int64)
        np.add.at(sums, inv, q)
        cnts = np.bincount(inv).astype(np.int64)
        # the count rides on every dim row (q_lang_centroid's shape) —
        # summing it across batches per (label, dim) stays the label
        # count, readable off any one dim
        return pa.table({
            "label": pa.array(np.repeat(uniq, DIM), pa.int64()),
            "dim": pa.array(np.tile(np.arange(DIM, dtype=np.int64),
                                    len(uniq))),
            "sum_q": pa.array(sums.ravel()),
            "n_vecs": pa.array(np.repeat(cnts, DIM)),
        })

    from mapchete_xarray_ray.nputil import group_sum

    part = collect_table(emb.map_batches(partials, batch_format="pyarrow"))
    if "label" not in part.column_names or part.num_rows == 0:
        # empty corpus -> zero-block read; broadcast an empty table so
        # classify's len(labels)==0 guard emits the empty schema
        part = pa.table({"label": pa.array([], pa.int64()),
                         "dim": pa.array([], pa.int64()),
                         "sum_q": pa.array([], pa.int64()),
                         "n_vecs": pa.array([], pa.int64())})
    lab = part.column("label").to_numpy(zero_copy_only=False)
    dim = part.column("dim").to_numpy(zero_copy_only=False)
    uk, sum_q, n_vecs = group_sum(
        lab * DIM + dim,
        part.column("sum_q").to_numpy(zero_copy_only=False),
        part.column("n_vecs").to_numpy(zero_copy_only=False))
    labels = np.unique(uk // DIM)
    sum_mat = np.zeros((len(labels), DIM), dtype=np.int64)
    counts = np.zeros(len(labels), dtype=np.int64)
    li = np.searchsorted(labels, uk // DIM)
    sum_mat[li, uk % DIM] = sum_q
    counts[li[uk % DIM == 0]] = n_vecs[uk % DIM == 0]
    cent_ref = ray.put((labels, sum_mat, counts.astype(np.float64)))

    def classify(batch: pa.Table) -> pa.Table:
        empty = pa.table({"vec_id": pa.array([], pa.int64()),
                          "label": pa.array([], pa.int64()),
                          "pred_label": pa.array([], pa.int64()),
                          "correct": pa.array([], pa.int64())})
        labels, sum_mat, cnts_f = ray.get(cent_ref)
        if len(labels) == 0:  # empty corpus -> nothing to classify
            return empty
        q = np.floor(_embedding_matrix(batch, "embedding")
                     * SCALE).astype(np.int64)
        dots = q @ sum_mat.T                      # exact int64
        scores = dots.astype(np.float64) / cnts_f[None, :]
        # labels ascend, np.argmax takes the FIRST max -> ties resolve
        # to the smallest label, matching the twin's (score DESC,
        # cand ASC) row_number
        pred = labels[np.argmax(scores, axis=1)]
        true = batch.column("label").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({
            "vec_id": batch.column("vec_id").cast(pa.int64()),
            "label": pa.array(true, pa.int64()),
            "pred_label": pa.array(pred, pa.int64()),
            "correct": pa.array((pred == true).astype(np.int64)),
        })

    return emb.map_batches(classify, batch_format="pyarrow")


SQL_CENTROID_CLASSIFY = """
WITH q AS (
  SELECT vec_id, label::BIGINT AS label,
         unnest(range(64))::BIGINT AS dim,
         floor(CAST(unnest(embedding) AS DOUBLE) * 1000000)::BIGINT AS qv
  FROM embeddings
), c AS (
  SELECT label, dim, sum(qv)::BIGINT AS sum_q FROM q GROUP BY label, dim
), n AS (
  SELECT label::BIGINT AS label, count(*)::BIGINT AS n_vecs
  FROM embeddings GROUP BY label
), dots AS (
  SELECT q.vec_id, q.label, c.label AS cand,
         sum(q.qv * c.sum_q)::BIGINT AS dot
  FROM q JOIN c USING (dim)
  GROUP BY q.vec_id, q.label, c.label
), best AS (
  SELECT d.vec_id, d.label, d.cand,
         row_number() OVER (
           PARTITION BY d.vec_id
           ORDER BY CAST(d.dot AS DOUBLE) / CAST(n.n_vecs AS DOUBLE) DESC,
                    d.cand ASC) AS rn
  FROM dots d JOIN n ON n.label = d.cand
)
SELECT vec_id, label, cand AS pred_label,
       (CASE WHEN cand = label THEN 1 ELSE 0 END)::BIGINT AS correct
FROM best WHERE rn = 1
"""


def _tokenize_words(batch: pa.Table, merge_list):
    """Whitespace words of a batch with the accumulated BPE merges
    applied in order (vectorized literal replace). Tokenizes ONCE and
    returns ``(keep, words, n_words_per_row, raw_lens)`` — the
    pre-merge codepoint lengths come from the same pass so callers
    never re-run the regex split just to measure the raw words."""
    import pyarrow.compute as pc

    from mapchete_xarray_ray.stages.text import trim_ws

    trimmed = trim_ws(batch.column("text"))
    keep = pc.not_equal(trimmed, "")
    toks = pc.split_pattern_regex(trimmed.filter(keep), r"\s+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    words = toks.flatten()
    raw_lens = pc.utf8_length(words).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    for pair, sym in merge_list:
        words = pc.replace_substring(words, pattern=pair, replacement=sym)
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    return keep, words, np.diff(offs), raw_lens


def _learn_bpe(sf_dir: str, rounds: int = 3):
    """The BPE merge loop shared by q_bpe_merges / q_bpe_encode: per
    round, ONE distributed map pass counts adjacent symbol pairs under
    the merges learned so far, and the driver folds a table bounded by
    |alphabet|^2. Returns (rows, merges): (round, pair, cnt) rows and
    the ordered (pair, symbol) merge list."""
    import pyarrow.compute as pc

    docs = _docs(sf_dir, ["text"])
    merges: list[tuple[str, str]] = []   # (pair, merged symbol), in order

    def pair_counts(merge_list):
        def fn(batch: pa.Table) -> pa.Table:
            empty = pa.table({"pair": pa.array([], pa.string()),
                              "cnt": pa.array([], pa.int64())})
            _keep, words, _nw, _raw = _tokenize_words(batch, merge_list)
            # sort words longest-first ONCE so window i only slices the
            # prefix of words long enough to have a pair there — total
            # slice work is O(total chars), not O(max_len x n_words)
            # (one pathological unbroken token must not multiply the
            # cost of every short word in the batch)
            lens = pc.utf8_length(words).to_numpy(zero_copy_only=False)
            order = np.argsort(-lens, kind="stable")
            words = words.take(pa.array(order))
            lens_desc = lens[order]
            max_len = int(lens_desc[0]) if len(lens_desc) else 0
            parts = []
            for i in range(max(max_len - 1, 0)):
                # words with length >= i+2 form a prefix of the sort
                k = int(np.searchsorted(-lens_desc, -(i + 2), side="right"))
                if k == 0:
                    break
                parts.append(pc.utf8_slice_codeunits(
                    words.slice(0, k), i, i + 2))
            if not parts:
                return empty
            g = (pa.table({"pair": pa.concat_arrays(
                    [p.combine_chunks() if isinstance(p, pa.ChunkedArray)
                     else p for p in parts])})
                 .group_by("pair").aggregate([([], "count_all")]))
            return pa.table({"pair": g.column("pair"),
                             "cnt": g.column("count_all").cast(pa.int64())})

        return fn

    out_rows = []
    for r in range(rounds):
        part = collect_table(docs.map_batches(pair_counts(list(merges)),
                                              batch_format="pyarrow"))
        folded = (part.group_by("pair")
                  .aggregate([("cnt", "sum")]))
        pairs = folded.column("pair").to_numpy(zero_copy_only=False)
        cnts = folded.column("cnt_sum").to_numpy(zero_copy_only=False)
        if len(pairs) == 0:
            break
        best = np.lexsort((pairs, -cnts))[0]
        out_rows.append((r, str(pairs[best]), int(cnts[best])))
        merges.append((str(pairs[best]), chr(0xE000 + r)))
    return out_rows, merges


def q_bpe_merges(sf_dir: str):
    """BPE tokenizer TRAINING on the engine — 3 rounds of the
    byte-pair-encoding merge loop: count every adjacent symbol pair
    across the corpus, merge the most frequent (ties to the
    lexicographically smallest pair — utf8 byte order == codepoint
    order, so python and DuckDB agree), repeat with the merge applied.
    Each round is ONE distributed map pass (tokenize, apply the
    accumulated merges in order via vectorized literal replace —
    python str.replace, Arrow replace_substring and DuckDB replace all
    substitute non-overlapping left-to-right, so 'aaa' merges
    identically everywhere) followed by a driver fold of pair-count
    partials — the fold table is bounded by |alphabet|^2, never
    corpus-sized, which is exactly why BPE training streams at any
    scale. Merged pairs become private-use codepoints (U+E000+r) so
    every symbol stays one codepoint and round r+1's pairs are plain
    2-codepoint slices. Exact 3-round chained-CTE DuckDB twin (the
    pagerank pattern)."""
    rows, _merges = _learn_bpe(sf_dir, 3)
    return pa.table({
        "round": pa.array([r for r, _p, _c in rows], pa.int64()),
        "pair": pa.array([p for _r, p, _c in rows], pa.string()),
        "cnt": pa.array([c for _r, _p, c in rows], pa.int64()),
    })


def q_bpe_encode(sf_dir: str):
    """Tokenizer TRAINING + APPLICATION composed: learn the 3 BPE
    merges (see ``_learn_bpe``), then one more map pass encodes every
    document under the learned tokenizer and reports its token-budget
    numbers — whitespace token count, total symbol count after merges
    (what the doc costs in context-window space), and raw codepoint
    count. The application pass is map-only (tokenize, 3 vectorized
    replaces, one per-doc segment sum via reduceat); the per-doc fold
    never leaves the batch because each row is one whole document.
    Exact DuckDB twin: the training CTE chain extended by one more
    replace and a per-doc GROUP BY."""
    _rows, merges = _learn_bpe(sf_dir, 3)

    def encode(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "n_tokens": pa.array([], pa.int64()),
                          "n_symbols": pa.array([], pa.int64()),
                          "n_raw_chars": pa.array([], pa.int64())})
        keep, words, n_words, raw = _tokenize_words(batch, merges)
        doc = batch.column("doc_id").filter(keep)
        if len(doc) == 0:
            return empty
        sym = pc.utf8_length(words).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        starts = np.concatenate(([0], np.cumsum(n_words)[:-1]))
        return pa.table({
            "doc_id": doc.cast(pa.int64()),
            "n_tokens": pa.array(n_words, pa.int64()),
            "n_symbols": pa.array(np.add.reduceat(sym, starts), pa.int64()),
            "n_raw_chars": pa.array(np.add.reduceat(raw, starts), pa.int64()),
        })

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        encode, batch_format="pyarrow")


def _bpe_chain_sql(with_doc_id: bool) -> str:
    """ONE source of truth for the 3-round BPE training CTE chain
    shared by SQL_BPE_MERGES and SQL_BPE_ENCODE (parameterized only on
    whether w-CTEs carry doc_id). ``coalesce((SELECT pair FROM mN),
    '')`` makes an exhausted round a NO-OP replace — DuckDB
    ``replace(w, '', x)`` returns ``w`` — matching ``_learn_bpe``'s
    early break on a corpus with no mergeable pairs left (a bare NULL
    pattern would NULL every word instead)."""
    dc = "doc_id, " if with_doc_id else ""
    out = [r"""WITH w0 AS (
  SELECT """ + dc + r"""unnest(regexp_split_to_array(trim(text, ' ' || chr(9) || chr(10) || chr(12) || chr(13)), '\s+')) AS w
  FROM documents
  WHERE trim(text, ' ' || chr(9) || chr(10) || chr(12) || chr(13)) <> ''
)"""]
    for r_ in range(3):
        out.append(f""", p{r_} AS (
  SELECT substr(w, i, 2) AS pair, count(*)::BIGINT AS cnt
  FROM w{r_}, LATERAL (SELECT unnest(generate_series(1, length(w)-1)) AS i) t
  GROUP BY 1
), m{r_} AS (SELECT pair, cnt FROM p{r_} ORDER BY cnt DESC, pair ASC LIMIT 1)
, w{r_ + 1} AS (SELECT {dc}replace(w,
    coalesce((SELECT pair FROM m{r_}), ''), chr({57344 + r_})) AS w
  FROM w{r_})""")
    return "".join(out)


SQL_BPE_MERGES = _bpe_chain_sql(False) + """
SELECT 0::BIGINT AS round, pair, cnt FROM m0
UNION ALL SELECT 1::BIGINT, pair, cnt FROM m1
UNION ALL SELECT 2::BIGINT, pair, cnt FROM m2
"""


SQL_BPE_ENCODE = _bpe_chain_sql(True) + """
, r AS (
  SELECT doc_id, sum(length(w))::BIGINT AS n_raw_chars FROM w0 GROUP BY doc_id
)
SELECT w3.doc_id, count(*)::BIGINT AS n_tokens,
       sum(length(w3.w))::BIGINT AS n_symbols,
       max(r.n_raw_chars)::BIGINT AS n_raw_chars
FROM w3 JOIN r USING (doc_id)
GROUP BY w3.doc_id
"""


def q_model_score(sf_dir: str):
    """Batched model inference as an ACTOR-POOL stage — the quality-
    classifier scoring pass of a curation pipeline. The class (not a
    function) goes to ``map_batches(QualityModelStage, concurrency=2,
    batch_size=...)``: the checkpoint loads once per actor in
    ``__init__``, every ``__call__`` scores a whole Arrow batch with
    one integer matmul. Map-only, no exchange; at 100 TB this stage
    scales with read bandwidth x actor count, and ``concurrency`` /
    ``num_cpus`` size the pool. The bundled head is deterministic
    integer arithmetic (see ``QualityModelStage._load_weights``), so
    the scores and keep flags sit under the driver hash — the twin
    inlines the same weights."""
    from mapchete_xarray_ray.stages.text import QualityModelStage

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        QualityModelStage, concurrency=2, batch_size=512,
        batch_format="pyarrow")


SQL_MODEL_SCORE = r"""
WITH f AS (
  SELECT doc_id,
         length(text)::BIGINT AS n_chars,
         array_length(regexp_split_to_array(trim(text, ' ' || chr(9) || chr(10) || chr(12) || chr(13)), '\s+'))::BIGINT AS n_tokens,
         len(regexp_extract_all(text, '[.,;:!?]'))::BIGINT AS n_punct,
         len(regexp_extract_all(text, '[0-9]'))::BIGINT AS n_digits
  FROM documents
)
SELECT doc_id,
       (2*n_chars - 11*n_tokens + 7*n_punct - 3*n_digits + 5)::BIGINT
         AS score,
       (CASE WHEN 2*n_chars - 11*n_tokens + 7*n_punct - 3*n_digits + 5 > 0
             THEN 1 ELSE 0 END)::BIGINT AS keep
FROM f
"""


def q_repetition(sf_dir: str):
    """Repetition-based quality metrics — the Gopher-style boilerplate
    filter: per doc, how many times its MOST FREQUENT word 2-gram
    occurs vs the total bigram count, plus the integer keep verdict
    (flag docs whose top bigram covers > 10% of bigrams — navboxes,
    keyword stuffing, template pages). All outputs are integers so the
    DuckDB twin is bit-exact. Scale shape: each row is one whole doc,
    so the whole metric is a map-only pass — gram occurrences
    (``_doc_gram_pairs`` with ``distinct=False``), one pyarrow
    group_by for per-(doc, gram) counts, then per-doc max/sum via one
    sort + ``reduceat`` — no shuffle, no driver state. Docs with fewer
    than 2 tokens have no bigrams and drop out on both sides."""
    def metrics(batch: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "n_bigrams": pa.array([], pa.int64()),
                          "top_bigram_cnt": pa.array([], pa.int64()),
                          "keep": pa.array([], pa.int64())})
        d, grams = _doc_gram_pairs(batch, 2, distinct=False)
        if len(d) == 0:
            return empty
        counts = (pa.table({"doc_id": d, "gram": grams})
                  .group_by(["doc_id", "gram"])
                  .aggregate([([], "count_all")]))
        dids = counts.column("doc_id").to_numpy(zero_copy_only=False)
        cnt = counts.column("count_all").to_numpy(
            zero_copy_only=False).astype(np.int64)
        uniq_d, top, tot = group_reduce(dids, (np.maximum, cnt),
                                        (np.add, cnt))
        return pa.table({
            "doc_id": pa.array(uniq_d, pa.int64()),
            "n_bigrams": pa.array(tot, pa.int64()),
            "top_bigram_cnt": pa.array(top, pa.int64()),
            "keep": pa.array((top * 10 <= tot).astype(np.int64)),
        })

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        metrics, batch_format="pyarrow")


SQL_REPETITION = r"""
WITH w AS (
  SELECT doc_id,
         regexp_split_to_array(trim(text, ' ' || chr(9) || chr(10) || chr(12) || chr(13)), '\s+') AS ws
  FROM documents
  WHERE trim(text, ' ' || chr(9) || chr(10) || chr(12) || chr(13)) <> ''
), g AS (
  SELECT doc_id, array_to_string(ws[i:i+1], ' ') AS gram
  FROM w, LATERAL (SELECT unnest(generate_series(1, len(ws)-1)) AS i) t
), c AS (
  SELECT doc_id, gram, count(*)::BIGINT AS cnt FROM g GROUP BY doc_id, gram
)
SELECT doc_id, sum(cnt)::BIGINT AS n_bigrams,
       max(cnt)::BIGINT AS top_bigram_cnt,
       (CASE WHEN max(cnt) * 10 <= sum(cnt) THEN 1 ELSE 0 END)::BIGINT
         AS keep
FROM c GROUP BY doc_id
"""


def q_top_terms_df(sf_dir: str):
    """Document frequency of whitespace terms, global top-20 (df desc,
    term asc) — the tf-idf building block and a genuine
    vocabulary-wide shuffle: per-batch (doc, term) dedup + partial df
    counts (all Arrow kernels, no python token loop), term-hash bucket
    groupby summing partials, per-bucket top-20, tiny driver merge of
    64 x 20 candidates. Exact DuckDB twin via
    unnest(regexp_split_to_array(...)) — both sides tokenize with the
    same RE2 pattern."""
    import pyarrow.compute as pc

    from mapchete_xarray_ray.functions.geocode import stable_hash64

    K = 20

    EMPTY = pa.table({"term": pa.array([], pa.string()),
                      "df": pa.array([], pa.int64()),
                      "tb": pa.array([], pa.int64())})

    def partial_df(batch: pa.Table) -> pa.Table:
        from mapchete_xarray_ray.stages.text import trim_ws

        trimmed = trim_ws(batch.column("text"))
        keep = pc.not_equal(trimmed, "")
        doc = batch.column("doc_id").filter(keep)
        if len(doc) == 0:
            return EMPTY
        toks = pc.split_pattern_regex(trimmed.filter(keep), r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        offs = toks.offsets.to_numpy(zero_copy_only=False)
        docs_rep = doc.take(pa.array(np.repeat(
            np.arange(len(toks)), np.diff(offs))))
        pairs = (pa.table({"doc_id": docs_rep, "term": flat})
                 .group_by(["doc_id", "term"]).aggregate([]))
        g = (pa.table({"term": pairs.column("term"),
                       "df": pa.array(np.ones(pairs.num_rows,
                                              dtype=np.int64))})
             .group_by("term").aggregate([("df", "sum")])
             .rename_columns(["term", "df"]))
        h = stable_hash64(g.column("term").to_numpy(zero_copy_only=False)
                          .astype(object)) % 64
        return g.append_column("tb", pa.array(h.astype(np.int64)))

    def bucket_topk(group: pa.Table) -> pa.Table:
        g = (group.group_by("term").aggregate([("df", "sum")])
             .rename_columns(["term", "df"]))
        df = g.column("df").to_numpy(zero_copy_only=False)
        terms = g.column("term").to_numpy(zero_copy_only=False)
        order = np.lexsort((terms, -df))[:K]
        return pa.table({"term": pa.array(terms[order], pa.string()),
                         "df": pa.array(df[order], pa.int64())})

    cands = collect_table(
        _regroup(_docs(sf_dir, ["doc_id", "text"])
                 .map_batches(partial_df, batch_format="pyarrow"), 0.125)
        .groupby("tb")
        .map_groups(bucket_topk, batch_format="pyarrow"))
    if cands.num_rows == 0:
        return pa.table({"term": pa.array([], pa.string()),
                         "df": pa.array([], pa.int64())})
    # same selection as per-bucket: the re-sum is a no-op on disjoint
    # bucket outputs, and one shared code path keeps the tie-break rule
    # in lockstep
    return bucket_topk(cands)


SQL_TOP_TERMS_DF = r"""
WITH t AS (
  SELECT DISTINCT doc_id,
         unnest(regexp_split_to_array(trim(text, ' ' || chr(9) || chr(10) || chr(12) || chr(13)), '\s+')) AS term
  FROM documents WHERE trim(text, ' ' || chr(9) || chr(10) || chr(12) || chr(13)) <> ''
)
SELECT term, count(*)::BIGINT AS df
FROM t GROUP BY term
ORDER BY df DESC, term
LIMIT 20
"""


SQL_TFIDF_TOPK = r"""
WITH tok AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(trim(text, ' ' || chr(9) || chr(10) || chr(12) || chr(13)), '\s+')) AS term
  FROM documents
  WHERE trim(text, ' ' || chr(9) || chr(10) || chr(12) || chr(13)) <> ''
),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM tok GROUP BY doc_id, term),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
n AS (SELECT count(DISTINCT doc_id)::DOUBLE AS n FROM tok)
SELECT doc_id, term, tfidf FROM (
  SELECT tf.doc_id, tf.term, tf.tf * ln(n.n / df.df) AS tfidf,
         row_number() OVER (PARTITION BY tf.doc_id
                            ORDER BY tf.tf * ln(n.n / df.df) DESC, tf.term) AS rn
  FROM tf JOIN df USING (term) CROSS JOIN n
) WHERE rn <= 3
"""


def _per_doc_topk(ids: np.ndarray, score: np.ndarray, terms: np.ndarray,
                  k: int) -> np.ndarray:
    """Indices of each doc's top-``k`` rows by (score desc, term asc)
    — the ONE selection rule both tf-idf stages share, so the local
    per-bucket trim and the global pick can never disagree on ties."""
    order = np.lexsort((terms, -score, ids))
    d_s = ids[order]
    new = np.ones(len(d_s), dtype=bool)
    new[1:] = d_s[1:] != d_s[:-1]
    starts = np.flatnonzero(new)
    seg = np.diff(np.append(starts, len(d_s)))
    rank = np.arange(len(d_s)) - np.repeat(starts, seg)
    return order[rank < k]


def q_tfidf_topk(sf_dir: str):
    """Per-document top-3 terms by tf-idf — keyword extraction over the
    corpus in ONE pass and two bucketed shuffles (the canonical
    distributed tf-idf shape).

    Stage 1 (map): tokenize (same trim + RE2 ``\\s+`` as
    ``top_terms_df``), per-batch COMPLETE (doc_id, term, tf) rows (a
    doc's text is one row, so its tf never spans batches), term-hash
    bucketed; each batch also replicates one sentinel row (doc_id=-1,
    tf=its doc count) into EVERY term bucket, so the global N reaches
    each bucket with the data — no second corpus scan and no
    driver-side count. Stage 2 (term buckets): df per term is a
    segment count over the doc-distinct tf rows; score = tf * ln(N/df)
    with ln taken by ``math.log`` over the DISTINCT df values — libm
    matches DuckDB's ``ln`` bitwise where numpy's SIMD log differs by
    1 ulp, which keeps the twin hash-exact. Stage 3 (doc buckets):
    per-doc top-3 by (tfidf desc, term asc). Shuffled bytes are
    O(postings); the driver holds only the final top-3-per-doc rows."""
    import math

    import pyarrow.compute as pc

    from mapchete_xarray_ray.functions.geocode import stable_hash64
    from mapchete_xarray_ray.stages.text import trim_ws

    K, NB = 3, 64
    EMPTY_TF = {"doc_id": pa.int64(), "term": pa.string(),
                "tf": pa.int64(), "tb": pa.int64()}
    EMPTY_SC = {"doc_id": pa.int64(), "term": pa.string(),
                "tfidf": pa.float64(), "db": pa.int64()}

    def tf_stage(batch: pa.Table) -> pa.Table:
        empty = pa.table({n: pa.array([], t) for n, t in EMPTY_TF.items()})
        trimmed = trim_ws(batch.column("text"))
        keep = pc.not_equal(trimmed, "")
        doc = batch.column("doc_id").filter(keep)
        if len(doc) == 0:
            return empty
        toks = pc.split_pattern_regex(trimmed.filter(keep), r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        offs = toks.offsets.to_numpy(zero_copy_only=False)
        docs_rep = doc.take(pa.array(np.repeat(
            np.arange(len(toks)), np.diff(offs))))
        agg = (pa.table({"doc_id": docs_rep, "term": flat,
                         "tf": pa.array(np.ones(len(flat), dtype=np.int64))})
               .group_by(["doc_id", "term"]).aggregate([("tf", "sum")]))
        # by-name selection: aggregate column order is pyarrow-version-
        # dependent (keys first vs last)
        tf = pa.table({"doc_id": agg.column("doc_id"),
                       "term": agg.column("term"),
                       "tf": agg.column("tf_sum")})
        h = stable_hash64(tf.column("term").to_numpy(zero_copy_only=False)
                          .astype(object)) % NB
        out = tf.append_column("tb", pa.array(h.astype(np.int64)))
        sent = pa.table({
            "doc_id": pa.array(np.full(NB, -1, dtype=np.int64)),
            "term": pa.array([""] * NB, pa.string()),
            "tf": pa.array(np.full(NB, len(doc), dtype=np.int64)),
            "tb": pa.array(np.arange(NB, dtype=np.int64)),
        })
        return pa.concat_tables([out, sent])

    def score_stage(group: pa.Table) -> pa.Table:
        d = group.column("doc_id").to_numpy(zero_copy_only=False)
        sent = d < 0
        n_docs = float(group.column("tf").to_numpy(
            zero_copy_only=False)[sent].sum())
        g = group.filter(pa.array(~sent))
        if g.num_rows == 0:
            return pa.table({n: pa.array([], t)
                             for n, t in EMPTY_SC.items()})
        terms = g.column("term").to_numpy(zero_copy_only=False)
        tf = g.column("tf").to_numpy(zero_copy_only=False)
        order, starts, ends = segments(terms)
        seg = ends - starts
        df = np.empty(len(terms), dtype=np.int64)
        df[order] = np.repeat(seg, seg)
        uniq = np.unique(df)
        lnmap = np.array([math.log(n_docs / int(v)) for v in uniq])
        score = tf.astype(np.float64) * lnmap[np.searchsorted(uniq, df)]
        ids = g.column("doc_id").to_numpy(zero_copy_only=False)
        terms2 = g.column("term").to_numpy(zero_copy_only=False)
        # LOCAL per-doc top-K before the doc shuffle: a doc's global
        # top-K is a subset of the union of its per-bucket top-Ks, so
        # the second exchange carries <= K rows per (doc, bucket)
        # instead of every scored posting — at web scale (docs with
        # thousands of distinct terms) this is the difference between
        # shuffling postings twice and shuffling them once
        keep = _per_doc_topk(ids, score, terms2, K)
        return pa.table({
            "doc_id": pa.array(ids[keep], pa.int64()),
            "term": pa.array(terms2[keep], pa.string()),
            "tfidf": pa.array(score[keep], pa.float64()),
            "db": pa.array((ids[keep] % NB).astype(np.int64)),
        })

    def topk_stage(group: pa.Table) -> pa.Table:
        d = group.column("doc_id").to_numpy(zero_copy_only=False)
        terms = group.column("term").to_numpy(zero_copy_only=False)
        score = group.column("tfidf").to_numpy(zero_copy_only=False)
        keep = _per_doc_topk(d, score, terms, K)
        return pa.table({
            "doc_id": pa.array(d[keep], pa.int64()),
            "term": pa.array(terms[keep], pa.string()),
            "tfidf": pa.array(score[keep], pa.float64()),
        })

    scored = (_regroup(_docs(sf_dir, ["doc_id", "text"])
                       .map_batches(tf_stage, batch_format="pyarrow"), 0.5)
              .groupby("tb")
              .map_groups(score_stage, batch_format="pyarrow"))
    out = (_regroup(scored, 0.5)
           .groupby("db")
           .map_groups(topk_stage, batch_format="pyarrow"))
    return _schema_finalize(out, {"doc_id": pa.int64(),
                                  "term": pa.string(),
                                  "tfidf": pa.float64()})


def q_export_roundtrip(sf_dir: str):
    """Resumable partitioned-parquet sink (S10) under the driver's
    EXACT hash: the curation chain with ``keep_text`` -> hive-
    partitioned write by lang_pred (sinks/parquet.py) -> read-back of
    the completed partitions -> projection. Any breakage in the sink's
    bucketing, atomic write, marker protocol or read-back (including
    text byte fidelity through the parquet roundtrip) flips the hash.
    The SQL twin is the curation twin extended by the text column."""
    import hashlib
    import os

    from mapchete_xarray_ray.sinks.parquet import (
        read_partitioned,
        write_partitioned,
    )

    out_dir = os.path.join(
        "/tmp", "mxr_export_roundtrip_"
        + hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:12])
    write_partitioned(
        curation_pipeline(_docs(sf_dir, ["doc_id", "text"]), keep_text=True),
        out_dir, "lang_pred", mode="overwrite")
    out = read_partitioned(out_dir)
    return _schema_finalize(out, {"doc_id": pa.int64(),
                                  "lang_pred": pa.string(),
                                  "n_tokens": pa.int64(),
                                  "text": pa.string()})


def q_top_users_per_type(sf_dir: str):
    """Per-GROUP top-k (the windowed rank shape, vs q_top_users' global
    top-k): top-3 users by event count within each event_type, ties by
    user_id ascending. Partials pre-combine per batch; the per-type
    rank is segment arithmetic inside one small map_groups."""
    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["event_type", "user_id"]).aggregate(
            [("user_id", "count")])
        return g.rename_columns(["event_type", "user_id", "n"])

    def _rank_topk(et, uid, n, k=3):
        order = np.lexsort((uid, -n, et))
        et, uid, n = et[order], uid[order], n[order]
        new = np.ones(len(et), dtype=bool)
        new[1:] = et[1:] != et[:-1]
        starts = np.flatnonzero(new)
        rank = np.arange(len(et)) - np.repeat(starts, np.diff(
            np.append(starts, len(et)))) + 1
        keep = rank <= k
        return et[keep], uid[keep], n[keep], rank[keep]

    def bucket_topk(group: pa.Table) -> pa.Table:
        # a user lives in ONE bucket, so per-(type,user) totals are
        # complete here; the global top-3 per type is among the
        # per-bucket top-3 candidates (<= 3 x types rows per bucket)
        t = group.group_by(["event_type", "user_id"]).aggregate([("n", "sum")])
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        n = t.column("n_sum").to_numpy(zero_copy_only=False)
        et, uid, n, _r = _rank_topk(et, uid, n)
        return pa.table({"event_type": pa.array(et, pa.string()),
                         "user_id": pa.array(uid, pa.int64()),
                         "n": pa.array(n.astype(np.int64))})

    def final_topk(batch: pa.Table) -> pa.Table:
        et, uid, n, rank = _rank_topk(
            batch.column("event_type").to_numpy(zero_copy_only=False),
            batch.column("user_id").to_numpy(zero_copy_only=False),
            batch.column("n").to_numpy(zero_copy_only=False))
        return pa.table({"event_type": pa.array(et, pa.string()),
                         "user_id": pa.array(uid, pa.int64()),
                         "n_events": pa.array(n.astype(np.int64)),
                         "rank": pa.array(rank, pa.int64())})

    # one shuffle over batch partials; candidates (<= buckets x types
    # x 3 rows) merge in a single final task
    return (_regroup(_read(f"{sf_dir}/events.parquet",
                           columns=["event_type", "user_id"])
                     .map_batches(partial, batch_format="pyarrow")
                     .map_batches(_mod_bucket("user_id", "ub"),
                                  batch_format="pyarrow"), 0.25)
            .groupby("ub")
            .map_groups(bucket_topk, batch_format="pyarrow")
            .repartition(1)
            .map_batches(final_topk, batch_format="pyarrow"))


SQL_TOP_USERS_PER_TYPE = """
SELECT event_type, user_id, n_events, rank FROM (
  SELECT event_type, user_id, count(*)::BIGINT AS n_events,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY count(*) DESC, user_id)::BIGINT AS rank
  FROM events GROUP BY event_type, user_id
) WHERE rank <= 3
"""


def q_distinct_users(sf_dir: str):
    """Exact per-type distinct-user count (§2.6 set op): per-batch
    local distinct first (np-free arrow group_by), then the global
    dedup shuffle moves only the surviving (type, user) pairs, and the
    count is a segment reduction — never a row-level global sort."""
    def local_distinct(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["event_type", "user_id"]).aggregate([])
        return g

    def bucket_partial_count(group: pa.Table) -> pa.Table:
        # a user lives in exactly one bucket, so per-bucket distinct
        # (type, user) pairs are globally distinct; emit per-type
        # partial counts — the final exchange moves O(types x buckets)
        et = group.column("event_type").to_numpy(zero_copy_only=False)
        uid = group.column("user_id").to_numpy(zero_copy_only=False)
        o = np.lexsort((uid, et))
        et, uid = et[o], uid[o]
        uniq = np.ones(len(et), dtype=bool)
        uniq[1:] = (et[1:] != et[:-1]) | (uid[1:] != uid[:-1])
        et_u = et[uniq]
        new = np.ones(len(et_u), dtype=bool)
        new[1:] = et_u[1:] != et_u[:-1]
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, len(et_u)))
        return pa.table({
            "event_type": pa.array(et_u[starts], pa.string()),
            "n_users": pa.array(counts, pa.int64()),
        })

    ds = (_regroup(_read(f"{sf_dir}/events.parquet",
                         columns=["event_type", "user_id"])
                   .map_batches(local_distinct, batch_format="pyarrow")
                   .map_batches(_mod_bucket("user_id", "ub"),
                                batch_format="pyarrow"), 0.25)
          .groupby("ub")
          .map_groups(bucket_partial_count, batch_format="pyarrow")
          .groupby("event_type")
          .sum("n_users"))
    return _schema_finalize(
        ds.rename_columns({"sum(n_users)": "n_users"}),
        {"event_type": pa.string(), "n_users": pa.int64()})


SQL_DISTINCT_USERS = """
SELECT event_type, count(DISTINCT user_id)::BIGINT AS n_users
FROM events GROUP BY event_type
"""


# --- registry ------------------------------------------------------------

REGISTRY: dict[str, tuple] = {
    # Ordering is deliberate: the driver's correctness gate samples the
    # FIRST 50 entries. Round-5 rotation (per VERDICT r4 ask #1): the
    # 41 queries whose last driver witness predates the round-4
    # infrastructure changes (collect.py single-execution path,
    # zarr-sink write metrics, _regroup widths) fill slots 1-41; slots
    # 42-50 are the nine r4-green queries whose code round 5 touches
    # (ann.py parity fixes, minhash docstring/valve, diff.py refresh,
    # zarr-sink verify). The remaining 41 r4-witnessed queries sit at
    # the back with green CORRECTNESS_r04 rows under unchanged code.
    "pip_join": (q_pip_join, SQL_PIP_JOIN),
    "knn": (q_knn, SQL_KNN),
    "dedup_exact": (q_dedup_exact, SQL_DEDUP_EXACT),
    "ngram_jaccard": (q_ngram_jaccard, SQL_NGRAM_JACCARD),
    "simhash_neardup": (q_simhash_neardup, SQL_SIMHASH_NEARDUP),
    "emb_dedup_clusters": (q_emb_dedup_clusters, SQL_EMB_DEDUP_CLUSTERS),
    "events_sessions": (q_events_sessions, SQL_EVENTS_SESSIONS),
    "orders_lineitem_join": (q_orders_lineitem_join, SQL_ORDERS_LINEITEM_JOIN),
    "corpus_curation": (q_corpus_curation, _curation_sql()),
    "lineitem_agg": (q_lineitem_agg, SQL_LINEITEM_AGG),
    "tile_density": (q_tile_density, SQL_TILE_DENSITY),
    "cell_parent_rollup": (q_cell_parent_rollup, SQL_CELL_PARENT_ROLLUP),
    "rasterize_roundtrip": (q_rasterize_roundtrip, SQL_RASTERIZE_ROUNDTRIP),
    "text_quality": (q_text_quality, SQL_TEXT_QUALITY),
    "lang_id": (q_lang_id, _langid_sql()),
    "fingerprint": (q_fingerprint, SQL_FINGERPRINT),
    "simhash": (q_simhash, SQL_SIMHASH),
    "dedup_canonical": (q_dedup_canonical, SQL_DEDUP_CANONICAL),
    "ann_cosine": (q_ann_cosine, SQL_ANN_COSINE),
    "events_tumbling": (q_events_tumbling, SQL_EVENTS_TUMBLING),
    "emb_neardup": (q_emb_neardup, SQL_EMB_NEARDUP),
    "distinct_users_sketch": (q_distinct_users_sketch,
                              SQL_DISTINCT_USERS_SKETCH),
    "heavy_hitters_cms": (q_heavy_hitters_cms, SQL_HEAVY_HITTERS_CMS),
    "sample": (q_sample, SQL_SAMPLE),
    "weighted_sample": (q_weighted_sample, SQL_WEIGHTED_SAMPLE),
    "stratified_sample": (q_stratified_sample, SQL_STRATIFIED_SAMPLE),
    "image_features": (q_image_features, SQL_IMAGE_FEATURES),
    "audio_features": (q_audio_features, SQL_AUDIO_FEATURES),
    "orders_by_nation": (q_orders_by_nation, SQL_ORDERS_BY_NATION),
    "top_users": (q_top_users, SQL_TOP_USERS),
    "events_sliding": (q_events_sliding, SQL_EVENTS_SLIDING),
    "running_totals": (q_running_totals, SQL_RUNNING_TOTALS),
    "events_asof": (q_events_asof, SQL_EVENTS_ASOF),
    "store_roundtrip_prepart": (q_store_roundtrip_prepart,
                                SQL_RASTERIZE_ROUNDTRIP),
    "orders_lineitem_join_native": (q_orders_lineitem_join_native,
                                    SQL_ORDERS_LINEITEM_JOIN),
    "urgent_revenue_bloom": (q_urgent_revenue_bloom,
                             SQL_URGENT_REVENUE_BLOOM),
    "events_range_join": (q_events_range_join, SQL_EVENTS_RANGE_JOIN),
    "lineitem_median": (q_lineitem_median, SQL_LINEITEM_MEDIAN),
    "lineitem_p95": (q_lineitem_p95, SQL_LINEITEM_P95),
    "frame_sample": (q_frame_sample, SQL_FRAME_SAMPLE),
    "store_roundtrip_time": (q_store_roundtrip_time, SQL_STORE_ROUNDTRIP_TIME),
    # --- slots 42-50: r4-green, code touched in round 5 -------------
    "ann_ivf": (q_ann_ivf, _ann_ivf_sql()),
    "ann_lsh": (q_ann_lsh, _ann_lsh_sql()),
    "ann_pq": (q_ann_pq, _ann_pq_sql()),
    "minhash_neardup": (q_minhash_neardup, SQL_MINHASH_NEARDUP),
    "dedup_clusters": (q_dedup_clusters, SQL_DEDUP_CLUSTERS),
    "archive_diff": (q_archive_diff, SQL_ARCHIVE_DIFF),
    "store_roundtrip": (q_store_roundtrip, SQL_RASTERIZE_ROUNDTRIP),
    "export_roundtrip": (q_export_roundtrip, _curation_sql(with_text=True)),
    "pyramid_chain": (q_pyramid_chain, SQL_PYRAMID_CHAIN),
    # --- back 41: r4-witnessed green, code unchanged this round -----
    "dup_chunks": (q_dup_chunks, SQL_DUP_CHUNKS),
    "props_rollup": (q_props_rollup, SQL_PROPS_ROLLUP),
    "lang_len_quantiles": (q_lang_len_quantiles, SQL_LANG_LEN_QUANTILES),
    "kmeans": (q_kmeans, SQL_KMEANS),
    "focal_density": (q_focal_density, SQL_FOCAL_DENSITY),
    "zonal_stats": (q_zonal_stats, SQL_ZONAL_STATS),
    "grouping_cube": (q_grouping_cube, SQL_GROUPING_CUBE),
    "focal_pixels": (q_focal_pixels, SQL_FOCAL_PIXELS),
    "token_stats": (q_token_stats, SQL_TOKEN_STATS),
    "top_terms_df": (q_top_terms_df, SQL_TOP_TERMS_DF),
    "inverted_index": (q_inverted_index, SQL_INVERTED_INDEX),
    "decontaminate": (q_decontaminate, SQL_DECONTAMINATE),
    "seq_pack": (q_seq_pack, SQL_SEQ_PACK),
    "lang_rebalance": (q_lang_rebalance, SQL_LANG_REBALANCE),
    "repetition": (q_repetition, SQL_REPETITION),
    "model_score": (q_model_score, SQL_MODEL_SCORE),
    "bpe_merges": (q_bpe_merges, SQL_BPE_MERGES),
    "bpe_encode": (q_bpe_encode, SQL_BPE_ENCODE),
    "centroid_classify": (q_centroid_classify, SQL_CENTROID_CLASSIFY),
    "price_quantile_sketch": (q_price_quantile_sketch,
                              SQL_PRICE_QUANTILE_SKETCH),
    "tfidf_topk": (q_tfidf_topk, SQL_TFIDF_TOPK),
    "top_users_per_type": (q_top_users_per_type, SQL_TOP_USERS_PER_TYPE),
    "distinct_users": (q_distinct_users, SQL_DISTINCT_USERS),
    "pip_antijoin": (q_pip_antijoin, SQL_PIP_ANTIJOIN),
    "customers_with_orders": (q_customers_with_orders,
                              SQL_CUSTOMERS_WITH_ORDERS),
    "customer_order_profile": (q_customer_order_profile,
                               SQL_CUSTOMER_ORDER_PROFILE),
    "events_dedup_horizon": (q_events_dedup_horizon,
                             SQL_EVENTS_DEDUP_HORIZON),
    "lineitem_rollup": (q_lineitem_rollup, SQL_LINEITEM_ROLLUP),
    "events_late": (q_events_late, SQL_EVENTS_LATE),
    "best_per_source": (q_best_per_source, SQL_BEST_PER_SOURCE),
    "customer_revenue": (q_customer_revenue, SQL_CUSTOMER_REVENUE),
    "lang_centroid": (q_lang_centroid, SQL_LANG_CENTROID),
    "pii_scrub": (q_pii_scrub, _pii_sql()),
    "events_rank": (q_events_rank, SQL_EVENTS_RANK),
    "events_sorted_head": (q_events_sorted_head, SQL_EVENTS_SORTED_HEAD),
    "funnel": (q_funnel, SQL_FUNNEL),
    "retention": (q_retention, SQL_RETENTION),
    "pagerank": (q_pagerank, SQL_PAGERANK),
    "emb_neardup_lsh": (q_emb_neardup_lsh, _emb_lsh_sql()),
    "pyramid_roundtrip": (q_pyramid_roundtrip, SQL_PYRAMID_ROUNDTRIP),
    "tile_assign": (q_tile_assign, SQL_TILE_ASSIGN),
}

# Interop demonstrations: correctness-gated like every other query,
# but benched OUTSIDE the headline total. orders_lineitem_join_native
# re-expresses the co-group join through Ray 2.49's native
# Dataset.join, whose hash-shuffle aggregator pool spins up per query
# (~11 s fixed, num_partitions-independent, amortizes only on a
# long-lived cluster) — timing it in the headline sweep would charge
# the engine for an operator warm-up the co-group reference plan
# (orders_lineitem_join) doesn't pay. bench.py reports these under
# "interop" next to their reference-plan twin.
INTEROP_QUERIES: dict[str, str] = {
    "orders_lineitem_join_native": "orders_lineitem_join",
}


def _wrap(fn):
    import functools

    @functools.wraps(fn)
    def wrapped(sf_dir: str):
        return collect_table(fn(sf_dir))

    return wrapped


REGISTRY = {name: (_wrap(fn), sql) for name, (fn, sql) in REGISTRY.items()}
