"""Similarity search over an embedding column (training-data ops).

- :func:`ann_brute_pipeline` — exact cosine top-k: the query matrix is
  broadcast ONCE via ``ray.put`` (L2-normalized float64), every batch
  does one numpy matmul against it. This is the correctness baseline
  and is itself the right scale shape when the query side is small
  (queries x corpus streamed per batch).
- :func:`ann_lsh_pipeline` and :func:`emb_neardup_lsh_pipeline` — the
  hashing scale path: integer random-hyperplane sign signatures bucket
  the corpus (``groupby(bucket)``), so each group does a small local
  matmul. Approximate; tests measure recall vs brute force and
  determinism (fixed planes).
- :func:`ann_ivf_int_pipeline` and :func:`ann_pq_int_pipeline` — the
  inverted-list and compressed-scan scale paths, with every
  data-dependent decision in integer arithmetic so a DuckDB twin
  reproduces them bit-for-bit.

All distances are computed on float64 with a fixed expression order so
reruns and the sequential oracle agree bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from mapchete_xarray_ray.collect import collect_table
from mapchete_xarray_ray.nputil import topk_per_id
from mapchete_xarray_ray.scale import nblocks_for_cluster

_HP_SEED = 0x5EED
N_PLANES = 12  # 4096 buckets


# ann_ivf_int_pipeline's final stage (_bucket_merge_topk) schema, shared
# by its empty-corpus early return so both paths stay column-identical
_IVF_EMPTY = {
    "vec_id": pa.int64(), "neighbor_id": pa.int64(),
    "rank": pa.int64(), "cosine": pa.float64()}


def _empty_ds(schema: dict) -> "ray.data.Dataset":
    return ray.data.from_arrow(pa.table(
        {n: pa.array([], t) for n, t in schema.items()}))


def _embedding_matrix(batch: pa.Table, col: str) -> np.ndarray:
    """Zero-copy-ish list<float> -> (n, dim) float64 decode: flatten the
    Arrow list values buffer and reshape (no per-row python objects).
    Assumes equal-length lists (embedding columns are fixed-dim)."""
    lists = batch.column(col)
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    n = len(lists)
    if n == 0:
        return np.empty((0, 0), dtype=np.float64)
    values = (lists.values if pa.types.is_fixed_size_list(lists.type)
              else lists.flatten())
    return values.to_numpy(zero_copy_only=False).astype(np.float64).reshape(n, -1)


def rowwise_topk(key: np.ndarray, q_ids: np.ndarray, c_ids: np.ndarray,
                 k: int):
    """Exact per-row top-k of a (Q, C) key matrix by (key asc,
    candidate_id asc), excluding candidates whose id equals the row's
    query id. Returns (q_sel, c_sel, rank): row indices (repeated per
    kept candidate, in rank order), column indices, and 1-based ranks.

    Select, then sort only the survivors — no python loop per query,
    no full sort of each row: ``np.partition`` finds each row's k-th
    smallest key, every entry not greater than it survives (ties with
    the k-th included, and NaN keys, for which ``>`` is False), and one
    flat lexsort by (row, key, candidate_id) orders the survivors. Excluded candidates sort as +inf and NaN after them,
    exactly as in a full per-row lexsort, so the result is that sort's
    first ``min(k, C - n_excluded)`` entries of each row."""
    Q, C = key.shape
    z = np.empty(0, dtype=np.int64)
    if Q == 0 or C == 0:
        return z, z, z
    invalid = q_ids[:, None] == c_ids[None, :]
    s = np.where(invalid, np.inf, key)  # invalid sorts last
    t = np.minimum(k, C - invalid.sum(axis=1))
    j = min(k, C) - 1  # k >= C: the row maximum, so every entry survives
    kth = np.partition(s, j, axis=1)[:, j]
    flat = np.flatnonzero(~(s > kth[:, None]))  # not `<=`: keeps NaN
    r, c = np.divmod(flat, C)
    order = np.lexsort((c_ids[c], s.ravel()[flat], r))
    r, c = r[order], c[order]
    rank = np.arange(1, len(r) + 1) - np.searchsorted(r, r)  # r is sorted
    kept = rank <= t[r]
    return r[kept], c[kept], rank[kept]


def normalize_rows(m: np.ndarray) -> np.ndarray:
    n = np.sqrt((m * m).sum(axis=1, keepdims=True))
    n[n == 0] = 1.0
    return m / n


def brute_topk_stage(query_ref, k: int, id_col: str = "vec_id",
                     emb_col: str = "embedding"):
    """map_batches fn factory: each corpus batch scores against the
    broadcast query matrix; emits per-(query, candidate) partial top-k
    rows which a later per-query merge reduces to global top-k.

    ``query_ref``: ``ray.put((query_ids, normalized_query_matrix))``.
    """

    def fn(batch: pa.Table) -> pa.Table:
        q_ids, q_mat = ray.get(query_ref)
        c_ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        c_mat = normalize_rows(_embedding_matrix(batch, emb_col))
        sims = q_mat @ c_mat.T  # (Q, C)
        q_sel, c_sel, _rank = rowwise_topk(-sims, q_ids, c_ids, k)
        return pa.table({
            "vec_id": pa.array(q_ids[q_sel], pa.int64()),
            "neighbor_id": pa.array(c_ids[c_sel], pa.int64()),
            "cosine": pa.array(sims[q_sel, c_sel], pa.float64()),
        })

    return fn


def _add_id_bucket(batch: pa.Table) -> pa.Table:
    """Coarse merge key: one python group-call per BUCKET (id % 64),
    not per query — the repo's measured ~30ms/group dispatch rule."""
    b = batch.column("vec_id").to_numpy() % 64
    return batch.append_column("id_bucket", pa.array(b.astype(np.int64)))


def ann_brute_pipeline(corpus: ray.data.Dataset, query_ids: np.ndarray,
                       query_mat: np.ndarray, k: int) -> ray.data.Dataset:
    """Exact cosine top-k of each query against the corpus Dataset."""
    ref = ray.put((query_ids, normalize_rows(query_mat.astype(np.float64))))
    partial = corpus.map_batches(brute_topk_stage(ref, k), batch_format="pyarrow")
    return (partial.map_batches(_add_id_bucket, batch_format="pyarrow")
            .repartition(nblocks_for_cluster())
            .groupby("id_bucket")
            .map_groups(_bucket_merge_topk(k), batch_format="pyarrow"))


# --- LSH-bucketed variant (scale path) -----------------------------------

QUANT = 1_000_000.0  # embedding/plane quantization scale (1e-6 resolution)


def quantize_q(m: np.ndarray) -> np.ndarray:
    """float matrix -> int64 via ``floor(x * 1e6)``. One correctly
    rounded multiply + an exact floor, so DuckDB's
    ``floor(x * 1000000.0)::BIGINT`` reproduces it bit-for-bit — the
    primitive that makes every LSH/IVF/PQ bucket assignment
    SQL-twinnable (sign/argmax over INTEGER dots has no
    summation-order ambiguity, unlike float dots)."""
    return np.floor(m * QUANT).astype(np.int64)


def hyperplanes_q(dim: int, n_planes: int = N_PLANES,
                  seed: int = _HP_SEED) -> np.ndarray:
    """Integer-quantized random planes (``floor(randn * 1e6)``): the
    plane constants double as SQL literals in the DuckDB twins."""
    return quantize_q(
        np.random.default_rng(seed).standard_normal((n_planes, dim)))


def bucket_stage(planes_q: np.ndarray, id_col: str = "vec_id",
                 emb_col: str = "embedding"):
    """map_batches fn: add the sign-pattern bucket id.

    ``planes_q`` is INTEGER (from :func:`hyperplanes_q`); embeddings
    are quantized per batch, so the sign test is an exact integer
    comparison — bit-identical in the SQL twin. Sign of the dot is
    scale-invariant, so quantizing both sides only perturbs vectors
    within ~1e-6 of a plane (and does so identically on both sides)."""

    def fn(batch: pa.Table) -> pa.Table:
        mq = quantize_q(_embedding_matrix(batch, emb_col))
        signs = (mq @ planes_q.T) > 0  # (n, planes), exact int64
        bucket = (signs.astype(np.int64)
                  << np.arange(planes_q.shape[0], dtype=np.int64)[None, :]).sum(axis=1)
        return batch.append_column("bucket", pa.array(bucket))

    return fn


def bucket_local_topk(k: int, emb_col: str = "embedding"):
    """map_groups fn: exact cosine top-k WITHIN one bucket."""

    def fn(group: pa.Table) -> pa.Table:
        ids = group.column("vec_id").to_numpy(zero_copy_only=False)
        m = normalize_rows(_embedding_matrix(group, emb_col))
        sims = m @ m.T
        q_sel, c_sel, rank = rowwise_topk(-sims, ids, ids, k)
        return pa.table({
            "vec_id": pa.array(ids[q_sel], pa.int64()),
            "neighbor_id": pa.array(ids[c_sel], pa.int64()),
            "rank": pa.array(rank, pa.int64()),
            "cosine": pa.array(sims[q_sel, c_sel], pa.float64()),
        })

    return fn


# --- Per-list top-k (IVF) and the per-id merge (brute force, IVF) --------

def _ivf_cluster_topk(k: int, emb_col: str = "embedding"):
    """Per-cluster: top-k of the query copies vs the cluster's corpus
    members (exact cosine within the inverted list)."""

    def fn(group: pa.Table) -> pa.Table:
        isq = group.column("is_query").to_numpy(zero_copy_only=False)
        ids = group.column("vec_id").to_numpy(zero_copy_only=False)
        m = normalize_rows(_embedding_matrix(group, emb_col))
        cm, cid = m[~isq], ids[~isq]
        qm, qid = m[isq], ids[isq]
        sims = qm @ cm.T  # (Q, C)
        q_sel, c_sel, _rank = rowwise_topk(-sims, qid, cid, k)
        return pa.table({
            "vec_id": pa.array(qid[q_sel], pa.int64()),
            "neighbor_id": pa.array(cid[c_sel], pa.int64()),
            "cosine": pa.array(sims[q_sel, c_sel], pa.float64()),
        })

    return fn


def _bucket_merge_topk(k: int):
    """Vectorized per-id-bucket merge of partial cosine top-k lists,
    ranked by (cosine desc, neighbor_id asc). A candidate sits in
    exactly one inverted list and corpus batches are disjoint, so no
    (vec_id, neighbor_id) pair arrives twice."""

    def fn(group: pa.Table) -> pa.Table:
        ids = group.column("vec_id").to_numpy(zero_copy_only=False)
        nbs = group.column("neighbor_id").to_numpy(zero_copy_only=False)
        cs = group.column("cosine").to_numpy(zero_copy_only=False)
        sel, rank = topk_per_id(ids, nbs, -cs, k)
        return pa.table({
            "vec_id": pa.array(ids[sel], pa.int64()),
            "neighbor_id": pa.array(nbs[sel], pa.int64()),
            "rank": pa.array(rank, pa.int64()),
            "cosine": pa.array(cs[sel], pa.float64()),
        })

    return fn


def emb_neardup_lsh_pipeline(corpus: ray.data.Dataset, dim: int,
                             tau: float, n_planes: int = 4,
                             n_bands: int = 16) -> ray.data.Dataset:
    """Scale path for embedding-cosine near-dup pairs (cos >= tau):
    multi-band random-hyperplane LSH. Each vector lands in one bucket
    PER BAND (independent plane sets, seeds derived from _HP_SEED);
    within a (band, bucket) group the check is EXACT cosine, so every
    emitted pair is a true positive — only recall is approximate
    (pairs sharing no bucket in any band are missed; more bands raise
    recall). Cross-band duplicates are removed by a packed-pair-id
    co-group, never on the driver. This replaces the exact baseline's
    whole-corpus broadcast (q_emb_neardup) at scale.

    Band sizing: a plane splits a cos=tau pair with prob theta/pi, so
    per-band match prob is (1 - theta/pi)^n_planes and recall is
    1-(1-p)^n_bands. For tau=0.35 (theta ~ 69.5 deg, p_plane ~ 0.61)
    the 4x16 default gives ~0.9 expected recall at the threshold;
    higher-cosine pairs (the ones dedup cares about) match with far
    higher probability.
    """
    bands = [hyperplanes_q(dim, n_planes, seed=_HP_SEED + 1 + b)
             for b in range(n_bands)]

    def bucket_all(batch: pa.Table) -> pa.Table:
        mq = quantize_q(_embedding_matrix(batch, "embedding"))
        parts = []
        for b, planes in enumerate(bands):
            signs = (mq @ planes.T) > 0  # exact int64 dot — SQL-twinnable
            bucket = (signs.astype(np.int64)
                      << np.arange(n_planes, dtype=np.int64)[None, :]).sum(axis=1)
            parts.append(pa.table({
                "vec_id": batch.column("vec_id"),
                "embedding": batch.column("embedding"),
                "bb": pa.array((np.int64(b) << 32) | bucket),
            }))
        return pa.concat_tables(parts)

    def bucket_pairs(group: pa.Table) -> pa.Table:
        ids = group.column("vec_id").to_numpy(zero_copy_only=False)
        if len(ids) and (ids.min() < 0 or ids.max() >= 2**31):
            raise ValueError(
                "pair packing requires 0 <= vec_id < 2**31; re-key the "
                "corpus (or switch the dedup key to struct pairs) for "
                "wider id spaces")
        m = normalize_rows(_embedding_matrix(group, "embedding"))
        sims = m @ m.T
        ai, bi = np.nonzero(sims >= tau)
        keep = ids[ai] < ids[bi]
        pid = (ids[ai][keep] << np.int64(31)) | ids[bi][keep]
        return pa.table({"pid": pa.array(np.unique(pid), pa.int64())})

    def uniq(group: pa.Table) -> pa.Table:
        pid = np.unique(group.column("pid").to_numpy(zero_copy_only=False))
        return pa.table({
            "id_a": pa.array(pid >> np.int64(31), pa.int64()),
            "id_b": pa.array(pid & np.int64((1 << 31) - 1), pa.int64()),
        })

    pairs = (corpus.map_batches(bucket_all, batch_format="pyarrow")
             .repartition(nblocks_for_cluster())
             .groupby("bb")
             .map_groups(bucket_pairs, batch_format="pyarrow"))
    return (pairs.map_batches(
                lambda b: b.append_column(
                    "pb", pa.array((b.column("pid").to_numpy() % 64)
                                   .astype(np.int64))),
                batch_format="pyarrow")
            .groupby("pb")
            .map_groups(uniq, batch_format="pyarrow"))


def ann_lsh_pipeline(corpus: ray.data.Dataset, dim: int, k: int,
                     n_planes: int = N_PLANES) -> ray.data.Dataset:
    """Approximate all-pairs top-k: bucket by hyperplane signs, exact
    top-k within each bucket. Recall measured in tests vs brute force.
    Size ``n_planes`` so expected bucket occupancy is tens-to-hundreds
    of vectors (2^n_planes buckets): too fine and recall collapses,
    too coarse and the local matmul dominates."""
    planes_q = hyperplanes_q(dim, n_planes)
    bucketed = corpus.map_batches(bucket_stage(planes_q), batch_format="pyarrow")
    return bucketed.groupby("bucket").map_groups(bucket_local_topk(k),
                                                 batch_format="pyarrow")


# --- Integer-exact IVF / PQ (SQL-twinnable) --------------------------------
#
# The *_int pipelines below are the package's IVF and PQ paths (the
# registry's ann_ivf / ann_pq). They define every
# data-dependent decision — init selection, k-means assignment, centroid
# updates, code assignment, ADC scores — over INTEGER arithmetic whose
# float steps are single correctly-rounded ops (floor(x*1e6),
# floor(s*1e6/sqrt(ssq)), floor(s/n) via double division), so a DuckDB
# twin reproduces the whole pipeline bit-for-bit (verified: the driver's
# hash check on ann_ivf / ann_pq). Embeddings are ~unit-norm, so
# operating on raw quantized vectors (no normalize_rows) changes the
# geometry negligibly while removing every order-dependent float sum.

_INIT_HASH_MUL = 2654435761  # the repo's standard multiplicative mix


def hash_init_vectors(corpus: "ray.data.Dataset", n: int,
                      emb_col: str = "embedding",
                      id_col: str = "vec_id") -> np.ndarray:
    """The ``n`` corpus vectors with smallest
    ``((vec_id * 2654435761) % 2^32, vec_id)`` — a deterministic
    hash-uniform 'sample' whose selection is a bounded distributed
    top-n (each batch emits at most n rows, the driver merges
    n x blocks rows), exactly expressible in SQL as ORDER BY hash,
    vec_id LIMIT n. Valid for the full non-negative int64 id range:
    numpy's int64 product wraps mod 2^64, and since 2^32 divides 2^64
    the floor-mod by 2^32 still yields the true hash; the SQL twin
    computes the product in HUGEINT (``_hash_init_cte``) so it agrees
    without overflow for ids beyond ~3.47e9. Returns the (n', dim)
    QUANTIZED int64 matrix in
    (hash, id) order (n' = min(n, corpus)); cluster/code index k is
    the row position."""

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        if len(ids) and ids.min() < 0:
            raise ValueError("hash init requires non-negative vec ids "
                             "(numpy floor-mod vs SQL trunc-mod diverge)")
        h = (ids * _INIT_HASH_MUL) % (1 << 32)
        order = np.lexsort((ids, h))[:n]
        mq = quantize_q(_embedding_matrix(batch, emb_col))[order]
        return pa.table({
            "h": pa.array(h[order], pa.int64()),
            id_col: pa.array(ids[order], pa.int64()),
            "eq": pa.array(list(mq), pa.list_(pa.int64())),
        })

    merged = collect_table(corpus.map_batches(partial, batch_format="pyarrow"))
    if not merged.num_rows:
        return np.empty((0, 0), dtype=np.int64)
    h = merged.column("h").to_numpy(zero_copy_only=False)
    ids = merged.column(id_col).to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, h))[:n]
    eq = merged.column("eq")
    if isinstance(eq, pa.ChunkedArray):
        eq = eq.combine_chunks()
    dim = len(eq[0]) if len(eq) else 0
    mat = eq.flatten().to_numpy(zero_copy_only=False).reshape(-1, dim)
    return mat[order].astype(np.int64)


def normq_int(v: np.ndarray) -> np.ndarray:
    """Integer vector -> unit-direction re-quantized at 1e6:
    ``floor(v * 1e6 / sqrt(sum(v^2)))``. The sum of squares is an
    EXACT python int (components can exceed int64 when squared after a
    corpus-sum), the float steps are single correctly-rounded ops —
    DuckDB: ``floor(x::DOUBLE * 1000000.0 / sqrt(ssq::DOUBLE))``
    (agreement spot-verified over random magnitudes in the round-4
    twin work). Zero vectors pass through unchanged."""
    import math
    ssq = sum(int(x) * int(x) for x in v.tolist())
    if ssq == 0:
        return v.astype(np.int64)
    return np.floor(v.astype(np.float64) * 1e6
                    / math.sqrt(float(ssq))).astype(np.int64)


def ivf_train_int(corpus: "ray.data.Dataset", n_clusters: int = 16,
                  rounds: int = 3,
                  emb_col: str = "embedding") -> np.ndarray:
    """Integer spherical k-means: hash-rank init, then ``rounds``
    distributed Lloyd passes. Each pass streams the corpus once,
    emitting per-cluster (sum-vector, count) INTEGER partials —
    constant-size, order-independent to merge (unlike float partial
    sums), so the result is independent of batching/parallelism and
    bit-equal to the SQL twin's unrolled rounds. Assignment is argmax
    of the integer dot (ties -> lowest cluster index, matching SQL
    ``ORDER BY dot DESC, c``)."""
    init = hash_init_vectors(corpus, n_clusters, emb_col)
    if init.size == 0:  # empty corpus: no centroids, not np.stack([])
        return np.empty((0, 0), dtype=np.int64)
    cent = np.stack([normq_int(v) for v in init])
    for _ in range(max(rounds, 0)):
        ref = ray.put(cent)
        nc, dim = cent.shape

        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(ref)
            mq = quantize_q(_embedding_matrix(batch, emb_col))
            assign = np.argmax(mq @ c.T, axis=1)  # first max == lowest c
            sums = np.zeros((len(c), c.shape[1]), dtype=np.int64)
            np.add.at(sums, assign, mq)
            counts = np.bincount(assign, minlength=len(c))
            return pa.table({
                "cluster": pa.array(np.arange(len(c), dtype=np.int64)),
                "vec_sum": pa.array(list(sums), pa.list_(pa.int64())),
                "n": pa.array(counts.astype(np.int64)),
            })

        merged = collect_table(
            corpus.map_batches(partial, batch_format="pyarrow"))
        if not merged.num_rows:
            return cent
        cl = merged.column("cluster").to_numpy(zero_copy_only=False)
        n = merged.column("n").to_numpy(zero_copy_only=False)
        vcol = merged.column("vec_sum")
        if isinstance(vcol, pa.ChunkedArray):
            vcol = vcol.combine_chunks()
        vs = vcol.flatten().to_numpy(zero_copy_only=False).reshape(-1, dim)
        # merge partials in PYTHON ints: per-component corpus sums can
        # approach int64 range at scale; 16x64 values is trivial work
        sums = [[0] * dim for _ in range(nc)]
        counts = [0] * nc
        for row, ci in enumerate(cl.tolist()):
            counts[ci] += int(n[row])
            rv = vs[row]
            sc = sums[ci]
            for j in range(dim):
                sc[j] += int(rv[j])
        new = cent.copy()
        for ci in range(nc):
            if counts[ci] > 0:
                # object dtype keeps the exact python ints: at corpus
                # scale a component sum can exceed int64, where an
                # int64 cast would raise (and numpy merge would have
                # wrapped silently); normq_int only needs tolist() +
                # astype(float64), both exact-int-safe
                s = np.array(sums[ci], dtype=object)
                # a non-empty cluster whose integer sum is the zero
                # vector adopts the zero centroid — normq_int passes
                # zeros through, and the SQL twin's _NORMQ ssq=0 branch
                # does the same, so engine and twin agree even on this
                # degenerate case (only empty clusters keep their
                # previous centroid, the twin's coalesce(nv, v))
                new[ci] = normq_int(s)
        cent = new
    return cent


def ivf_assign_both_stage_int(cent_ref, nprobe: int,
                              id_col: str = "vec_id",
                              emb_col: str = "embedding"):
    """map_batches fn for self-join IVF (every corpus vector is also a
    query): one quantize + int matmul per batch emits the vector's
    inverted-list row (top-1 centroid) and its ``nprobe`` probe copies,
    so the assignment runs once for both roles. Stable
    argsort of -dots keeps ties in ascending cluster order — the SQL
    twin's (dot DESC, c ASC)."""

    def fn(batch: pa.Table) -> pa.Table:
        cent = ray.get(cent_ref)
        mq = quantize_q(_embedding_matrix(batch, emb_col))
        dots = mq @ cent.T  # (n, C) exact int64
        top = np.argsort(-dots, axis=1, kind="stable")[:, :nprobe]
        n = len(mq)
        idx = np.concatenate([np.arange(n), np.repeat(np.arange(n), nprobe)])
        clusters = np.concatenate([top[:, 0], top.reshape(-1)])
        is_query = np.concatenate([np.zeros(n, dtype=bool),
                                   np.ones(n * nprobe, dtype=bool)])
        return pa.table({
            id_col: batch.column(id_col).take(pa.array(idx)),
            emb_col: batch.column(emb_col).take(pa.array(idx)),
            "cluster": pa.array(clusters.astype(np.int64)),
            "is_query": pa.array(is_query),
        })

    return fn


def ann_ivf_int_pipeline(corpus: ray.data.Dataset, dim: int, k: int,
                         n_clusters: int = 16, nprobe: int = 4,
                         rounds: int = 3) -> ray.data.Dataset:
    """SQL-twinnable IVF ANN: integer k-means (``ivf_train_int``),
    integer probe/inverted-list assignment, exact cosine top-k within
    each probed list, per-query merge. The inverted lists shuffle once
    and queries probe ``nprobe`` lists; every data-dependent branch is
    integer, so the DuckDB twin (``_ann_ivf_sql``) reproduces the output
    exactly."""
    cent = ivf_train_int(corpus, n_clusters, rounds)
    if cent.size == 0:  # empty corpus: no lists, no neighbours
        return _empty_ds(_IVF_EMPTY)
    cent_ref = ray.put(cent)

    partial = (corpus.map_batches(ivf_assign_both_stage_int(cent_ref, nprobe),
                                  batch_format="pyarrow")
               .repartition(nblocks_for_cluster())
               .groupby("cluster")
               .map_groups(_ivf_cluster_topk(k), batch_format="pyarrow"))

    return (partial.map_batches(_add_id_bucket, batch_format="pyarrow")
            .groupby("id_bucket")
            .map_groups(_bucket_merge_topk(k), batch_format="pyarrow"))


def pq_train_int(corpus: "ray.data.Dataset", dim: int, m_sub: int = 8,
                 n_codes: int = 16, rounds: int = 3,
                 emb_col: str = "embedding") -> np.ndarray:
    """Integer product-quantization codebooks: hash-rank init (the
    same ``n_codes`` vectors for every subspace), then ``rounds``
    distributed L2-Lloyd passes per subspace with INTEGER partials.
    Centroid update is ``floor(sum / count)`` computed as a double
    division (both sides do the identical two rounded ops — python
    ``np.floor(s/n)`` == DuckDB ``floor(s::DOUBLE / n)``; NEVER an
    integer ``//``, whose negative-operand semantics differ between
    python floor and SQL truncation). Returns (m_sub, n_codes', ds)
    int64 codebooks. ``n_codes`` is at most 256, so each code fits the
    uint8 that :func:`pq_assign_int` emits."""
    if dim % m_sub:
        raise ValueError(f"dim {dim} not divisible by m_sub {m_sub}")
    if n_codes > 256:
        raise ValueError(f"n_codes {n_codes} > 256 overflows uint8")
    ds_ = dim // m_sub
    init = hash_init_vectors(corpus, n_codes, emb_col)
    books = np.stack([init[:, m * ds_:(m + 1) * ds_].astype(np.int64)
                      for m in range(m_sub)])  # (M, K', ds)
    for _ in range(max(rounds, 0)):
        ref = ray.put(books)
        kk = books.shape[1]

        def partial(batch: pa.Table) -> pa.Table:
            bks = ray.get(ref)
            mq = quantize_q(_embedding_matrix(batch, emb_col))
            out_m, out_k, out_s, out_n = [], [], [], []
            for m in range(len(bks)):
                sub = mq[:, m * ds_:(m + 1) * ds_]
                cb = bks[m]
                # exact int L2: argmin over codes, ties -> lowest k
                d = ((sub[:, None, :] - cb[None, :, :]) ** 2).sum(axis=2)
                assign = np.argmin(d, axis=1)
                sums = np.zeros((kk, ds_), dtype=np.int64)
                np.add.at(sums, assign, sub)
                counts = np.bincount(assign, minlength=kk)
                out_m.append(np.full(kk, m, dtype=np.int64))
                out_k.append(np.arange(kk, dtype=np.int64))
                out_s.extend(list(sums))
                out_n.append(counts.astype(np.int64))
            return pa.table({
                "m": pa.array(np.concatenate(out_m)),
                "k": pa.array(np.concatenate(out_k)),
                "vec_sum": pa.array(out_s, pa.list_(pa.int64())),
                "n": pa.array(np.concatenate(out_n)),
            })

        merged = collect_table(
            corpus.map_batches(partial, batch_format="pyarrow"))
        if not merged.num_rows:
            return books
        ms = merged.column("m").to_numpy(zero_copy_only=False)
        ks = merged.column("k").to_numpy(zero_copy_only=False)
        n = merged.column("n").to_numpy(zero_copy_only=False)
        vcol = merged.column("vec_sum")
        if isinstance(vcol, pa.ChunkedArray):
            vcol = vcol.combine_chunks()
        vs = vcol.flatten().to_numpy(zero_copy_only=False).reshape(-1, ds_)
        # merge partials in PYTHON ints, same as ivf_train_int:
        # per-component corpus sums can approach int64 range at scale
        # and numpy would wrap silently; the merge array is only
        # m_sub x n_codes x ds_ so python-int work is trivial
        sums = [[[0] * ds_ for _ in range(kk)] for _ in range(len(books))]
        counts = [[0] * kk for _ in range(len(books))]
        for row in range(len(ms)):
            mi, ki = int(ms[row]), int(ks[row])
            counts[mi][ki] += int(n[row])
            rv = vs[row]
            sc = sums[mi][ki]
            for j in range(ds_):
                sc[j] += int(rv[j])
        new = books.copy()
        for mi in range(len(books)):
            for ki in range(kk):
                if counts[mi][ki] > 0:
                    # floor(s/n) via double division — see docstring;
                    # exact python-int sum -> correctly-rounded double,
                    # identical to the twin's floor(s::DOUBLE / n)
                    new[mi, ki] = np.floor(
                        np.array(sums[mi][ki], dtype=np.float64)
                        / float(counts[mi][ki])).astype(np.int64)
        books = new
    return books


def pq_assign_int(mq: np.ndarray, books: np.ndarray) -> np.ndarray:
    """Quantized (n, dim) rows -> (n, M) uint8 codes: exact int L2
    argmin per subspace, ties to the lowest code."""
    m_sub, _k, ds_ = books.shape
    codes = np.empty((len(mq), m_sub), dtype=np.uint8)
    for m in range(m_sub):
        sub = mq[:, m * ds_:(m + 1) * ds_]
        d = ((sub[:, None, :] - books[m][None, :, :]) ** 2).sum(axis=2)
        codes[:, m] = np.argmin(d, axis=1)
    return codes


def pq_int_scan_stage(books_ref, codes_ref, k: int,
                      id_col: str = "vec_id",
                      emb_col: str = "embedding",
                      corpus_chunk: int = 1 << 18):
    """Integer-ADC scan: per query batch, the (Q, M, K) lookup table
    is the exact int64 dot of the quantized query subvector with each
    integer codeword; scores are integer sums (no float accumulation
    order), ranked by (score DESC, neighbor_id ASC). The broadcast
    code table streams in ``corpus_chunk`` slices; each slice's per-row
    top-k (:func:`rowwise_topk`) is kept and one ``topk_per_id`` merge
    per batch ranks them: top-k under a total order is chunk-mergeable,
    so the result is identical at any chunk size and score memory is
    (Q, corpus_chunk), never (Q, N). Int scores are exact in float64
    (|score| << 2^53), so ``rowwise_topk``'s float key is still exact."""

    def fn(batch: pa.Table) -> pa.Table:
        books = ray.get(books_ref)
        c_ids, c_codes = ray.get(codes_ref)
        m_sub, _kk, ds_ = books.shape
        q_ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        qq = quantize_q(_embedding_matrix(batch, emb_col))
        nq = len(qq)
        lut = np.einsum("qmd,mkd->qmk",
                        qq.reshape(nq, m_sub, ds_), books)  # int64 exact
        rows, nbs, keys = [], [], []
        for s0 in range(0, len(c_ids), corpus_chunk):
            cc = c_codes[s0:s0 + corpus_chunk]
            cid = c_ids[s0:s0 + corpus_chunk]
            sc = np.zeros((nq, len(cc)), dtype=np.int64)
            for m in range(m_sub):
                sc += lut[:, m, cc[:, m]]
            qs, cs, _ = rowwise_topk(-sc, q_ids, cid, k)
            rows.append(qs)
            nbs.append(cid[cs])
            keys.append(-sc[qs, cs])
        # merge the chunks' top-k per batch row: rows stay in batch
        # order, ranked by (score desc, neighbor_id asc)
        rows, nbs = np.concatenate(rows), np.concatenate(nbs)
        sel, rank = topk_per_id(rows, nbs, np.concatenate(keys), k)
        return pa.table({
            "vec_id": pa.array(q_ids[rows[sel]], pa.int64()),
            "neighbor_id": pa.array(nbs[sel], pa.int64()),
            "rank": pa.array(rank, pa.int64()),
        })

    return fn


def ann_pq_int_pipeline(corpus: ray.data.Dataset, dim: int, k: int,
                        m_sub: int = 8, n_codes: int = 16,
                        rounds: int = 3,
                        scan_batch: int = 1024) -> ray.data.Dataset:
    """SQL-twinnable PQ ANN: integer codebooks (``pq_train_int``),
    integer encoding, integer-ADC scan. Scale contract: the driver
    assembles the code table once and broadcasts it, M uint8 codes per
    vector (8 B at the default M=8 against 256 B of raw f32 at dim=64,
    32x smaller); queries stream against it in ``scan_batch`` batches
    and bounded chunks (see :func:`pq_int_scan_stage`)."""
    books = pq_train_int(corpus, dim, m_sub, n_codes, rounds)
    books_ref = ray.put(books)

    def encode(batch: pa.Table) -> pa.Table:
        bks = ray.get(books_ref)
        mq = quantize_q(_embedding_matrix(batch, "embedding"))
        codes = pq_assign_int(mq, bks)
        return pa.table({
            "vec_id": batch.column("vec_id").cast(pa.int64()),
            "code": pa.array(list(codes), pa.list_(pa.uint8())),
        })

    enc = collect_table(corpus.map_batches(encode, batch_format="pyarrow"))
    if not enc.num_rows:  # empty corpus: nothing to scan against
        return _empty_ds({"vec_id": pa.int64(),
                          "neighbor_id": pa.int64(),
                          "rank": pa.int64()})
    c_ids = enc.column("vec_id").to_numpy(zero_copy_only=False)
    ccol = enc.column("code")
    if isinstance(ccol, pa.ChunkedArray):
        ccol = ccol.combine_chunks()
    c_codes = ccol.flatten().to_numpy(zero_copy_only=False).reshape(
        -1, m_sub)
    codes_ref = ray.put((c_ids, c_codes))

    return corpus.map_batches(pq_int_scan_stage(books_ref, codes_ref, k),
                              batch_format="pyarrow",
                              batch_size=scan_batch)
