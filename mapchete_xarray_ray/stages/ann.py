"""Similarity search over an embedding column (training-data ops).

- :func:`brute_topk` — exact cosine top-k: the query matrix is
  broadcast ONCE via ``ray.put`` (L2-normalized float64), every batch
  does one numpy matmul against it. This is the correctness baseline
  and is itself the right scale shape when the query side is small
  (queries x corpus streamed per batch).
- :class:`LSHBucketedANN` pieces — the scale path: random-hyperplane
  sign signatures bucket the corpus (``groupby(bucket)``); queries
  probe their own bucket (+ optional multi-probe), so each group does
  a small local matmul. Approximate; tests measure recall vs brute
  force and determinism (fixed hyperplanes).

All distances are computed on float64 with a fixed expression order so
reruns and the sequential oracle agree bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from mapchete_xarray_ray.collect import arrow_block_refs

from mapchete_xarray_ray.scale import nblocks_for_cluster

_HP_SEED = 0x5EED
N_PLANES = 12  # 4096 buckets


def _collect_nonempty(ds: "ray.data.Dataset") -> pa.Table | None:
    """Collect a SMALL Dataset (training sample / code table) to one
    table; None when no rows came back — empty-corpus paths must
    branch explicitly. Thin wrapper over :func:`collect.collect_table`
    so the probe-free collection logic lives in one module."""
    from mapchete_xarray_ray.collect import collect_table

    t = collect_table(ds)
    return t if t.num_rows else None


# IVF pipelines' final stage (_bucket_merge_topk) schema, shared by
# their empty-corpus early returns so both paths stay column-identical
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

def hyperplanes(dim: int, n_planes: int = N_PLANES) -> np.ndarray:
    """Fresh fixed-seed generator per call: repeated pipelines get
    identical planes (determinism requirement)."""
    return np.random.default_rng(_HP_SEED).standard_normal((n_planes, dim))


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
    """Integer-quantized hyperplanes (``floor(randn * 1e6)``): the
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


# --- IVF variant (embedding-space cells, the other scale path) -----------

def kmeans_centroids(mat: np.ndarray, n_clusters: int, iters: int = 10,
                     seed: int = 0xC347) -> np.ndarray:
    """Deterministic spherical k-means (driver-side, on a sample):
    fixed seed init, cosine assignment, mean + renormalize update."""
    rng = np.random.default_rng(seed)
    m = normalize_rows(mat.astype(np.float64))
    idx = rng.choice(len(m), size=min(n_clusters, len(m)), replace=False)
    cent = m[np.sort(idx)].copy()
    for _ in range(iters):
        assign = np.argmax(m @ cent.T, axis=1)
        for c in range(len(cent)):
            members = m[assign == c]
            if len(members):
                v = members.sum(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cent[c] = v / n
    return cent


def kmeans_refine_distributed(corpus: "ray.data.Dataset",
                              cent: np.ndarray, iters: int = 1,
                              emb_col: str = "embedding") -> np.ndarray:
    """Distributed Lloyd refinement of sample-fit centroids: each
    iteration is ONE streaming corpus pass emitting per-batch partial
    (sum-vector, count) per cluster — a constant-size partial
    (n_clusters x dim floats) regardless of corpus size — merged and
    renormalized on the driver. The faiss-style recipe at scale:
    sample-fit seeds the codebook, full-corpus passes polish it."""
    for _ in range(max(iters, 0)):
        ref = ray.put(cent)
        nc, dim = cent.shape

        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(ref)
            m = normalize_rows(_embedding_matrix(batch, emb_col))
            assign = np.argmax(m @ c.T, axis=1)
            sums = np.zeros((len(c), c.shape[1]), dtype=np.float64)
            np.add.at(sums, assign, m)
            counts = np.bincount(assign, minlength=len(c))
            return pa.table({
                "cluster": pa.array(np.arange(len(c), dtype=np.int64)),
                "vec_sum": pa.array(list(sums), pa.list_(pa.float64())),
                "n": pa.array(counts.astype(np.int64)),
            })

        tabs = [t for t in (ray.get(r) for r in arrow_block_refs(
            corpus.map_batches(partial, batch_format="pyarrow")))
            if t.num_columns > 0]
        if not tabs:
            return cent
        merged = pa.concat_tables(tabs)
        cl = merged.column("cluster").to_numpy(zero_copy_only=False)
        n = merged.column("n").to_numpy(zero_copy_only=False)
        vcol = merged.column("vec_sum")
        if isinstance(vcol, pa.ChunkedArray):
            vcol = vcol.combine_chunks()
        vs = vcol.flatten().to_numpy(zero_copy_only=False).reshape(-1, dim)
        sums = np.zeros((nc, dim), dtype=np.float64)
        np.add.at(sums, cl, vs)
        counts = np.bincount(cl, weights=n, minlength=nc)
        new = cent.copy()
        nz = counts > 0
        norms = np.linalg.norm(sums[nz], axis=1)
        ok = norms > 0
        rows = np.flatnonzero(nz)[ok]
        new[rows] = sums[rows] / norms[ok, None]
        cent = new
    return cent


def ivf_assign_stage(cent_ref, nprobe: int = 1, id_col: str = "vec_id",
                     emb_col: str = "embedding", as_query: bool = False):
    """map_batches fn: replicate each row to its ``nprobe`` nearest
    centroids' cluster groups (corpus rows use nprobe=1 — each vector
    lives in exactly one inverted list; query copies probe several)."""

    def fn(batch: pa.Table) -> pa.Table:
        cent = ray.get(cent_ref)
        m = normalize_rows(_embedding_matrix(batch, emb_col))
        sims = m @ cent.T  # (n, C)
        top = np.argsort(-sims, axis=1, kind="stable")[:, :nprobe]  # (n, p)
        n = len(m)
        idx = np.repeat(np.arange(n), nprobe)
        return pa.table({
            id_col: batch.column(id_col).take(pa.array(idx)),
            emb_col: batch.column(emb_col).take(pa.array(idx)),
            "cluster": pa.array(top.reshape(-1).astype(np.int64)),
            "is_query": pa.array(np.full(n * nprobe, as_query)),
        })

    return fn


def ivf_assign_both_stage(cent_ref, nprobe: int, id_col: str = "vec_id",
                          emb_col: str = "embedding"):
    """One-pass variant for self-join ANN (every corpus vector is also
    a query): ONE decode + centroid matmul per batch emits both the
    vector's single inverted-list row (top-1 centroid) and its
    ``nprobe`` probe copies — halves input executions vs two assign
    stages + union, without re-running the assignment compute."""

    def fn(batch: pa.Table) -> pa.Table:
        cent = ray.get(cent_ref)
        m = normalize_rows(_embedding_matrix(batch, emb_col))
        sims = m @ cent.T  # (n, C)
        top = np.argsort(-sims, axis=1, kind="stable")[:, :nprobe]  # (n, p)
        n = len(m)
        # inverted-list rows: top-1; probe rows: top-nprobe
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
    """Vectorized per-id-bucket merge of partial cosine top-k lists."""

    def fn(group: pa.Table) -> pa.Table:
        ids = group.column("vec_id").to_numpy(zero_copy_only=False)
        nbs = group.column("neighbor_id").to_numpy(zero_copy_only=False)
        cs = group.column("cosine").to_numpy(zero_copy_only=False)
        o2 = np.lexsort((cs, nbs, ids))
        dup = np.zeros(len(ids), dtype=bool)
        dup[1:] = (ids[o2][1:] == ids[o2][:-1]) & (nbs[o2][1:] == nbs[o2][:-1])
        keep_mask = np.ones(len(ids), dtype=bool)
        keep_mask[o2[dup]] = False
        ids, nbs, cs = ids[keep_mask], nbs[keep_mask], cs[keep_mask]
        order = np.lexsort((nbs, -cs, ids))
        ids, nbs, cs = ids[order], nbs[order], cs[order]
        new_run = np.ones(len(ids), dtype=bool)
        new_run[1:] = ids[1:] != ids[:-1]
        starts = np.flatnonzero(new_run)
        rank = np.arange(len(ids)) - np.repeat(starts, np.diff(
            np.append(starts, len(ids)))) + 1
        keep = rank <= k
        return pa.table({
            "vec_id": pa.array(ids[keep], pa.int64()),
            "neighbor_id": pa.array(nbs[keep], pa.int64()),
            "rank": pa.array(rank[keep], pa.int64()),
            "cosine": pa.array(cs[keep], pa.float64()),
        })

    return fn


def ann_ivf_pipeline(corpus: ray.data.Dataset, dim: int, k: int,
                     n_clusters: int = 16, nprobe: int = 4,
                     sample_limit: int = 10_000,
                     refine_iters: int = 0) -> ray.data.Dataset:
    """IVF ANN: spherical-k-means centroids (fit driver-side on a
    sample, broadcast), corpus sharded into inverted lists (one cluster
    per vector), queries probe their ``nprobe`` nearest lists, exact
    top-k within each probed list, per-query merge. Deterministic
    (fixed seed); recall vs brute force measured in tests."""
    # the centroid sample consumes only limit(sample_limit) — streaming
    # execution early-stops the read, so the corpus is scanned ~once:
    # a truncated head pass here + one full assignment pass below
    sample = _collect_nonempty(corpus.limit(sample_limit))
    if sample is None:  # empty corpus: no lists, no neighbours
        return _empty_ds(_IVF_EMPTY)
    mat = _embedding_matrix(sample, "embedding")
    cent = kmeans_centroids(mat, n_clusters)
    if refine_iters:
        cent = kmeans_refine_distributed(corpus, cent, refine_iters)
    cent_ref = ray.put(cent)

    partial = (corpus.map_batches(ivf_assign_both_stage(cent_ref, nprobe),
                                  batch_format="pyarrow")
               .repartition(nblocks_for_cluster())  # few blocks into the 16-group shuffle
               .groupby("cluster")
               .map_groups(_ivf_cluster_topk(k), batch_format="pyarrow"))

    return (partial.map_batches(_add_id_bucket, batch_format="pyarrow")
            .groupby("id_bucket")
            .map_groups(_bucket_merge_topk(k), batch_format="pyarrow"))


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
                lambda b: (b.append_column(
                    "pb", pa.array((b.column("pid").to_numpy() % 64)
                                   .astype(np.int64)))
                    if "pid" in b.column_names else
                    pa.table({"pid": pa.array([], pa.int64()),
                              "pb": pa.array([], pa.int64())})),
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


# --- Product-quantization variant (compressed-scan scale path) -----------

_PQ_SEED = 0xAD7


def _kmeans_l2(mat: np.ndarray, n_clusters: int, iters: int = 10,
               seed: int = _PQ_SEED) -> np.ndarray:
    """Deterministic plain-L2 Lloyd k-means (driver-side, on a sample):
    fixed-seed init from sample rows, argmin-distance assignment, mean
    update (empty clusters keep their previous centroid). Distances use
    the ``-2x.c + |c|^2`` form — no (n, k, d) broadcast blow-up."""
    rng = np.random.default_rng(seed)
    mat = mat.astype(np.float64)
    idx = rng.choice(len(mat), size=min(n_clusters, len(mat)), replace=False)
    cent = mat[np.sort(idx)].copy()
    for _ in range(iters):
        d = -2.0 * (mat @ cent.T) + (cent * cent).sum(axis=1)[None, :]
        assign = np.argmin(d, axis=1)
        for c in range(len(cent)):
            members = mat[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
    return cent


def pq_train(sample_mat: np.ndarray, m_sub: int,
             n_codes: int) -> np.ndarray:
    """Fit one L2 codebook per subspace on (already normalized) sample
    rows. Returns (m_sub, n_codes, dim // m_sub) codebooks. Distinct
    seed per subspace so codebooks are independent."""
    d = sample_mat.shape[1]
    if d % m_sub:
        raise ValueError(f"dim {d} not divisible by m_sub {m_sub}")
    # the int64 packing in pq_encode_stage holds M uint8 codes: more
    # than 8 subspaces would shift past 64 bits (numpy yields 0
    # SILENTLY) and >256 codes would wrap the uint8 cast — fail loud
    # here instead of corrupting every code downstream
    if m_sub > 8:
        raise ValueError(f"m_sub {m_sub} > 8 cannot pack into int64")
    if n_codes > 256:
        raise ValueError(f"n_codes {n_codes} > 256 overflows uint8")
    ds = d // m_sub
    return np.stack([
        _kmeans_l2(sample_mat[:, i * ds:(i + 1) * ds], n_codes,
                   seed=_PQ_SEED + i)
        for i in range(m_sub)])


def pq_assign(mat: np.ndarray, books: np.ndarray) -> np.ndarray:
    """Encode (n, dim) rows against (M, K, ds) codebooks -> (n, M)
    uint8 codes (nearest codeword per subspace, vectorized per
    subspace)."""
    m_sub, _k, ds = books.shape
    codes = np.empty((len(mat), m_sub), dtype=np.uint8)
    for m in range(m_sub):
        sub = mat[:, m * ds:(m + 1) * ds]
        cb = books[m]
        d = -2.0 * (sub @ cb.T) + (cb * cb).sum(axis=1)[None, :]
        codes[:, m] = np.argmin(d, axis=1).astype(np.uint8)
    return codes


def pq_encode_stage(books_ref, id_col: str = "vec_id",
                    emb_col: str = "embedding"):
    """map_batches fn factory: normalize + PQ-encode each batch, emit
    ``(vec_id, code)`` with all M uint8 codes packed into ONE int64
    (M <= 8, K <= 256) — a 32x compression of a 64-dim f32 vector,
    shipped as plain Arrow ints, no per-row python."""

    def fn(batch: pa.Table) -> pa.Table:
        books = ray.get(books_ref)
        mat = normalize_rows(_embedding_matrix(batch, emb_col))
        codes = pq_assign(mat, books).astype(np.uint64)
        m_sub = books.shape[0]
        packed = (codes << (8 * np.arange(m_sub, dtype=np.uint64))[None, :]
                  ).sum(axis=1)
        return pa.table({
            "vec_id": batch.column(id_col).cast(pa.int64()),
            "code": pa.array(packed.view(np.int64)),
        })

    return fn


def _pq_unpack(packed: np.ndarray, m_sub: int) -> np.ndarray:
    """(n,) packed int64 -> (n, M) uint8 codes."""
    u = packed.view(np.uint64)
    return ((u[:, None] >> (8 * np.arange(m_sub, dtype=np.uint64))[None, :])
            & np.uint64(0xFF)).astype(np.uint8)


def pq_scan_stage(books_ref, codes_ref, k: int, id_col: str = "vec_id",
                  emb_col: str = "embedding",
                  corpus_chunk: int = 1 << 18):
    """map_batches fn factory: asymmetric-distance (ADC) scan. Each
    query batch builds its (Q, M, K) inner-product lookup tables in one
    einsum, then streams the broadcast code table in ``corpus_chunk``
    slices — each slice scores by fancy indexing (M vectorized gathers,
    never a python loop over vectors) and folds into a running per-row
    top-k keyed by (score desc, neighbor_id asc). Peak score memory is
    (Q, corpus_chunk) float64 (~2 GB at the defaults), NOT (Q, N):
    top-k under a total order is chunk-mergeable, so the result is
    bit-identical to a full-matrix scan at any chunk size. No shuffle:
    the compressed scan structure travels to the data."""

    def _row_topk(key: np.ndarray, ids: np.ndarray, kk: int):
        """Per-row smallest-kk by (key asc, id asc); returns the
        selected (Q, kk') key and id matrices in rank order. ``ids``
        may be (C,) shared across rows or (Q, C) per row."""
        ids2 = np.broadcast_to(ids, key.shape)
        order = np.lexsort((ids2, key), axis=-1)[:, :min(kk, key.shape[1])]
        return (np.take_along_axis(key, order, axis=1),
                np.take_along_axis(ids2, order, axis=1))

    def fn(batch: pa.Table) -> pa.Table:
        books = ray.get(books_ref)
        c_ids, c_codes = ray.get(codes_ref)
        m_sub, _kk, ds = books.shape
        q_ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        q = normalize_rows(_embedding_matrix(batch, emb_col))
        nq = len(q)
        lut = np.einsum("qmd,mkd->qmk", q.reshape(nq, m_sub, ds), books)
        best_key = np.full((nq, 0), np.inf)
        best_id = np.full((nq, 0), 0, dtype=np.int64)
        for s0 in range(0, len(c_ids), corpus_chunk):
            cc = c_codes[s0:s0 + corpus_chunk]
            cid = c_ids[s0:s0 + corpus_chunk]
            sc = np.zeros((nq, len(cc)), dtype=np.float64)
            for m in range(m_sub):
                sc += lut[:, m, cc[:, m]]
            key = np.where(q_ids[:, None] == cid[None, :], np.inf, -sc)
            ck, ci = _row_topk(key, cid, k)
            best_key, best_id = _row_topk(
                np.concatenate([best_key, ck], axis=1),
                np.concatenate([best_id, ci], axis=1), k)
        finite = np.isfinite(best_key)
        t = finite.sum(axis=1)
        return pa.table({
            "vec_id": pa.array(np.repeat(q_ids, t), pa.int64()),
            "neighbor_id": pa.array(best_id[finite], pa.int64()),
            "rank": pa.array(np.broadcast_to(
                np.arange(1, best_key.shape[1] + 1),
                best_key.shape)[finite].astype(np.int64)),
        })

    return fn


def ann_pq_pipeline(corpus: ray.data.Dataset, dim: int, k: int,
                    m_sub: int = 8, n_codes: int = 16,
                    sample_limit: int = 10_000,
                    scan_batch: int = 1024) -> ray.data.Dataset:
    """Product-quantization ANN (the compressed-scan scale path next to
    IVF and LSH): codebooks are fit driver-side on a bounded sample
    (deterministic seeds), one streaming pass encodes every vector to
    M bytes (packed into a single int64 column), and the scan pass
    streams queries against the broadcast code table with asymmetric
    distance. Scale contract: the broadcast is M bytes/vector (8 B vs
    256 B raw f32 at dim=64 — 32x), i.e. ~8 GB at 10^9 vectors; that
    compression is exactly why a PQ scan structure fits in worker RAM
    where raw vectors cannot (the driver assembles the code table once
    before the ``ray.put`` — same 8 B/vector bound). Beyond ~10^9,
    shard the code table by IVF list (compose with
    ``ann_ivf_pipeline``'s assignment) instead of growing the
    broadcast. ``scan_batch`` bounds Q per task; the scan itself
    streams the code table in chunks with a running top-k merge (see
    ``pq_scan_stage``), so score memory is (Q, chunk), never (Q, N).
    Approximate -> rows-only under the driver; recall and determinism
    are asserted in tests/test_ann.py."""
    sample = _collect_nonempty(corpus.limit(sample_limit))
    if sample is None:  # empty corpus: no codebooks, no neighbours
        return _empty_ds({"vec_id": pa.int64(),
                          "neighbor_id": pa.int64(),
                          "rank": pa.int64()})
    mat = normalize_rows(_embedding_matrix(sample, "embedding"))
    books_ref = ray.put(pq_train(mat, m_sub, n_codes))

    enc = pa.concat_tables([
        t for t in (ray.get(r) for r in arrow_block_refs(corpus.map_batches(
            pq_encode_stage(books_ref), batch_format="pyarrow")))
        if t.num_columns > 0])
    c_ids = enc.column("vec_id").to_numpy(zero_copy_only=False)
    c_codes = _pq_unpack(
        enc.column("code").to_numpy(zero_copy_only=False), m_sub)
    codes_ref = ray.put((c_ids, c_codes))

    return corpus.map_batches(pq_scan_stage(books_ref, codes_ref, k),
                              batch_format="pyarrow",
                              batch_size=scan_batch)

# --- Integer-exact IVF / PQ (SQL-twinnable variants) ----------------------
#
# The float pipelines above stay as the general-purpose implementations
# (tests exercise them directly); the *_int variants below define every
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

    parts = [t for t in (ray.get(r) for r in arrow_block_refs(
        corpus.map_batches(partial, batch_format="pyarrow")))
        if t.num_columns > 0 and t.num_rows > 0]
    if not parts:
        return np.empty((0, 0), dtype=np.int64)
    merged = pa.concat_tables(parts)
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

        tabs = [t for t in (ray.get(r) for r in arrow_block_refs(
            corpus.map_batches(partial, batch_format="pyarrow")))
            if t.num_columns > 0 and t.num_rows > 0]
        if not tabs:
            return cent
        merged = pa.concat_tables(tabs)
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
    """Integer-dot variant of :func:`ivf_assign_both_stage`: one
    quantize + int matmul per batch emits the vector's inverted-list
    row (top-1 centroid) and its ``nprobe`` probe copies. Stable
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
    each probed list, per-query merge. Same scale shape as
    ``ann_ivf_pipeline`` (inverted lists shuffle once, queries probe
    ``nprobe`` lists); every data-dependent branch is integer, so the
    DuckDB twin (``_ann_ivf_sql``) reproduces the output exactly."""
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
    int64 codebooks."""
    if dim % m_sub:
        raise ValueError(f"dim {dim} not divisible by m_sub {m_sub}")
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

        tabs = [t for t in (ray.get(r) for r in arrow_block_refs(
            corpus.map_batches(partial, batch_format="pyarrow")))
            if t.num_columns > 0 and t.num_rows > 0]
        if not tabs:
            return books
        merged = pa.concat_tables(tabs)
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
    """Quantized (n, dim) rows -> (n, M) codes: exact int L2 argmin
    per subspace, ties to the lowest code."""
    m_sub, _k, ds_ = books.shape
    codes = np.empty((len(mq), m_sub), dtype=np.int64)
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
    order), ranked by (score DESC, neighbor_id ASC). Chunked top-k
    merge identical in structure to :func:`pq_scan_stage` — int scores
    are exact in float64 (|score| << 2^53), so the float key sort is
    still exact."""

    def _row_topk(key: np.ndarray, ids: np.ndarray, kk: int):
        ids2 = np.broadcast_to(ids, key.shape)
        order = np.lexsort((ids2, key), axis=-1)[:, :min(kk, key.shape[1])]
        return (np.take_along_axis(key, order, axis=1),
                np.take_along_axis(ids2, order, axis=1))

    def fn(batch: pa.Table) -> pa.Table:
        books = ray.get(books_ref)
        c_ids, c_codes = ray.get(codes_ref)
        m_sub, _kk, ds_ = books.shape
        q_ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        qq = quantize_q(_embedding_matrix(batch, emb_col))
        nq = len(qq)
        lut = np.einsum("qmd,mkd->qmk",
                        qq.reshape(nq, m_sub, ds_), books)  # int64 exact
        best_key = np.full((nq, 0), np.inf)
        best_id = np.full((nq, 0), 0, dtype=np.int64)
        for s0 in range(0, len(c_ids), corpus_chunk):
            cc = c_codes[s0:s0 + corpus_chunk]
            cid = c_ids[s0:s0 + corpus_chunk]
            sc = np.zeros((nq, len(cc)), dtype=np.int64)
            for m in range(m_sub):
                sc += lut[:, m, cc[:, m]]
            key = np.where(q_ids[:, None] == cid[None, :], np.inf,
                           -sc.astype(np.float64))
            ck, ci = _row_topk(key, cid, k)
            best_key, best_id = _row_topk(
                np.concatenate([best_key, ck], axis=1),
                np.concatenate([best_id, ci], axis=1), k)
        finite = np.isfinite(best_key)
        t = finite.sum(axis=1)
        return pa.table({
            "vec_id": pa.array(np.repeat(q_ids, t), pa.int64()),
            "neighbor_id": pa.array(best_id[finite], pa.int64()),
            "rank": pa.array(np.broadcast_to(
                np.arange(1, best_key.shape[1] + 1),
                best_key.shape)[finite].astype(np.int64)),
        })

    return fn


def ann_pq_int_pipeline(corpus: ray.data.Dataset, dim: int, k: int,
                        m_sub: int = 8, n_codes: int = 16,
                        rounds: int = 3,
                        scan_batch: int = 1024) -> ray.data.Dataset:
    """SQL-twinnable PQ ANN: integer codebooks (``pq_train_int``),
    integer encoding, integer-ADC scan. Same scale contract as
    ``ann_pq_pipeline`` (M small ints per vector broadcast once,
    queries stream against the code table in bounded chunks)."""
    books = pq_train_int(corpus, dim, m_sub, n_codes, rounds)
    books_ref = ray.put(books)
    ds_ = dim // m_sub

    def encode(batch: pa.Table) -> pa.Table:
        bks = ray.get(books_ref)
        mq = quantize_q(_embedding_matrix(batch, "embedding"))
        codes = pq_assign_int(mq, bks)
        return pa.table({
            "vec_id": batch.column("vec_id").cast(pa.int64()),
            "code": pa.array(list(codes), pa.list_(pa.int64())),
        })

    enc = _collect_nonempty(corpus.map_batches(encode,
                                               batch_format="pyarrow"))
    if enc is None:  # empty corpus: nothing to scan against
        return _empty_ds({"vec_id": pa.int64(),
                          "neighbor_id": pa.int64(),
                          "rank": pa.int64()})
    c_ids = enc.column("vec_id").to_numpy(zero_copy_only=False)
    ccol = enc.column("code")
    if isinstance(ccol, pa.ChunkedArray):
        ccol = ccol.combine_chunks()
    c_codes = ccol.flatten().to_numpy(zero_copy_only=False).reshape(
        -1, m_sub).astype(np.int64)
    codes_ref = ray.put((c_ids, c_codes))

    return corpus.map_batches(pq_int_scan_stage(books_ref, codes_ref, k),
                              batch_format="pyarrow",
                              batch_size=scan_batch)
