"""ANN similarity search: brute-force exactness + LSH recall."""

import numpy as np
import pyarrow as pa
import ray

from mapchete_xarray_ray.collect import arrow_block_refs

from mapchete_xarray_ray.stages.ann import (
    ann_brute_pipeline,
    ann_lsh_pipeline,
    normalize_rows,
)


def _collect(ds) -> pa.Table:
    tabs = [ray.get(r) for r in arrow_block_refs(ds)]
    tabs = [t for t in tabs if t.num_columns > 0]
    return pa.concat_tables(tabs) if tabs else pa.table({})


def _corpus(n=200, dim=16, seed=5):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, dim))
    ids = np.arange(n, dtype=np.int64)
    tbl = pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.array([row.tolist() for row in mat],
                              pa.list_(pa.float64())),
    })
    return tbl, ids, mat


def _oracle_topk(ids, mat, k):
    m = normalize_rows(mat.astype(np.float64))
    sims = m @ m.T
    out = {}
    for i in range(len(ids)):
        s = sims[i].copy()
        order = [j for j in np.lexsort((ids, -s)) if ids[j] != ids[i]][:k]
        out[int(ids[i])] = [int(ids[j]) for j in order]
    return out


def test_brute_topk_matches_oracle():
    tbl, ids, mat = _corpus()
    ds = ray.data.from_arrow(tbl).repartition(4)
    got = _collect(ann_brute_pipeline(ds, ids, mat, k=5))
    want = _oracle_topk(ids, mat, 5)
    got_map = {}
    for v, n, r in zip(got.column("vec_id").to_pylist(),
                       got.column("neighbor_id").to_pylist(),
                       got.column("rank").to_pylist()):
        got_map.setdefault(v, {})[r] = n
    assert set(got_map) == set(want)
    for v, ranked in got_map.items():
        assert [ranked[r] for r in sorted(ranked)] == want[v]


def test_lsh_ann_recall_and_determinism():
    tbl, ids, mat = _corpus(n=400, dim=16, seed=7)
    ds = ray.data.from_arrow(tbl).repartition(4)
    got1 = _collect(ann_lsh_pipeline(ds, dim=16, k=5, n_planes=4))
    got2 = _collect(ann_lsh_pipeline(ds, dim=16, k=5, n_planes=4))
    # deterministic across runs (fixed planes)
    s1 = sorted(zip(got1.column("vec_id").to_pylist(),
                    got1.column("neighbor_id").to_pylist(),
                    got1.column("rank").to_pylist()))
    s2 = sorted(zip(got2.column("vec_id").to_pylist(),
                    got2.column("neighbor_id").to_pylist(),
                    got2.column("rank").to_pylist()))
    assert s1 == s2
    # recall@1 vs brute force: same-bucket neighbors are a biased sample,
    # but with 400 random vectors most rank-1 neighbors should appear
    want = _oracle_topk(ids, mat, 1)
    got_r1 = {v: n for v, n, r in s1 if r == 1}
    hits = sum(1 for v, n in got_r1.items() if want[v] and n == want[v][0])
    assert len(got_r1) > 0
    # loose deterministic bound: fixed seed makes this stable
    assert hits / max(len(want), 1) > 0.05


def test_ann_query_matches_duckdb(sf_dir):
    """Float-ordering parity between numpy and DuckDB at small scale —
    guards the SQL twin registered for ann_cosine."""
    import duckdb

    from mapchete_xarray_ray.pipelines.queries import REGISTRY, SQL_ANN_COSINE

    got = REGISTRY["ann_cosine"][0](sf_dir).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{sf_dir}/embeddings.parquet')")
    want = con.execute(SQL_ANN_COSINE).fetch_df()
    con.close()
    got = got.sort_values(["vec_id", "rank"]).reset_index(drop=True)
    want = want.sort_values(["vec_id", "rank"]).reset_index(drop=True)
    assert len(got) == len(want)
    mismatch = (got["neighbor_id"].to_numpy() != want["neighbor_id"].to_numpy()).sum()
    assert mismatch == 0


def test_emb_neardup_lsh_precision_recall_determinism(sf_dir):
    """The LSH near-dup scale path: every emitted pair is a TRUE
    positive (exact cosine inside buckets), recall vs the exact
    baseline is substantial, and reruns are identical."""
    import pyarrow as pa
    import ray

    from mapchete_xarray_ray.pipelines.queries import (
        REGISTRY,
        collect_table,
        q_emb_neardup,
        q_emb_neardup_lsh,
    )

    exact = collect_table(q_emb_neardup(sf_dir))
    exact_pairs = set(zip(exact.column("id_a").to_pylist(),
                          exact.column("id_b").to_pylist()))
    got = collect_table(q_emb_neardup_lsh(sf_dir))
    got_pairs = set(zip(got.column("id_a").to_pylist(),
                        got.column("id_b").to_pylist()))
    assert got_pairs <= exact_pairs          # precision 1.0 by design
    assert len(exact_pairs) > 0
    recall = len(got_pairs) / len(exact_pairs)
    assert recall >= 0.5, recall
    got2 = collect_table(q_emb_neardup_lsh(sf_dir))
    got2_pairs = set(zip(got2.column("id_a").to_pylist(),
                         got2.column("id_b").to_pylist()))
    assert got_pairs == got2_pairs           # deterministic


def test_int_ann_partition_invariance_and_recall():
    """The SQL-twinnable integer variants (ann_ivf_int_pipeline /
    ann_pq_int_pipeline) must be BIT-IDENTICAL across partitionings —
    the whole point of integer partials is order-independent merging —
    must give every query a full, contiguous 1..k rank list, and must
    still recover planted near-duplicate twins."""
    from mapchete_xarray_ray.stages.ann import (
        ann_ivf_int_pipeline,
        ann_pq_int_pipeline,
    )

    rng = np.random.default_rng(31)
    base = rng.standard_normal((150, 16))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    twins = base + 0.05 * rng.standard_normal(base.shape)
    twins /= np.linalg.norm(twins, axis=1, keepdims=True)
    mat = np.vstack([base, twins])
    ids = np.arange(300, dtype=np.int64)
    tbl = pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.array([r.tolist() for r in mat],
                              pa.list_(pa.float64())),
    })

    for pipeline, kwargs in (
        (ann_ivf_int_pipeline, dict(n_clusters=8, nprobe=3, rounds=2)),
        (ann_pq_int_pipeline, dict(m_sub=4, n_codes=16, rounds=2)),
    ):
        runs = []
        for nparts in (2, 8):
            ds = ray.data.from_arrow(tbl).repartition(nparts)
            got = _collect(pipeline(ds, dim=16, k=3, **kwargs))
            runs.append(sorted(zip(got.column("vec_id").to_pylist(),
                                   got.column("neighbor_id").to_pylist(),
                                   got.column("rank").to_pylist())))
        assert runs[0] == runs[1], pipeline.__name__
        per_q = {}
        for v, _n, r in runs[0]:
            per_q.setdefault(v, []).append(r)
        assert set(per_q) == set(ids.tolist()), pipeline.__name__
        assert all(sorted(rs) == [1, 2, 3] for rs in per_q.values()), \
            pipeline.__name__
        twin_of = {int(i): int((i + 150) % 300) for i in ids}
        got_r1 = {v: n for v, n, r in runs[0] if r == 1}
        hits = sum(1 for v, n in got_r1.items() if n == twin_of[v])
        assert hits / len(ids) > 0.6, (pipeline.__name__, hits / len(ids))


def test_int_pipelines_empty_corpus():
    """Empty embeddings input: every ANN pipeline returns an empty
    result instead of crashing in np.stack([]) / pa.concat_tables([])
    (zero-block reads are what a filtered-to-nothing corpus produces)."""
    import pyarrow as pa

    from mapchete_xarray_ray.stages.ann import (
        ann_ivf_int_pipeline,
        ann_pq_int_pipeline,
    )

    empty = ray.data.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32()))}))
    # (pipeline, columns the NON-empty path emits from its final stage —
    # the empty branch must stay column-identical or downstream
    # _schema_finalize/select_columns consumers break)
    cases = [
        (lambda: ann_ivf_int_pipeline(empty, 8, 3),
         {"vec_id", "neighbor_id", "rank", "cosine"}),
        (lambda: ann_pq_int_pipeline(empty, 8, 3, m_sub=4, n_codes=4),
         {"vec_id", "neighbor_id", "rank"}),
    ]
    for make, cols in cases:
        out = make()
        tab = pa.concat_tables([
            t for t in (ray.get(r) for r in arrow_block_refs(out))
            if t.num_columns > 0] or [pa.table({})])
        assert tab.num_rows == 0
        assert set(tab.column_names) >= cols or tab.num_columns == 0, \
            (set(tab.column_names), cols)


def test_pq_int_scan_chunking_bitexact():
    """The integer-ADC scan's running top-k merge gives the same rows at
    any corpus chunk size (top-k under a total order is
    chunk-mergeable)."""
    from mapchete_xarray_ray.stages.ann import (
        _embedding_matrix,
        pq_assign_int,
        pq_int_scan_stage,
        pq_train_int,
        quantize_q,
    )

    tbl, ids, _mat = _corpus(n=150, dim=16, seed=21)
    books = pq_train_int(ray.data.from_arrow(tbl).repartition(3), dim=16,
                         m_sub=4, n_codes=16, rounds=2)
    codes = pq_assign_int(quantize_q(_embedding_matrix(tbl, "embedding")),
                          books)
    books_ref = ray.put(books)
    codes_ref = ray.put((ids, codes))

    outs = []
    for chunk in (7, 64, 10**6):
        got = pq_int_scan_stage(books_ref, codes_ref, k=5,
                                corpus_chunk=chunk)(tbl)
        outs.append(list(zip(got.column("vec_id").to_pylist(),
                             got.column("neighbor_id").to_pylist(),
                             got.column("rank").to_pylist())))
    assert outs[0] == outs[1] == outs[2]
    assert len(outs[0]) == 150 * 5


def test_pq_int_codes_are_uint8_and_n_codes_is_capped():
    """Codes are one byte each, so a codebook of more than 256 codes
    must fail loud instead of wrapping every code."""
    import pytest

    from mapchete_xarray_ray.stages.ann import (
        _embedding_matrix,
        pq_assign_int,
        pq_train_int,
        quantize_q,
    )

    tbl, _ids, _mat = _corpus(n=40, dim=16, seed=3)
    ds = ray.data.from_arrow(tbl)
    with pytest.raises(ValueError, match="n_codes"):
        pq_train_int(ds, dim=16, m_sub=4, n_codes=257)
    books = pq_train_int(ds, dim=16, m_sub=4, n_codes=8, rounds=1)
    codes = pq_assign_int(quantize_q(_embedding_matrix(tbl, "embedding")),
                          books)
    assert codes.dtype == np.uint8 and codes.shape == (40, 4)
