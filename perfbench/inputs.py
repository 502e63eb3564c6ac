"""Deterministic inputs and oracle results, built once per (kind, seed, size).

Everything here is a pure function of the seed. Results are cached under
``<work>/cache/<kind>-s<seed>-n<size>/``; a directory is complete only once
its ``.complete`` marker exists (built in a temp sibling, then renamed), so
a run killed mid-build never leaves a half-written cache behind.

The oracles never call the engine's pipelines. They come from the
package's sequential reference (``mapchete_xarray_ray.oracle``), from
brute-force numpy, or from the DuckDB twin of ``dedup_canonical``.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from mapchete_xarray_ray.fixtures import DEFAULT_BOUNDS, TIME_STEPS, _LANGS, _make_html
from mapchete_xarray_ray.functions.extract import extract_text

N_HOSTS = 97
HOT_FRAC = 0.2  # share of pages on the one hot host (host skew)
RECRAWL_FRAC = 0.05  # exact re-crawls: same url and html, last time step
LONG_TEXT = 80  # the flagship's long-text band threshold (characters)
PAGE_FILES = 4
SJ_ZOOM = 5  # zoom of the geocode grid the spatial join runs on


def cached(work: str, kind: str, seed: int, size: int, build) -> str:
    """Directory holding ``build(tmp_dir)``'s output for this key."""
    final = os.path.join(work, "cache", f"{kind}-s{seed}-n{size}")
    if os.path.exists(os.path.join(final, ".complete")):
        return final
    tmp = f"{final}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(final, ignore_errors=True)
    os.makedirs(tmp)
    build(tmp)
    open(os.path.join(tmp, ".complete"), "w").close()
    os.replace(tmp, final)
    return final


# --- pages ------------------------------------------------------------------

def make_pages(n: int, seed: int) -> pa.Table:
    """The flagship input shape ``url, warc_ts, html, text, lang``.

    ``HOT_FRAC`` of pages sit on host ``h000`` and ``RECRAWL_FRAC`` of urls
    are crawled twice. The seed enters every url, so it moves every page to
    another tile.
    """
    rng = np.random.default_rng(seed)
    hosts = np.where(rng.random(n) < HOT_FRAC, 0, rng.integers(1, N_HOSTS, n))
    langs = rng.integers(0, len(_LANGS), n)
    steps = rng.integers(0, len(TIME_STEPS) - 1, n)
    urls, htmls, texts, lang_col = [], [], [], []
    for i in range(n):
        host = f"h{hosts[i]:03d}.example"
        lang = _LANGS[langs[i]]
        html = _make_html(i, host, lang)
        urls.append(f"https://{host}/s{seed}/p/{i:08d}")
        htmls.append(html)
        texts.append(extract_text(html))
        lang_col.append(lang)
    ts = TIME_STEPS[steps]
    again = np.sort(rng.choice(n, size=int(n * RECRAWL_FRAC), replace=False))
    pick = np.concatenate([np.arange(n), again])
    ts = np.concatenate([ts, np.full(len(again), TIME_STEPS[-1])])
    return pa.table({
        "url": pa.array([urls[j] for j in pick], pa.string()),
        "warc_ts": pa.array(ts.astype("datetime64[us]")),
        "html": pa.array([htmls[j] for j in pick], pa.binary()),
        "text": pa.array([texts[j] for j in pick], pa.string()),
        "lang": pa.array([lang_col[j] for j in pick], pa.string()),
    })


def pages_dir(work: str, seed: int, n: int) -> str:
    """``pages-*.parquet`` fragments plus ``unique.parquet`` (first crawl of
    every url: url, lang, text_len, warc_ts)."""

    def build(d: str) -> None:
        t = make_pages(n, seed)
        per = -(-t.num_rows // PAGE_FILES)
        for f in range(PAGE_FILES):
            pq.write_table(t.slice(f * per, per), os.path.join(d, f"pages-{f}.parquet"))
        first = t.slice(0, n)  # re-crawls are appended after the first crawls
        pq.write_table(pa.table({
            "url": first.column("url"),
            "lang": first.column("lang"),
            "text_len": pc.utf8_length(first.column("text")).cast(pa.int64()),
            "warc_ts": first.column("warc_ts"),
        }), os.path.join(d, "unique.parquet"))

    return cached(work, "pages", seed, n, build)


def page_files(d: str) -> list[str]:
    return sorted(os.path.join(d, f) for f in os.listdir(d) if f.startswith("pages-"))


def tile_oracle(unique: pa.Table, zoom: int) -> dict[int, tuple[int, int, int]]:
    """tile_id -> (pages, en pages, long-text pages), from the sequential
    reference assignment over the distinct urls."""
    from mapchete_xarray_ray.oracle import oracle_tile_assign

    tiles = oracle_tile_assign(unique.select(["url"]), DEFAULT_BOUNDS, zoom)
    tid = tiles.column("tile_id").to_numpy()
    en = pc.equal(unique.column("lang"), "en").to_numpy(zero_copy_only=False)
    long_ = (unique.column("text_len").to_numpy() >= LONG_TEXT)
    out: dict[int, list[int]] = {}
    for t, e, lg in zip(tid.tolist(), en.tolist(), long_.tolist()):
        acc = out.setdefault(t, [0, 0, 0])
        acc[0] += 1
        acc[1] += e
        acc[2] += lg
    return {k: tuple(v) for k, v in out.items()}


# --- spatial join -------------------------------------------------------------

def points_dir(work: str, seed: int, n: int, pages: str) -> str:
    """Distinct page urls with the reference PIP result for every one."""
    from mapchete_xarray_ray.fixtures import make_regions
    from mapchete_xarray_ray.oracle import oracle_pip_join

    def build(d: str) -> None:
        urls = pq.read_table(os.path.join(pages, "unique.parquet"), columns=["url"])
        pq.write_table(urls, os.path.join(d, "points.parquet"))
        pip = oracle_pip_join(urls, make_regions(), DEFAULT_BOUNDS, SJ_ZOOM)
        pq.write_table(pip, os.path.join(d, "oracle_pip.parquet"))

    return cached(work, "points", seed, n, build)


def knn_oracle(x: np.ndarray, y: np.ndarray, ids: np.ndarray, sample: np.ndarray,
               k: int) -> dict[int, list[tuple[int, float]]]:
    """Brute-force exact kNN for the sampled query rows: neighbours by
    squared distance, ties by neighbour id, the engine's documented order."""
    out = {}
    for i in sample.tolist():
        d2 = (x - x[i]) ** 2 + (y - y[i]) ** 2
        d2[i] = np.inf
        order = np.lexsort((ids, d2))[:k]
        out[int(ids[i])] = [(int(ids[j]), float(d2[j])) for j in order]
    return out


# --- near-duplicate corpus ------------------------------------------------------

_VOCAB = [f"w{i:04d}" for i in range(2000)]


def make_corpus(base: int, replicas: int, seed: int) -> pa.Table:
    """``replicas`` perturbed copies of ``base`` random documents: replica
    ``k`` of a document appends the tag ``replica{k}``, so each document
    forms a clique of near-duplicates (word 3-gram Jaccard well above 0.5)
    while distinct documents share almost no 3-grams."""
    rng = np.random.default_rng(seed)
    texts = []
    for _ in range(base):
        words = rng.choice(len(_VOCAB), size=int(rng.integers(30, 60)))
        texts.append(" ".join(_VOCAB[w] for w in words))
    ids, out = [], []
    for k in range(replicas):
        for i, t in enumerate(texts):
            ids.append(k * 10_000_000 + i)
            out.append(f"{t} replica{k}")
    return pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(out, pa.string())})


def _grams(text: str) -> set[str]:
    """Distinct word 3-grams, split and joined exactly like the SQL twin."""
    words = text.split()
    if len(words) < 3:
        return {" ".join(words)}
    return {" ".join(words[i:i + 3]) for i in range(len(words) - 2)}


def dedup_keep(docs: pa.Table) -> list[int]:
    """Exact ``dedup_canonical`` reference: every pair with word 3-gram
    Jaccard >= 0.5, connected components by union-find, keep the smallest
    doc id of each component. Candidate pairs come from a full inverted
    index (any qualifying pair shares a gram), a different algorithm from
    the engine's prefix filter."""
    ids = docs.column("doc_id").to_pylist()
    grams = [_grams(t) for t in docs.column("text").to_pylist()]
    index: dict[str, list[int]] = {}
    for i, g in enumerate(grams):
        for w in g:
            index.setdefault(w, []).append(i)
    parent = list(range(len(ids)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, g in enumerate(grams):
        seen = {j for w in g for j in index[w] if j > i}
        for j in seen:
            inter = len(g & grams[j])
            if 2 * inter >= len(g) + len(grams[j]) - inter:
                a, b = find(i), find(j)
                if a != b:
                    parent[max(a, b, key=lambda r: ids[r])] = min(a, b, key=lambda r: ids[r])
    return sorted(ids[i] for i in range(len(ids)) if ids[find(i)] == ids[i])


def dedup_keep_sql(docs: pa.Table) -> list[int]:
    """The same result from the DuckDB twin of ``dedup_canonical``. It is
    quadratic, so it only cross-checks :func:`dedup_keep` on small corpora."""
    import duckdb

    from mapchete_xarray_ray.pipelines.queries import REGISTRY

    con = duckdb.connect()
    try:
        con.register("documents", docs)
        return sorted(int(r[0]) for r in con.execute(REGISTRY["dedup_canonical"][1]).fetchall())
    finally:
        con.close()


def corpus_dir(work: str, seed: int, base: int, replicas: int) -> str:
    """``documents.parquet`` plus ``oracle_keep.json``, the surviving doc
    ids by :func:`dedup_keep`."""

    def build(d: str) -> None:
        docs = make_corpus(base, replicas, seed)
        pq.write_table(docs, os.path.join(d, "documents.parquet"))
        with open(os.path.join(d, "oracle_keep.json"), "w") as f:
            json.dump(dedup_keep(docs), f)

    return cached(work, "corpus", seed, base * replicas, build)
