"""Deduplication operators (SURVEY.md §2.7 graft + training-data ops).

- exact dedup: content-hash partition + per-group first (the classic
  ``groupby(hash).map_groups`` shape; within a hash group, grouping is
  by the exact content so hash collisions cannot merge distinct texts).
- MinHash + LSH near-dup: per-batch vectorized shingle->minhash
  signatures, banded into (band_id, band_hash) keys, ``groupby`` over
  bands yields candidate pairs, exact Jaccard verify. All hash
  parameters are fixed constants so the sequential oracle in
  tests/test_dedup.py reproduces identical pairs.
- SimHash near-dup: 64-bit signatures, blocked into 4x16-bit chunks
  (two signatures within Hamming distance<=3 share at least one chunk),
  verified by exact Hamming distance.

Every kernel is numpy-vectorized per batch; signatures are tiny
(8-64 bytes/doc) so the shuffles move signature projections, never the
documents themselves.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from mapchete_xarray_ray.collect import collect_table

from mapchete_xarray_ray.functions.geocode import stable_hash64
from mapchete_xarray_ray.nputil import segment_pairs, sorted_lookup

# --- MinHash parameters (fixed; shared with the test oracle) -------------
_MERSENNE = np.uint64((1 << 61) - 1)
_N_PERM = 64
_N_BANDS = 16  # 16 bands x 4 rows
_ROWS_PER_BAND = _N_PERM // _N_BANDS
_RNG = np.random.default_rng(0xC0FFEE)
PERM_A = _RNG.integers(1, _MERSENNE, size=_N_PERM, dtype=np.uint64)
PERM_B = _RNG.integers(0, _MERSENNE, size=_N_PERM, dtype=np.uint64)


def shingle_hashes(text: str, width: int = 3) -> np.ndarray:
    """Word-``width``-gram shingles -> uint64 hashes (deterministic).

    Gram hash is :func:`fnv1a64` (NOT pandas' hash_array) so the whole
    MinHash chain — signatures, band hashes, LSH candidates, the exact
    Jaccard verify — is reproducible in ANSI SQL (DuckDB HUGEINT
    lambdas; see ``_minhash_ctes`` in pipelines/queries.py), putting
    ``minhash_neardup``/``dedup_clusters`` under the driver's exact
    hash check. Same ASCII parity domain as SimHash (fnv1a64
    docstring)."""
    words = text.split()
    if len(words) < width:
        grams = [" ".join(words)] if words else [""]
    else:
        grams = [" ".join(words[i:i + width]) for i in range(len(words) - width + 1)]
    return fnv1a64(grams)


def minhash_signature(text: str) -> np.ndarray:
    """(64,) uint64 signature: min over shingles of (a*h + b) mod p."""
    h = shingle_hashes(text)
    # (shingles, perms) — modmul in python ints would be slow; stay in
    # uint64 with overflow-safe 128-bit emulation via float is unsafe, so
    # use modular arithmetic on uint64 pairs
    vals = (h[:, None] * PERM_A[None, :] + PERM_B[None, :]) % _MERSENNE
    return vals.min(axis=0)


def batch_minhash_signatures(texts: list[str]) -> np.ndarray:
    """(n, 64) signatures, vectorized across the whole batch:

    one ``stable_hash64`` call over ALL shingles, then one
    ``np.minimum.reduceat`` per permutation — O(64 * total_shingles)
    with O(total_shingles) memory (never the (shingles x perms)
    matrix). Bit-identical to per-doc :func:`minhash_signature`
    (asserted in tests/test_dedup.py)."""
    grams: list[str] = []
    offsets = np.empty(len(texts) + 1, dtype=np.int64)
    offsets[0] = 0
    for i, t in enumerate(texts):
        words = t.split()
        if len(words) < 3:
            grams.append(" ".join(words) if words else "")
        else:
            grams.extend(" ".join(words[j:j + 3]) for j in range(len(words) - 2))
        offsets[i + 1] = len(grams)
    h = fnv1a64(grams)
    sigs = np.empty((len(texts), _N_PERM), dtype=np.uint64)
    starts = offsets[:-1]
    for p in range(_N_PERM):
        vals = (h * PERM_A[p] + PERM_B[p]) % _MERSENNE
        sigs[:, p] = np.minimum.reduceat(vals, starts)
    return sigs


def minhash_stage(batch: pa.Table, id_col: str = "doc_id",
                  text_col: str = "text",
                  with_content_hash: bool = False) -> pa.Table:
    """doc -> one row per band: (id, band_id, band_hash).

    ``with_content_hash`` appends a ``chash`` column (FNV-1a of the
    raw text, repeated per band: +8 B/row on the band shuffle) — the
    key the degenerate-bucket valve in
    :func:`candidate_pairs_bucketed` collapses identical documents
    with."""
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    texts = batch.column(text_col).to_pylist()
    sigs = batch_minhash_signatures(texts)  # (n, 64)
    bands = sigs.reshape(len(ids), _N_BANDS, _ROWS_PER_BAND)
    # band hash: fold rows with a stable mix
    bh = bands[:, :, 0]
    for r in range(1, _ROWS_PER_BAND):
        bh = (bh * np.uint64(1099511628211)) ^ bands[:, :, r]
    n = len(ids)
    cols = {
        id_col: pa.array(np.repeat(ids, _N_BANDS), pa.int64()),
        "band_id": pa.array(np.tile(np.arange(_N_BANDS, dtype=np.int64), n)),
        "band_hash": pa.array(bh.reshape(-1).astype(np.int64)),
    }
    if with_content_hash:
        ch = fnv1a64(texts).astype(np.int64)
        cols["chash"] = pa.array(np.repeat(ch, _N_BANDS), pa.int64())
    return pa.table(cols)


def jaccard(a: str, b: str, width: int = 3) -> float:
    sa, sb = set(shingle_hashes(a, width).tolist()), set(shingle_hashes(b, width).tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def jaccard_ge(a: str, b: str, num: int = 1, den: int = 2,
               width: int = 3) -> bool:
    """Integer-exact threshold test |A∩B|/|A∪B| >= num/den over the
    distinct shingle-hash sets: ``den*inter >= num*union`` sidesteps
    the float-division threshold edge, so the DuckDB twin's integer
    cross-compare (``_minhash_ctes`` in pipelines/queries.py) decides
    identically on every pair."""
    sa = set(shingle_hashes(a, width).tolist())
    sb = set(shingle_hashes(b, width).tolist())
    inter = len(sa & sb)
    union = len(sa) + len(sb) - inter
    return True if union == 0 else den * inter >= num * union


def candidate_pairs_from_bands(group: pa.Table, id_col: str = "doc_id") -> pa.Table:
    """Within one (band_id, band_hash) bucket: all id pairs (a < b)."""
    ids = np.unique(group.column(id_col).to_numpy(zero_copy_only=False))
    if len(ids) < 2:
        return pa.table({"id_a": pa.array([], pa.int64()),
                         "id_b": pa.array([], pa.int64())})
    ia, ib = np.triu_indices(len(ids), k=1)
    return pa.table({"id_a": pa.array(ids[ia], pa.int64()),
                     "id_b": pa.array(ids[ib], pa.int64())})


def candidate_pairs_bucketed(group: pa.Table, key_cols: tuple[str, str],
                             id_col: str = "doc_id",
                             chash_col: str | None = None,
                             max_segment: int | None = None) -> pa.Table:
    """Pair generation over a COARSE bucket holding many complete
    (key_cols) groups — one python call per bucket, pair expansion per
    segment (only segments with >= 2 members do work).

    Degenerate-bucket safety valve (``chash_col`` + ``max_segment``):
    a flood of IDENTICAL documents lands every copy in the same band
    segment, and the plain clique goes quadratic (10k copies = 50M
    pairs x 64 bands). When a segment exceeds ``max_segment`` members
    AND a content-hash column is provided, the segment collapses to
    the cluster-representative form: within each content-identical
    subgroup, a STAR (min-id representative -> member; those pairs
    have Jaccard exactly 1, so the downstream verify always keeps
    them), plus the all-pairs clique across the subgroup
    representatives only. Connected-components output over the
    verified pairs is PROVABLY unchanged: content-identical docs are
    interchangeable w.r.t. Jaccard (any true edge (a, x) implies the
    emitted edge (rep_a, x) with the identical score, and rep_a ~ a
    via the star), so every uncapped component maps 1:1 onto a capped
    one. Only the flat PAIR LISTING differs above the cap — and for an
    identity flood that listing is Theta(n^2) by definition, which no
    engine should materialize. Segments at or below the cap keep the
    exact clique, so small-scale outputs (and their SQL twins) are
    bit-identical with or without the valve."""
    k1 = group.column(key_cols[0]).to_numpy(zero_copy_only=False)
    k2 = group.column(key_cols[1]).to_numpy(zero_copy_only=False)
    ids = group.column(id_col).to_numpy(zero_copy_only=False)
    ch = (group.column(chash_col).to_numpy(zero_copy_only=False)
          if chash_col is not None and chash_col in group.column_names
          else None)
    order = np.lexsort((ids, k2, k1))
    k1, k2, ids = k1[order], k2[order], ids[order]
    if ch is not None:
        ch = ch[order]
    new_seg = np.ones(len(ids), dtype=bool)
    new_seg[1:] = (k1[1:] != k1[:-1]) | (k2[1:] != k2[:-1])
    starts = np.flatnonzero(new_seg)
    lens = np.diff(np.append(starts, len(ids)))
    out_a, out_b = [], []
    for s, L in zip(starts[lens >= 2], lens[lens >= 2]):
        seg_ids = ids[s:s + L]
        if ch is not None and max_segment is not None and L > max_segment:
            seg_ch = ch[s:s + L]
            so = np.lexsort((seg_ids, seg_ch))
            sid, sch = seg_ids[so], seg_ch[so]
            keep = np.ones(L, dtype=bool)
            keep[1:] = (sid[1:] != sid[:-1]) | (sch[1:] != sch[:-1])
            sid, sch = sid[keep], sch[keep]
            grp_start = np.ones(len(sid), dtype=bool)
            grp_start[1:] = sch[1:] != sch[:-1]
            rep = sid[grp_start]  # min id per content group (sorted)
            # star: representative -> every other member of its group
            gidx = np.cumsum(grp_start) - 1
            member_mask = ~grp_start
            if member_mask.any():
                out_a.append(rep[gidx[member_mask]])
                out_b.append(sid[member_mask])
            # clique across representatives only (rep is chash-sorted,
            # not id-sorted -> canonicalize to id_a < id_b, the order
            # the uncapped clique and pack_pids_stage rely on)
            if len(rep) >= 2:
                ia, ib = np.triu_indices(len(rep), k=1)
                ra, rb = rep[ia], rep[ib]
                out_a.append(np.minimum(ra, rb))
                out_b.append(np.maximum(ra, rb))
            continue
        seg = np.unique(seg_ids)
        if len(seg) < 2:
            continue
        ia, ib = np.triu_indices(len(seg), k=1)
        out_a.append(seg[ia])
        out_b.append(seg[ib])
    if not out_a:
        return pa.table({"id_a": pa.array([], pa.int64()),
                         "id_b": pa.array([], pa.int64())})
    return pa.table({
        "id_a": pa.array(np.concatenate(out_a), pa.int64()),
        "id_b": pa.array(np.concatenate(out_b), pa.int64()),
    })


def ngram_grams(text: str) -> set[str]:
    """Distinct word-3-gram STRINGS of a doc (the exact-Jaccard verify
    set; same gram semantics as :func:`shingle_hashes`: docs with fewer
    than 3 words contribute the whole text as one gram, empty docs the
    empty string)."""
    w = text.split()
    if len(w) < 3:
        return {" ".join(w)}
    return {" ".join(w[j:j + 3]) for j in range(len(w) - 2)}


def _doc_gram_flat(texts: list[str]):
    """texts -> (h_u, d_u, n_u): per-doc DISTINCT sorted word-3-gram
    hashes, flattened (d_u = doc index per hash, n_u = distinct count
    per doc; hashes ascend within each doc). Gram semantics match
    :func:`ngram_grams`."""
    grams: list[str] = []
    counts = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        w = t.split()
        if len(w) < 3:
            grams.append(" ".join(w))
            counts[i] = 1
        else:
            grams.extend(" ".join(w[j:j + 3]) for j in range(len(w) - 2))
            counts[i] = len(w) - 2
    if not len(texts):
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0, np.int64))
    # int64 VIEW of the hash before sorting: every downstream consumer
    # (Arrow columns, the verify's searchsorted) compares int64, and a
    # uint64-sorted array is NOT sorted once values >= 2^63 wrap
    h = stable_hash64(np.array(grams, dtype=object)).astype(np.int64)
    doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
    order = np.lexsort((h, doc_idx))
    h_s, d_s = h[order], doc_idx[order]
    first = np.ones(len(h_s), dtype=bool)
    first[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
    h_u, d_u = h_s[first], d_s[first]
    n_u = np.bincount(d_u, minlength=len(texts)).astype(np.int64)
    return h_u, d_u, n_u


def doc_gram_stage(batch: pa.Table, id_col: str = "doc_id",
                   text_col: str = "text") -> pa.Table:
    """(doc_id, text) -> one row per DISTINCT word-3-gram:
    (doc_id, gram_hash). The exploded set representation every
    set-similarity stage downstream works on. Hash collisions could in
    principle merge two distinct grams (2^-64-scale odds); the verify
    downstream only ever shrinks the candidate set, so a collision can
    at worst add a candidate, never a result."""
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    texts = batch.column(text_col).to_pylist()
    h_u, d_u, _ = _doc_gram_flat(texts)
    return pa.table({
        id_col: pa.array(ids[d_u] if len(d_u) else np.empty(0, np.int64),
                         pa.int64()),
        "gram_hash": pa.array(h_u, pa.int64()),
    })


def gram_array_fn(kept: pa.Table, text_col: str = "text") -> pa.Array:
    """value_fn for :func:`attach_pair_values`: each candidate doc's
    DISTINCT SORTED gram-hash set as one ``list<int64>`` cell (the
    vectorized-verify payload — ~8 bytes/gram instead of the text)."""
    texts = kept.column(text_col).to_pylist()
    h_u, _, n_u = _doc_gram_flat(texts)
    offsets = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(n_u, out=offsets[1:])
    return pa.ListArray.from_arrays(pa.array(offsets.astype(np.int32),
                                             pa.int32()),
                                    pa.array(h_u, pa.int64()))


def gram_df_attach(group: pa.Table, id_col: str = "doc_id") -> pa.Table:
    """Within one gram-hash bucket: attach each gram's document
    frequency to its (doc_id, gram_hash) rows. The bucket holds EVERY
    posting of its grams (rows are gram-bucket partitioned), so df is
    a segment count — no separate DF aggregate or join pass."""
    ids = group.column(id_col).to_numpy(zero_copy_only=False)
    h = group.column("gram_hash").to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, h))
    h_s, id_s = h[order], ids[order]
    new = np.ones(len(h_s), dtype=bool)
    new[1:] = h_s[1:] != h_s[:-1]
    starts = np.flatnonzero(new)
    lens = np.diff(np.append(starts, len(h_s)))
    return pa.table({
        id_col: pa.array(id_s, pa.int64()),
        "gram_hash": pa.array(h_s, pa.int64()),
        "df": pa.array(np.repeat(lens, lens), pa.int64()),
    })


def ngram_prefix_select(group: pa.Table, tau: float = 0.5,
                        id_col: str = "doc_id") -> pa.Table:
    """Within one doc bucket: per-doc PREFIX grams by ascending
    (df, gram_hash) — AllPairs/PPJoin prefix filtering for Jaccard
    >= ``tau``.

    With all docs' grams in one global total order (document frequency
    breaking ties by hash), any pair with Jaccard >= tau must share a
    gram inside BOTH docs' first ``n - ceil(tau*n) + 1`` distinct grams
    (else the overlap is too small), so the inverted index over prefix
    grams stays candidate-COMPLETE while indexing RARE grams first —
    posting lists in the pair-expansion stage stay tiny where a
    hash-ordered prefix would index corpus-common grams (measured at
    sf0.1: 568k candidate pairs hash-ordered vs ~300 df-ordered).
    Completeness is property-tested in tests/test_dedup.py."""
    ids = group.column(id_col).to_numpy(zero_copy_only=False)
    h = group.column("gram_hash").to_numpy(zero_copy_only=False)
    df = group.column("df").to_numpy(zero_copy_only=False)
    order = np.lexsort((h, df, ids))
    id_s, h_s = ids[order], h[order]
    new = np.ones(len(id_s), dtype=bool)
    new[1:] = id_s[1:] != id_s[:-1]
    starts = np.flatnonzero(new)
    n_u = np.diff(np.append(starts, len(id_s)))
    rank = np.arange(len(id_s), dtype=np.int64) - np.repeat(starts, n_u)
    plen = n_u - np.ceil(tau * n_u).astype(np.int64) + 1
    keep = rank < np.repeat(plen, n_u)
    return pa.table({
        id_col: pa.array(id_s[keep], pa.int64()),
        "gram_hash": pa.array(h_s[keep], pa.int64()),
        "n": pa.array(np.repeat(n_u, n_u)[keep], pa.int64()),
        "rank": pa.array(rank[keep], pa.int64()),
    })


def ppjoin_pairs_bucketed(group: pa.Table, tau: float = 0.5,
                          id_col: str = "doc_id") -> pa.Table:
    """Within one gram bucket: expand prefix posting lists to candidate
    (id_a, id_b) pairs with the AllPairs/PPJoin LENGTH and POSITIONAL
    filters applied vectorized at emission time.

    - length: Jaccard >= tau forces ``min(|A|,|B|) >= tau*max(|A|,|B|)``.
    - positional: from a shared gram at (df,hash)-order ranks (ra, rb),
      overlap <= earlier-shared + min(|A|-ra, |B|-rb); at the pair's
      FIRST shared prefix gram earlier-shared = 0, so pairs with
      ``min(|A|-ra, |B|-rb) < ceil(tau/(1+tau)*(|A|+|B|))`` can be
      dropped. Applying the test independently per generating gram is
      complete: a qualifying pair's first shared gram always passes,
      and duplicates pruned at later grams are just that — duplicates.

    Every within-gram pair comes from one :func:`nputil.segment_pairs`
    call (gram order, then posting-list ``triu`` order) and both filters
    run once over the whole pair array — no python loop per gram.
    """
    k = group.column("gram_hash").to_numpy(zero_copy_only=False)
    ids = group.column(id_col).to_numpy(zero_copy_only=False)
    n = group.column("n").to_numpy(zero_copy_only=False)
    r = group.column("rank").to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, k))
    k, ids, n, r = k[order], ids[order], n[order], r[order]
    new = np.ones(len(k), dtype=bool)
    new[1:] = k[1:] != k[:-1]
    starts = np.flatnonzero(new)
    i, j = segment_pairs(starts, np.diff(np.append(starts, len(k))))
    na, nb, ra, rb = n[i], n[j], r[i], r[j]
    alpha = np.ceil((tau / (1.0 + tau)) * (na + nb)).astype(np.int64)
    keep = ((np.minimum(na, nb) >= tau * np.maximum(na, nb))
            & (np.minimum(na - ra, nb - rb) >= alpha))
    A, B = ids[i[keep]], ids[j[keep]]
    return pa.table({
        "id_a": pa.array(np.minimum(A, B), pa.int64()),
        "id_b": pa.array(np.maximum(A, B), pa.int64()),
    })


# --- SimHash -------------------------------------------------------------

FNV_BASIS = np.uint64(0xCBF29CE484222325)
FNV_PRIME = np.uint64(0x100000001B3)


def _fnv1a64_scalar(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


# tokens longer than this hash via the per-token scalar loop: the
# vectorized path's python-level loop runs once per byte POSITION, so
# a single pathological whitespace-free token (minified JS, base64
# blob) must not set the trip count for the whole batch
_FNV_LONG_TOKEN = 1024


def fnv1a64(tokens) -> np.ndarray:
    """FNV-1a (64-bit) over each token's utf-8 bytes, vectorized by
    byte position over the FLAT concatenated bytes: tokens are ordered
    longest-first so the active set at byte position p is a prefix —
    one gather + one fused xor-mul per position, O(total bytes) memory
    (no padded matrix), O(total bytes) work. Tokens longer than
    ``_FNV_LONG_TOKEN`` hash individually so one huge token can't
    dominate the position loop.

    Chosen for the SimHash token hash because it is reproducible in
    ANSI SQL (DuckDB HUGEINT ``list_reduce`` over codepoints — see
    ``SQL_SIMHASH`` in pipelines/queries.py), which puts the SimHash
    family under the driver's exact hash check. Parity domain: the SQL
    twin reads codepoints via ``ascii(substr(...))``, which equals the
    utf-8 byte sequence for ASCII text (the synthetic corpus is
    all-ASCII; non-ASCII text still hashes deterministically here, only
    the SQL twin would diverge)."""
    n = len(tokens)
    out = np.full(n, FNV_BASIS, dtype=np.uint64)
    if n == 0:
        return out
    bs = [t.encode("utf-8") for t in tokens]
    lens = np.fromiter((len(b) for b in bs), dtype=np.int64, count=n)
    maxlen = int(lens.max())
    if maxlen == 0:
        return out
    vlens = lens
    if maxlen > _FNV_LONG_TOKEN:
        vlens = lens.copy()
        for i in np.flatnonzero(lens > _FNV_LONG_TOKEN):
            out[i] = _fnv1a64_scalar(bs[i])
            vlens[i] = 0  # done — exclude from the vectorized path
        maxlen = int(vlens.max())
    starts = np.empty(n, dtype=np.int64)
    starts[0] = 0
    np.cumsum(lens[:-1], out=starts[1:])
    order = np.argsort(-vlens, kind="stable")
    l_s, s_s, h_s = vlens[order], starts[order], out[order]
    flat = np.frombuffer(b"".join(bs), dtype=np.uint8)
    # k_p = how many tokens still have a byte at position p (prefix
    # length in the descending-length order)
    k_p = np.searchsorted(-l_s, -np.arange(1, maxlen + 1), side="right")
    for p in range(maxlen):
        k = k_p[p]
        byte = flat[s_s[:k] + p].astype(np.uint64)
        h_s[:k] = (h_s[:k] ^ byte) * FNV_PRIME
    out[order] = h_s
    return out


def simhash64(text: str) -> int:
    """64-bit SimHash over whitespace tokens (unweighted), token hash
    = :func:`fnv1a64` (SQL-reproducible; see SQL_SIMHASH)."""
    toks = text.split()
    if not toks:
        return 0
    h = fnv1a64(toks)
    bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1))
    # votes must be SIGNED: uint64 arithmetic would wrap for score < 0
    score = bits.sum(axis=0).astype(np.int64) * 2 - len(toks)  # (+1 / -1 votes)
    return int(((score > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())


def batch_simhash64(texts: list[str]) -> np.ndarray:
    """(n,) uint64 SimHash signatures, vectorized across the batch:
    one token-hash call + one ``add.reduceat`` per bit. Bit-identical
    to per-doc :func:`simhash64`."""
    toks: list[str] = []
    offsets = np.empty(len(texts) + 1, dtype=np.int64)
    offsets[0] = 0
    n_toks = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        w = t.split()
        if not w:
            w = [""]  # placeholder; zeroed below
            n_toks[i] = 0
        else:
            n_toks[i] = len(w)
        toks.extend(w)
        offsets[i + 1] = len(toks)
    h = fnv1a64(toks)
    starts = offsets[:-1]
    sigs = np.zeros(len(texts), dtype=np.uint64)
    for b in range(64):
        votes = np.add.reduceat(((h >> np.uint64(b)) & np.uint64(1)).astype(np.int64),
                                starts)
        score = votes * 2 - n_toks
        sigs |= (score > 0).astype(np.uint64) << np.uint64(b)
    sigs[n_toks == 0] = np.uint64(0)
    return sigs


def simhash_stage(batch: pa.Table, id_col: str = "doc_id",
                  text_col: str = "text") -> pa.Table:
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    sigs = batch_simhash64(batch.column(text_col).to_pylist())
    n = len(ids)
    chunks = np.stack([(sigs >> np.uint64(16 * i)) & np.uint64(0xFFFF)
                       for i in range(4)], axis=1).astype(np.int64)
    return pa.table({
        id_col: pa.array(np.repeat(ids, 4), pa.int64()),
        "sig": pa.array(np.repeat(sigs.astype(np.int64), 4)),
        "chunk_id": pa.array(np.tile(np.arange(4, dtype=np.int64), n)),
        "chunk_val": pa.array(chunks.reshape(-1)),
    })


def connected_components(pairs: "pa.Table", max_rounds: int = 30) -> pa.Table:
    """Near-dup pairs -> duplicate clusters: (doc_id, cluster_id) where
    cluster_id = the smallest doc_id in the component (the canonical
    representative to KEEP; everything else in the cluster is a dup).

    Iterative min-label propagation over the candidate subgraph. The
    subgraph (only docs that appear in some near-dup pair) is orders of
    magnitude smaller than the corpus, so labels live in one numpy
    array per round — the scale assumption (documented; the LSH
    candidate stage upstream is what keeps this side small). Converges
    in O(component diameter) rounds; ``max_rounds`` bounds pathological
    chains.
    """
    a = pairs.column("id_a").to_numpy(zero_copy_only=False)
    b = pairs.column("id_b").to_numpy(zero_copy_only=False)
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    src = inv[:len(a)]
    dst = inv[len(a):]
    # undirected: propagate both ways
    e_src = np.concatenate([src, dst])
    e_dst = np.concatenate([dst, src])
    labels = np.arange(len(nodes), dtype=np.int64)
    for _ in range(max_rounds):
        new = labels.copy()
        np.minimum.at(new, e_dst, labels[e_src])
        # pointer-doubling contraction: follow label chains to their
        # current root so convergence is O(log diameter), not O(diameter)
        while True:
            contracted = new[new]
            if (contracted == new).all():
                break
            new = contracted
        if (new == labels).all():
            labels = new
            break
        labels = new
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_rounds} rounds "
            f"({len(nodes)} nodes) — raise max_rounds"
        )
    return pa.table({
        "doc_id": pa.array(nodes, pa.int64()),
        "cluster_id": pa.array(nodes[labels], pa.int64()),
    })


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = (a.astype(np.uint64)) ^ (b.astype(np.uint64))
    cnt = np.zeros(x.shape, dtype=np.int64)
    for _ in range(64):
        cnt += (x & np.uint64(1)).astype(np.int64)
        x >>= np.uint64(1)
    return cnt


# --- Distributed pair-set machinery --------------------------------------
#
# Shared by the MinHash and SimHash near-dup paths. At corpus scale the
# LSH candidate-pair set is itself corpus-scale, so every step below
# stays a Dataset: pairs are packed into one int64 pid, deduped with a
# bucketed shuffle (a pair matching in several bands/chunks arrives
# once per band), and each side's verify payload (text, signature) is
# attached by a doc-bucket co-group. Only the candidate-ID SET (8 B/id)
# is ever broadcast; the pair table and the payloads never land on the
# driver.

_PID_MASK = np.int64((1 << 31) - 1)


def pack_pids_stage(batch: pa.Table) -> pa.Table:
    """(id_a, id_b) -> packed pid with the id-domain guard applied
    BEFORE packing (an out-of-domain id would otherwise pack/unpack to
    a silently different pair)."""
    a = batch.column("id_a").to_numpy(zero_copy_only=False)
    b = batch.column("id_b").to_numpy(zero_copy_only=False)
    if min(a.min(), b.min()) < 0 or max(a.max(), b.max()) >= 2**31:
        raise ValueError(
            "pair packing requires 0 <= doc_id < 2**31 (the engine's "
            "documented id domain, functions/geocode.py)")
    pid = (a << np.int64(31)) | b
    return pa.table({"pid": pa.array(pid, pa.int64()),
                     "pb": pa.array((pid % 64).astype(np.int64))})


def _uniq_pids(group: pa.Table) -> pa.Table:
    pid = group.column("pid").to_numpy(zero_copy_only=False)
    return pa.table({"pid": pa.array(np.unique(pid), pa.int64())})


def dedup_pairs_ds(cands: "ray.data.Dataset",
                   nblocks: int | None = None) -> "ray.data.Dataset":
    """Candidate (id_a, id_b) Dataset -> unique packed-pid Dataset via
    one bucketed shuffle (never collected to the driver)."""
    from mapchete_xarray_ray.scale import nblocks_for_cluster

    nblocks = nblocks or nblocks_for_cluster(0.125)
    return (cands.map_batches(pack_pids_stage, batch_format="pyarrow")
            .repartition(nblocks)
            .groupby("pb")
            .map_groups(_uniq_pids, batch_format="pyarrow"))


def candidate_id_set(pids: "ray.data.Dataset") -> np.ndarray:
    """Unique doc ids referenced by a pid Dataset — deduped with one
    bucketed shuffle BEFORE anything reaches the driver, so driver
    memory is O(candidate ids), never O(pairs) (pairs grow
    quadratically inside near-dup clusters). The returned id set is the
    one broadcast this machinery keeps."""
    from mapchete_xarray_ray.scale import nblocks_for_cluster

    def id_rows(batch: pa.Table) -> pa.Table:
        pid = batch.column("pid").to_numpy(zero_copy_only=False)
        ids = np.unique(np.concatenate([pid >> np.int64(31),
                                        pid & _PID_MASK]))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "db": pa.array((ids % 64).astype(np.int64))})

    def uniq(group: pa.Table) -> pa.Table:
        ids = np.unique(group.column("doc_id").to_numpy(
            zero_copy_only=False))
        return pa.table({"doc_id": pa.array(ids, pa.int64())})

    deduped = (pids.map_batches(id_rows, batch_format="pyarrow")
               .repartition(nblocks_for_cluster(0.125))
               .groupby("db")
               .map_groups(uniq, batch_format="pyarrow"))
    parts = [b.column("doc_id").to_numpy(zero_copy_only=False)
             for b in deduped.iter_batches(batch_size=65536,
                                           batch_format="pyarrow")
             if "doc_id" in b.column_names and b.num_rows]
    return (np.sort(np.concatenate(parts)) if parts
            else np.empty(0, dtype=np.int64))


def attach_pair_values(pids: "ray.data.Dataset", values: "ray.data.Dataset",
                       value_col: str, value_type: "pa.DataType",
                       value_fn=None,
                       nblocks: int | None = None) -> "ray.data.Dataset":
    """Attach each pair side's payload by doc-bucket co-group.

    ``pids``: unique packed pids (MATERIALIZED by the caller — it is
    consumed twice: once for the id set, once for the ref rows).
    ``values``: (doc_id, <value_col>) over the full corpus; rows are
    filtered to candidate ids per batch (np.isin against the broadcast
    id set) BEFORE ``value_fn`` runs, so an expensive payload transform
    (e.g. recomputing signatures) touches only candidates.

    Returns (pid, side, <value_col>) — group by a pid bucket downstream
    and score. Shuffled bytes are O(candidate pairs), not O(corpus).
    """
    from mapchete_xarray_ray.scale import nblocks_for_cluster

    nblocks = nblocks or nblocks_for_cluster(0.125)
    ids_ref = ray.put(candidate_id_set(pids))

    def pair_ref_rows(batch: pa.Table) -> pa.Table:
        pid = batch.column("pid").to_numpy(zero_copy_only=False)
        n = len(pid)
        return pa.table({
            "pid": pa.array(np.concatenate([pid, pid]), pa.int64()),
            "doc_id": pa.array(np.concatenate([pid >> np.int64(31),
                                               pid & _PID_MASK]), pa.int64()),
            "side": pa.array(np.repeat([0, 1], n).astype(np.int64)),
            value_col: pa.nulls(2 * n, value_type),
        })

    def cand_value_rows(batch: pa.Table) -> pa.Table:
        m = np.isin(batch.column("doc_id").to_numpy(zero_copy_only=False),
                    ray.get(ids_ref))
        kept = batch.filter(pa.array(m))
        n = kept.num_rows
        vals = (value_fn(kept) if value_fn is not None
                else kept.column(value_col).cast(value_type))
        return pa.table({
            "pid": pa.array(np.full(n, -1), pa.int64()),
            "doc_id": kept.column("doc_id").cast(pa.int64()),
            "side": pa.array(np.full(n, -1), pa.int64()),
            value_col: vals,
        })

    def add_doc_bucket(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy(zero_copy_only=False) % 64
        return batch.append_column("db", pa.array(d.astype(np.int64)))

    def attach(group: pa.Table) -> pa.Table:
        side = group.column("side").to_numpy(zero_copy_only=False)
        doc = group.column("doc_id").to_numpy(zero_copy_only=False)
        val = group.column(value_col)
        is_val = side == -1
        v_doc = doc[is_val]
        o = np.argsort(v_doc, kind="stable")
        v_doc = v_doc[o]
        v_val = val.filter(pa.array(is_val)).take(pa.array(o))
        p = ~is_val
        pos = np.searchsorted(v_doc, doc[p])
        if len(pos) and ((pos >= len(v_doc)).any()
                         or (v_doc[np.minimum(pos, len(v_doc) - 1)]
                             != doc[p]).any()):
            raise KeyError("candidate pair id missing from value table")
        return pa.table({
            "pid": pa.array(group.column("pid").to_numpy(
                zero_copy_only=False)[p], pa.int64()),
            "side": pa.array(side[p], pa.int64()),
            value_col: v_val.take(pa.array(pos)),
        })

    refs = pids.map_batches(pair_ref_rows, batch_format="pyarrow")
    vals = values.map_batches(cand_value_rows, batch_format="pyarrow")
    return (refs.union(vals)
            .map_batches(add_doc_bucket, batch_format="pyarrow")
            .repartition(nblocks)
            .groupby("db")
            .map_groups(attach, batch_format="pyarrow"))


def paired_values(group: pa.Table, value_col: str):
    """(pid, side, value) bucket -> (pids, side0 values, side1 values)
    aligned per unique pid (rows arrive as one side-0 and one side-1
    row per pid after the attach step)."""
    pid = group.column("pid").to_numpy(zero_copy_only=False)
    side = group.column("side").to_numpy(zero_copy_only=False)
    o = np.lexsort((side, pid))
    val = group.column(value_col).take(pa.array(o))
    pid = pid[o]
    return pid[0::2], val.take(pa.array(np.arange(0, len(pid), 2))), \
        val.take(pa.array(np.arange(1, len(pid), 2)))


def unpack_pids(pid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return (pid >> np.int64(31)).astype(np.int64), \
        (pid & _PID_MASK).astype(np.int64)


def connected_components_ds(pairs: "ray.data.Dataset", max_rounds: int = 50,
                            nblocks: int | None = None,
                            small_cutoff: int = 1 << 21) -> "ray.data.Dataset":
    """Distributed min-label propagation: (id_a, id_b) pairs Dataset ->
    (doc_id, cluster_id) Dataset, cluster_id = the component's smallest
    doc_id.

    Each round is two bucketed exchanges over Datasets — (1) a node-
    bucket co-group of edges with current labels that emits each edge
    target's candidate label, (2) a node-bucket min-reduce producing the
    new labels plus a per-node ``changed`` flag. The driver loop sees
    ONLY the summed changed count per round (one tiny aggregate); the
    edge and label tables never leave the object store. Converges in
    O(component diameter) rounds — near-dup components are shallow.

    ADAPTIVE small-input path (the kNN semi-join pattern): when the
    edge table has at most ``small_cutoff`` rows (default 2^21 ≈ 32 MB
    of int64 pairs — bounded driver memory by construction) the rounds
    aren't worth their per-exchange fixed cost; the pairs are collected
    and closed with the in-memory pointer-doubling
    :func:`connected_components` (same output, oracle-tested). Pass
    ``small_cutoff=0`` to force the distributed rounds (the
    forced-path pytest does). At corpus scale the LSH/threshold stages
    upstream decide which side of the cutoff you land on; above it
    nothing pair-shaped ever resides on the driver.
    """
    from mapchete_xarray_ray.scale import nblocks_for_cluster

    nblocks = nblocks or nblocks_for_cluster(0.125)

    def edge_rows(batch: pa.Table) -> pa.Table:
        a = batch.column("id_a").to_numpy(zero_copy_only=False)
        b = batch.column("id_b").to_numpy(zero_copy_only=False)
        return pa.table({
            "key": pa.array(np.concatenate([a, b]), pa.int64()),
            "val": pa.array(np.concatenate([b, a]), pa.int64()),
            "kind": pa.array(np.ones(2 * len(a), dtype=np.int64)),
        })

    def init_labels(batch: pa.Table) -> pa.Table:
        k = batch.column("key").to_numpy(zero_copy_only=False)
        return pa.table({"key": pa.array(k, pa.int64()),
                         "val": pa.array(k, pa.int64()),
                         "kind": pa.array(np.zeros(len(k), dtype=np.int64))})

    def add_kb(batch: pa.Table) -> pa.Table:
        k = batch.column("key").to_numpy(zero_copy_only=False) % 64
        return batch.append_column("kb", pa.array(k.astype(np.int64)))

    def propagate(group: pa.Table) -> pa.Table:
        """label rows (kind=0: key=node, val=label) + edge rows (kind=1:
        key=src, val=dst) -> messages {key=dst, val=label[src], kind=0}
        UNION the bucket's own label rows (so labels survive to the
        min-reduce)."""
        kind = group.column("kind").to_numpy(zero_copy_only=False)
        key = group.column("key").to_numpy(zero_copy_only=False)
        val = group.column("val").to_numpy(zero_copy_only=False)
        is_lab = kind == 0
        l_key, l_val = key[is_lab], val[is_lab]
        o = np.argsort(l_key, kind="stable")
        l_key, l_val = l_key[o], l_val[o]
        e_src, e_dst = key[~is_lab], val[~is_lab]
        pos = np.searchsorted(l_key, e_src)
        if len(pos) and ((pos >= len(l_key)).any()
                         or (l_key[np.minimum(pos, len(l_key) - 1)]
                             != e_src).any()):
            raise KeyError("edge endpoint missing from label table")
        msg_label = l_val[pos] if len(pos) else np.empty(0, np.int64)
        return pa.table({
            "key": pa.array(np.concatenate([e_dst, l_key]), pa.int64()),
            "val": pa.array(np.concatenate([msg_label, l_val]), pa.int64()),
            # old-label rows keep kind=0; messages get kind=2 so the
            # min step can compute the changed flag against the old
            "kind": pa.array(np.concatenate(
                [np.full(len(e_dst), 2, dtype=np.int64),
                 np.zeros(len(l_key), dtype=np.int64)])),
        })

    def min_reduce(group: pa.Table) -> pa.Table:
        kind = group.column("kind").to_numpy(zero_copy_only=False)
        key = group.column("key").to_numpy(zero_copy_only=False)
        val = group.column("val").to_numpy(zero_copy_only=False)
        o = np.lexsort((val, key))
        key, val, kind = key[o], val[o], kind[o]
        new_run = np.ones(len(key), dtype=bool)
        new_run[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(new_run)
        ends = np.append(starts[1:], len(key))
        del ends
        node = key[starts]
        new_lab = val[starts]  # min per node (val-sorted within key)
        # old label = the kind==0 row's value; rows are (key, val)-sorted
        # so extracting kind==0 rows keeps them key-sorted with ties by
        # val ascending — searchsorted-left picks the min per node
        # (duplicate identical node->node rows occur only in round 1)
        is_old = kind == 0
        ok_key, ok_val = key[is_old], val[is_old]
        has_old, pos = sorted_lookup(ok_key, node)
        old_lab = np.where(has_old, ok_val[pos] if len(ok_key) else 0,
                           new_lab)
        return pa.table({
            "key": pa.array(node, pa.int64()),
            "val": pa.array(new_lab, pa.int64()),
            "kind": pa.array(np.zeros(len(node), dtype=np.int64)),
            "changed": pa.array((new_lab != old_lab).astype(np.int64)),
        })

    edges = (pairs.map_batches(edge_rows, batch_format="pyarrow")
             .materialize())
    if small_cutoff and edges.count() <= small_cutoff:
        e = collect_table(edges)
        if not e.num_rows:
            return ray.data.from_arrow(pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "cluster_id": pa.array([], pa.int64())}))
        k = e.column("key").to_numpy(zero_copy_only=False)
        v = e.column("val").to_numpy(zero_copy_only=False)
        # edge_rows emits both directions; keep one. Self-loops (a == b)
        # must survive too — both emitted copies pass k <= v, and the
        # union-find tolerates duplicates — so a (5,5) pair yields node
        # 5 in the output exactly like the distributed path does.
        fwd = k <= v
        small = connected_components(pa.table({
            "id_a": pa.array(k[fwd], pa.int64()),
            "id_b": pa.array(v[fwd], pa.int64())}))
        return ray.data.from_arrow(small)
    # initial labels are node->node rows WITH duplicates (one per edge
    # endpoint occurrence) — the first round's propagate/min_reduce
    # handles them, saving a dedicated dedup shuffle
    labels = edges.map_batches(init_labels, batch_format="pyarrow")
    def label_edges(batch: pa.Table) -> pa.Table:
        """Pointer-doubling edges (v <-> label(v)) derived from the
        current labels: propagating along them moves label(label(v))
        to v in one round, giving O(log diameter) convergence on long
        chains instead of O(diameter)."""
        k = batch.column("key").to_numpy(zero_copy_only=False)
        v = batch.column("val").to_numpy(zero_copy_only=False)
        m = k != v
        return pa.table({
            "key": pa.array(np.concatenate([k[m], v[m]]), pa.int64()),
            "val": pa.array(np.concatenate([v[m], k[m]]), pa.int64()),
            "kind": pa.array(np.ones(2 * int(m.sum()), dtype=np.int64)),
        })

    for _ in range(max_rounds):
        dbl = labels.map_batches(label_edges, batch_format="pyarrow")
        stepped = (edges.union(labels).union(dbl)
                   .map_batches(add_kb, batch_format="pyarrow")
                   .repartition(nblocks)
                   .groupby("kb")
                   .map_groups(propagate, batch_format="pyarrow")
                   .map_batches(add_kb, batch_format="pyarrow")
                   .repartition(nblocks)
                   .groupby("kb")
                   .map_groups(min_reduce, batch_format="pyarrow")
                   .materialize())
        # distributed scalar aggregate: only the summed count crosses
        # to the driver (streaming the label table itself through the
        # driver would make it the bandwidth bottleneck at scale)
        changed = stepped.map_batches(
            lambda b: b.select(["changed"]),
            batch_format="pyarrow").sum("changed") or 0
        # lazy column drop over the MATERIALIZED step result: consumers
        # re-run only this trivial projection, not the round's shuffles
        # (a second materialize here measured as pure overhead)
        labels = stepped.map_batches(
            lambda b: b.drop_columns(["changed"]), batch_format="pyarrow")
        if changed == 0:
            break
    else:
        raise RuntimeError(
            f"connected_components_ds did not converge in {max_rounds} "
            "rounds — raise max_rounds")

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch.column("key"),
                         "cluster_id": batch.column("val")})

    return labels.map_batches(finalize, batch_format="pyarrow")
