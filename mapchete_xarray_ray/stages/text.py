"""Text stages: extraction, language filter, quality/token metrics.

All are ``map_batches(batch_format="pyarrow")`` callables. The
extraction stage drops the wide ``html`` binary column the moment text
is extracted (SURVEY.md §7 hard part 6 — keeps downstream blocks
small). Regexes are compiled at module import, once per worker
process.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from mapchete_xarray_ray.functions.extract import extract_text
from mapchete_xarray_ray.stages.arrowbuf import binary_offsets_and_data


def extract_stage(batch: pa.Table) -> pa.Table:
    """html -> text (byte-identical kernel), then PROJECT AWAY html."""
    htmls = batch.column("html").to_pylist()
    texts = pa.array([extract_text(h) for h in htmls], pa.string())
    batch = batch.drop_columns(["html"])
    if "text" in batch.column_names:
        batch = batch.drop_columns(["text"])
    return batch.append_column("text", texts)


# RE2's \s character set (what split_pattern_regex('\s+') splits on).
# Trimming exactly this set on BOTH engines keeps the token twins exact
# for tab/newline-edged texts: DuckDB's bare trim() removes only spaces
# and Arrow's utf8_trim_whitespace removes all Unicode whitespace —
# either asymmetry emits phantom empty edge tokens on one side.
TRIM_WS = " \t\n\f\r"
SQL_TRIM = "trim({col}, ' ' || chr(9) || chr(10) || chr(12) || chr(13))"


def trim_ws(col):
    return pc.utf8_trim(col, TRIM_WS)


def token_count_stage(batch: pa.Table, col: str = "text") -> pa.Table:
    """Whitespace token count, matching DuckDB
    ``array_length(regexp_split_to_array(<SQL_TRIM>, '\\s+'))``."""
    trimmed = trim_ws(batch.column(col))
    toks = pc.split_pattern_regex(trimmed, r"\s+")
    return batch.append_column("n_tokens", pc.list_value_length(toks).cast(pa.int64()))


# --- quality scoring (integer metrics -> SQL-twin exactness) -------------

def quality_stage(batch: pa.Table, col: str = "text") -> pa.Table:
    """Quality metrics per doc, all integers so the DuckDB twin matches
    exactly: n_chars (codepoints), n_tokens, n_punct, n_digits."""
    text = batch.column(col)
    trimmed = trim_ws(text)
    toks = pc.split_pattern_regex(trimmed, r"\s+")
    return (
        batch
        .append_column("n_chars", pc.utf8_length(text).cast(pa.int64()))
        .append_column("n_tokens", pc.list_value_length(toks).cast(pa.int64()))
        .append_column("n_punct",
                       pc.count_substring_regex(text, r"[.,;:!?]").cast(pa.int64()))
        .append_column("n_digits",
                       pc.count_substring_regex(text, r"[0-9]").cast(pa.int64()))
    )


# --- language id (stopword-hit heuristic; deterministic + SQL twin) ------

STOPWORDS = {
    "de": ["das", "der", "die", "ist", "und"],
    "en": ["and", "of", "the", "this", "to"],
    "es": ["el", "las", "los", "que", "una"],
    "fr": ["dans", "des", "et", "la", "les"],
}
_LANGS_SORTED = sorted(STOPWORDS)  # tie -> lexicographically smallest lang
_PATTERNS = {L: r"\b(?:" + "|".join(ws) + r")\b" for L, ws in STOPWORDS.items()}


def langid_stage(batch: pa.Table, col: str = "text") -> pa.Table:
    """Predicted language = argmax stopword hits; ties -> smallest lang
    code; all-zero -> 'unknown'. Mirrors the SQL CASE twin exactly."""
    text = batch.column(col)
    counts = {L: pc.count_substring_regex(text, _PATTERNS[L]).to_numpy(
        zero_copy_only=False).astype(np.int64) for L in _LANGS_SORTED}
    stacked = np.stack([counts[L] for L in _LANGS_SORTED])  # (L, n)
    best = np.argmax(stacked, axis=0)  # first max wins = smallest lang code
    allzero = stacked.sum(axis=0) == 0
    pred = np.array(_LANGS_SORTED, dtype=object)[best]
    pred[allzero] = "unknown"
    out = batch.append_column("lang_pred", pa.array(pred, pa.string()))
    for L in _LANGS_SORTED:
        out = out.append_column(f"hits_{L}", pa.array(counts[L]))
    return out


def langid_sql_parts(text_expr: str = "text"):
    """DuckDB twin of langid_stage, generated from the same STOPWORDS so
    the two can't drift. Returns (hit_exprs, case_expr): hit_exprs is
    ``{lang: "len(regexp_extract_all(...)) AS h_<lang>"}``; case_expr
    selects the predicted language from the ``h_<lang>`` aliases
    (first-max-wins over the sorted lang codes == numpy argmax)."""
    order = _LANGS_SORTED
    hits = {L: f"len(regexp_extract_all({text_expr}, '{_PATTERNS[L]}'))::BIGINT AS h_{L}"
            for L in order}
    greatest = f"greatest({', '.join('h_' + L for L in order)})"
    case = "CASE WHEN " + " + ".join("h_" + L for L in order) + " = 0 THEN 'unknown' "
    for L in order:
        case += f"WHEN h_{L} = {greatest} THEN '{L}' "
    case += "END"
    return hits, case


# --- PII scrub (curation redaction pass) ----------------------------------

# RE2 patterns — pyarrow's replace/count _regex kernels and DuckDB's
# regexp_* share RE2 semantics, so the SQL twin is exact (same parity
# base as split_pattern_regex above). Kept deliberately simple and
# ASCII-classed: email-shaped tokens and long digit runs (phone/account
# numbers); real deployments would extend the pattern table.
PII_EMAIL = r"[A-Za-z0-9_.+-]+@[A-Za-z0-9-]+(\.[A-Za-z0-9-]+)+"
PII_DIGITS = r"[0-9]{6,}"


def pii_scrub_stage(batch: pa.Table, col: str = "text") -> pa.Table:
    """Redact email addresses then long digit runs (two vectorized RE2
    passes over the whole batch — order matters and is mirrored in the
    SQL twin: digits inside an email are consumed by the email token).
    Appends ``clean_text`` plus integer redaction counts."""
    text = batch.column(col)
    n_email = pc.count_substring_regex(text, PII_EMAIL).cast(pa.int64())
    step1 = pc.replace_substring_regex(text, PII_EMAIL, "<EMAIL>")
    n_num = pc.count_substring_regex(step1, PII_DIGITS).cast(pa.int64())
    clean = pc.replace_substring_regex(step1, PII_DIGITS, "<NUM>")
    out = batch.append_column("clean_text", clean)
    out = out.append_column("n_emails", n_email)
    return out.append_column("n_numbers", n_num)


# --- document fingerprint (rolling hash; not SQL-expressible) ------------

_FP_BASE = np.uint64(257)


def fingerprint_stage(batch: pa.Table, col: str = "text",
                      id_col: str = "doc_id") -> pa.Table:
    """Polynomial rolling hash of the utf-8 bytes, mod 2^64 (numpy
    wraparound): fp = sum(byte[i] * 257^(n-1-i)). One concatenated
    bytes pass over the whole batch — per-position exponents come from
    segment arithmetic and the per-doc sum is a single ``reduceat``
    (no python loop per doc)."""
    # concatenated utf-8 bytes + per-doc lengths straight from the
    # Arrow string buffers (no per-row python strings)
    offsets, all_bytes, _ = binary_offsets_and_data(
        batch.column(col), allow_string=True, name=col)
    lens = np.diff(offsets)
    starts = offsets[:-1] - offsets[0]
    total = int(lens.sum())
    b = all_bytes[offsets[0]:offsets[0] + total].astype(np.uint64)
    if total:
        maxlen = int(lens.max())
        pows = np.ones(maxlen, dtype=np.uint64)
        pows[1:] = _FP_BASE
        np.cumprod(pows, out=pows)  # wraps mod 2^64
        pos = np.arange(total, dtype=np.int64) - np.repeat(starts, lens)
        exp = np.repeat(lens, lens) - 1 - pos
        contrib = b * pows[exp]
        fps = np.zeros(len(lens), dtype=np.uint64)
        nonempty = lens > 0
        red_starts = starts[nonempty]
        if len(red_starts):
            fps[nonempty] = np.add.reduceat(contrib, red_starts)
    else:
        fps = np.zeros(len(lens), dtype=np.uint64)
    return batch.append_column("fingerprint", pa.array(fps.astype(np.int64)))


BPE_TOKEN_PATTERN = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9 \t\n\x0b\f\r]"


def bpe_token_stage(batch: pa.Table, col: str = "text",
                    id_col: str = "doc_id") -> pa.Table:
    """BPE-ish pre-tokenization counts (GPT-2-style split shape: letter
    runs | digit runs | single non-alnum-non-space chars), vectorized
    as ONE pass over the batch's concatenated utf-8 bytes — run starts
    come from shifted class masks, per-doc sums from ``reduceat``.
    Unicode semantics: a non-ASCII char counts as one punct-class token
    (its UTF-8 lead byte >= 0xC0; continuation bytes are ignored),
    exactly what :data:`BPE_TOKEN_PATTERN` yields over str — the
    equivalence vs ``re.findall`` is the pytest oracle, and the DuckDB
    twin evaluates the same pattern via ``regexp_extract_all``.

    Output: id passthrough + ``n_tokens_bpe, n_words, n_numbers,
    n_punct`` (tokens = words + numbers + punct).
    """
    offsets, raw, _ = binary_offsets_and_data(
        batch.column(col), allow_string=True, name=col)
    lens = np.diff(offsets)
    starts = offsets[:-1] - offsets[0]
    total = int(lens.sum())
    b = raw[offsets[0]:offsets[0] + total]

    n = len(lens)
    out = {id_col: batch.column(id_col)}
    if total == 0:
        z = pa.array(np.zeros(n, dtype=np.int64))
        for c in ("n_tokens_bpe", "n_words", "n_numbers", "n_punct"):
            out[c] = z
        return pa.table(out)

    letter = ((b >= 65) & (b <= 90)) | ((b >= 97) & (b <= 122))
    digit = (b >= 48) & (b <= 57)
    ws = (b == 32) | ((b >= 9) & (b <= 13))
    lead_hi = b >= 0xC0          # first byte of a non-ASCII char
    ascii_punct = (b < 0x80) & ~letter & ~digit & ~ws
    doc_start = np.zeros(total, dtype=bool)
    doc_start[starts[lens > 0]] = True
    prev_letter = np.zeros(total, dtype=bool)
    prev_letter[1:] = letter[:-1]
    prev_digit = np.zeros(total, dtype=bool)
    prev_digit[1:] = digit[:-1]
    word_start = letter & (~prev_letter | doc_start)
    num_start = digit & (~prev_digit | doc_start)
    punct = ascii_punct | lead_hi

    def per_doc(flags: np.ndarray) -> np.ndarray:
        res = np.zeros(n, dtype=np.int64)
        nonempty = lens > 0
        if nonempty.any():
            res[nonempty] = np.add.reduceat(flags.astype(np.int64),
                                            starts[nonempty])
        return res

    words, numbers, puncts = per_doc(word_start), per_doc(num_start), \
        per_doc(punct)
    out["n_tokens_bpe"] = pa.array(words + numbers + puncts)
    out["n_words"] = pa.array(words)
    out["n_numbers"] = pa.array(numbers)
    out["n_punct"] = pa.array(puncts)
    return pa.table(out)


# --- batched model inference (actor-pool stage) ---------------------------

class QualityModelStage:
    """Batched "model" inference as an ACTOR-POOL stage — the shape a
    real quality classifier (fastText, a distilled transformer) takes
    in this engine: pass the CLASS to ``map_batches(QualityModelStage,
    concurrency=N, batch_size=B)`` so the checkpoint loads ONCE per
    actor in ``__init__`` (never per batch), and ``__call__`` scores
    whole Arrow batches vectorized. The bundled model is a
    deterministic integer-weight linear head over the quality features
    (weights derived from a fixed seed in ``_load_weights`` — the seam
    where a real checkpoint read goes), so the scores are bit-exact
    under the driver hash; swapping in a real model changes ONLY
    ``_load_weights`` and the dot product.
    """

    #: feature order the head is trained against
    FEATURES = ("n_chars", "n_tokens", "n_punct", "n_digits")

    @staticmethod
    def _load_weights() -> tuple[np.ndarray, int]:
        """Deterministic stand-in for a checkpoint load. The bundled
        head is ``2*n_chars - 11*n_tokens + 7*n_punct - 3*n_digits
        + 5`` — i.e. "keep docs averaging >= 5.5 chars/token, punct
        as a sentence-structure bonus, digit soup penalized" — which
        splits the fixture corpus ~60/40 so the keep flag carries
        signal under the driver hash."""
        return np.array([2, -11, 7, -3], dtype=np.int64), 5

    def __init__(self):
        self.w, self.bias = self._load_weights()

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = quality_stage(batch)
        x = np.stack([feats.column(f).to_numpy(zero_copy_only=False)
                      for f in self.FEATURES], axis=1)
        score = x @ self.w + self.bias
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "score": pa.array(score, pa.int64()),
            "keep": pa.array((score > 0).astype(np.int64)),
        })
