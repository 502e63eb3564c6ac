"""Deterministic synthetic fixtures (FIXTURES.md F1/F2).

``pages`` table — the BASELINE.json ``input_hint`` shape:
``(url:string, warc_ts:timestamp[us], html:binary, text:string,
lang:string)``. Hosts are Zipf-skewed with one "hot host"; the
url-hash geocode still spreads its pages over every tile. ``text`` is
the ground-truth extraction of ``html`` (computed with the shared
kernel, mapchete_xarray_ray.functions.extract).

``regions`` table — polygon side of the PIP join: tile-aligned
rectangles plus convex/concave polygons straddling tile boundaries and
sharing edges (exercises the documented boundary tie rule).

Everything is seeded; no external data, no network.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from mapchete_xarray_ray.functions.extract import extract_text
from mapchete_xarray_ray.grid import Bounds, TilePyramid

DEFAULT_BOUNDS = Bounds(-180.0, 45.0, -135.0, 90.0)  # output_3d.mapchete bounds
DEFAULT_ZOOM = 5

# warc_ts steps mirror the 5-step time fixture shape of the reference
# (tests/testdata/s2_stack.mapchete time.steps)
TIME_STEPS = np.array(
    ["2022-06-01", "2022-06-04", "2022-06-06", "2022-06-09", "2022-06-11"],
    dtype="datetime64[us]",
)

_LANGS = ["en", "de", "fr", "xx"]

_PARA_WORDS = [
    "the quick brown fox jumps over a lazy dog while seven wizards brew",
    "data pipelines stream tiles across nodes and shuffle keys stay balanced",
    "ein kleiner Text mit Umlauten äöü und etwas mehr Inhalt",
    "la pipeline traite des pages web avec des tuiles et des cellules",
    "numbers 0123456789 and punctuation ,.;:!? appear here too",
]


def _make_html(i: int, host: str, lang: str) -> bytes:
    """Deterministic, nontrivial HTML: title, paragraphs, links, script,
    style, comments and entities — extraction is exactly specified by the
    shared kernel."""
    p1 = _PARA_WORDS[i % len(_PARA_WORDS)]
    p2 = _PARA_WORDS[(i * 3 + 1) % len(_PARA_WORDS)]
    html = (
        f"<html><head><title>Page {i} on {host}</title>"
        f"<style>body {{ color: #{i % 1000:03d}; }}</style>"
        f"<script>var x = {i}; if (x &lt; 2) {{}}</script></head>"
        f"<body><!-- comment {i} --><h1>Heading &amp; {i}</h1>"
        f"<p lang=\"{lang}\">{p1} &mdash; token{i}</p>"
        f"<div><a href=\"/l{i}\">link &lt;{i}&gt;</a> and &#8364; plus &#x2603;</p></div>"
        f"<p>{p2}</p><ul><li>item one</li><li>item {i % 7}</li></ul>"
        f"</body></html>"
    )
    return html.encode("utf-8")


def make_pages(
    n: int = 500,
    seed: int = 42,
    n_hosts: int = 50,
    hot_frac: float = 0.2,
    dup_frac: float = 0.05,
) -> pa.Table:
    """Synthesize the pages table.

    ``hot_frac`` of rows land on host 0 (the Zipf head) — host skew in
    the URL distribution, mirroring Common-Crawl's head-heavy hosts.
    The url-hash geocode spreads points uniformly regardless, so host
    skew makes no hot tile; kNN's hot-cell salting is tested on planted
    points instead (tests/test_skew.py). ``dup_frac`` of rows are exact
    re-crawls (same url + html, later warc_ts) for dedup tests.
    """
    rng = np.random.default_rng(seed)
    # Zipf-skewed host choice
    ranks = np.arange(1, n_hosts + 1, dtype=np.float64)
    probs = 1.0 / ranks
    probs /= probs.sum()
    hosts_idx = rng.choice(n_hosts, size=n, p=probs)
    # force the hot fraction onto host 0
    hot = rng.random(n) < hot_frac
    hosts_idx[hot] = 0

    urls, htmls, texts, langs, ts = [], [], [], [], []
    for i in range(n):
        host = f"h{hosts_idx[i]:03d}.example"
        lang = _LANGS[i % len(_LANGS)]
        url = f"https://{host}/p/{i:06d}"
        html = _make_html(i, host, lang)
        urls.append(url)
        htmls.append(html)
        texts.append(extract_text(html))
        langs.append(lang)
        ts.append(TIME_STEPS[i % len(TIME_STEPS)])

    # exact re-crawls: duplicate url+html with a later timestamp
    n_dup = int(n * dup_frac)
    dup_src = rng.choice(n, size=n_dup, replace=False)
    for j in dup_src:
        urls.append(urls[j])
        htmls.append(htmls[j])
        texts.append(texts[j])
        langs.append(langs[j])
        ts.append(TIME_STEPS[-1])

    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(np.array(ts, dtype="datetime64[us]")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )


def write_pages(path: str, n: int = 500, seed: int = 42, num_files: int = 4, **kw) -> str:
    """Write the pages table as ``num_files`` parquet fragments under
    ``path`` (resumable-input layout: one fragment = one lineage unit)."""
    os.makedirs(path, exist_ok=True)
    t = make_pages(n=n, seed=seed, **kw)
    rows = t.num_rows
    per = (rows + num_files - 1) // num_files
    for f in range(num_files):
        lo = f * per
        if lo >= rows:
            break
        pq.write_table(t.slice(lo, per), os.path.join(path, f"pages-{f:04d}.parquet"))
    return path


def make_regions(
    bounds: Bounds = DEFAULT_BOUNDS,
    zoom: int = DEFAULT_ZOOM,
    pyramid: TilePyramid | None = None,
) -> pa.Table:
    """Polygon table for the PIP join (FIXTURES.md F2).

    Mix of tile-aligned rectangles (two sharing an edge — exercises the
    lowest-region_id tie rule), a convex pentagon and a concave
    L-shape straddling tile boundaries. Rings are closed (first ==
    last), exterior only, stored as list<list<float64 x 2>>.
    """
    pyramid = pyramid or TilePyramid("geodetic")
    ts = pyramid.tile_x_size(zoom)  # 5.625 at z5
    x0, y1 = bounds.left, bounds.top
    rings = []
    # 0: one full tile (row 1, col 1 of the region)
    rings.append([(x0 + ts, y1 - 2 * ts), (x0 + 2 * ts, y1 - 2 * ts),
                  (x0 + 2 * ts, y1 - ts), (x0 + ts, y1 - ts), (x0 + ts, y1 - 2 * ts)])
    # 1: rectangle sharing its left edge with region 0's right edge
    rings.append([(x0 + 2 * ts, y1 - 2 * ts), (x0 + 3.5 * ts, y1 - 2 * ts),
                  (x0 + 3.5 * ts, y1 - ts), (x0 + 2 * ts, y1 - ts), (x0 + 2 * ts, y1 - 2 * ts)])
    # 2: rectangle spanning 2x2 tiles (straddles tile boundaries)
    rings.append([(x0 + 4.5 * ts, y1 - 5.5 * ts), (x0 + 6.5 * ts, y1 - 5.5 * ts),
                  (x0 + 6.5 * ts, y1 - 3.5 * ts), (x0 + 4.5 * ts, y1 - 3.5 * ts),
                  (x0 + 4.5 * ts, y1 - 5.5 * ts)])
    # 3: convex pentagon
    cx, cy = x0 + 5.5 * ts, y1 - 1.5 * ts
    rings.append([(cx - ts, cy - 0.4 * ts), (cx, cy - ts), (cx + ts, cy - 0.4 * ts),
                  (cx + 0.6 * ts, cy + ts), (cx - 0.6 * ts, cy + ts), (cx - ts, cy - 0.4 * ts)])
    # 4: concave L-shape straddling tiles
    ax, ay = x0 + 1.0 * ts, y1 - 6.5 * ts
    rings.append([(ax, ay), (ax + 2 * ts, ay), (ax + 2 * ts, ay + 0.8 * ts),
                  (ax + 0.8 * ts, ay + 0.8 * ts), (ax + 0.8 * ts, ay + 2 * ts),
                  (ax, ay + 2 * ts), (ax, ay)])
    # 5: overlaps region 1 partially (tie-rule coverage on interior overlap)
    rings.append([(x0 + 3.0 * ts, y1 - 2.5 * ts), (x0 + 4.0 * ts, y1 - 2.5 * ts),
                  (x0 + 4.0 * ts, y1 - 1.5 * ts), (x0 + 3.0 * ts, y1 - 1.5 * ts),
                  (x0 + 3.0 * ts, y1 - 2.5 * ts)])

    region_ids = list(range(len(rings)))
    names = [f"region_{i}" for i in region_ids]
    ring_arr = pa.array(
        [[[float(x), float(y)] for (x, y) in ring] for ring in rings],
        pa.list_(pa.list_(pa.float64())),
    )
    return pa.table({
        "region_id": pa.array(region_ids, pa.int64()),
        "name": pa.array(names, pa.string()),
        "ring_xy": ring_arr,
    })
