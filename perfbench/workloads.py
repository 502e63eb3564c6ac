"""The four workloads. Each one builds its cached inputs (untimed), prepares
a session (timed as set-up), runs one timed pass through the package's
public entry points, checks the pass output against an oracle that does not
use the engine, and reports the pass's per-layer metrics when traced.

Load is one closed loop in the Ray driver process: one operation at a time,
each waiting for the previous one.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from perfbench import inputs
from perfbench.trace import NULL, dir_bytes

# Sizes are set so that one run (three Ray set-ups plus the timed passes)
# takes about half a minute; see NOTES.md.
TB_PAGES, TB_ZOOM = 20_000, 6  # tile_build: 256 tiles
AO_PAGES, AO_ZOOM, AO_LEVELS = 5_000, 5, 2  # archive_ops: 64 tiles, overviews z4, z3
AO_CHANGED = 0.1  # share of tiles that differ in the previous generation
SJ_PAGES, SJ_K, SJ_SAMPLE = 12_000, 3, 200  # points, neighbours, points checked by brute force
ND_BASE, ND_REPLICAS = 1000, 5  # cliques of 5: pair generation dominates the pass
READ_BLOCKS = 4
READ_COLUMNS = ["url", "warc_ts", "html", "lang"]
TIME_CFG = {"steps": [str(t) for t in inputs.TIME_STEPS], "chunksize": 2}


def _collect(ds, tr, layer):
    from mapchete_xarray_ray.collect import collect_table

    out = collect_table(ds)
    tr.stats(layer, ds)
    return out


def _read_pages(d: str):
    return ray.data.read_parquet(inputs.page_files(d), columns=READ_COLUMNS,
                                 override_num_blocks=READ_BLOCKS)


class Workload:
    name = ""

    def __init__(self, work: str, run_dir: str, seed: int):
        self.work, self.run_dir, self.seed = work, run_dir, seed

    def build(self) -> None:
        """Build cached inputs and oracle results (untimed)."""

    def prepare(self) -> None:
        """Per-session preparation; timed as part of set-up."""

    def reset(self) -> None:
        """Untimed preparation before every pass after the first."""

    def run(self, tr=NULL):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def corrupt(self, out):
        """A deliberately wrong copy of ``out`` (harness self-test)."""
        raise NotImplementedError

    def rows(self) -> int:
        raise NotImplementedError

    def output_mb(self, out) -> float:
        raise NotImplementedError

    def layers(self, out, tr) -> None:
        """Hand the pass's workload-specific per-layer values to the tracer."""
        raise NotImplementedError


# --- tile_build -------------------------------------------------------------------

class TileBuild(Workload):
    """Flagship build of a fresh z6 archive on a local path."""

    name = "tile_build"

    def build(self) -> None:
        self.pages = inputs.pages_dir(self.work, self.seed, TB_PAGES)
        unique = pq.read_table(os.path.join(self.pages, "unique.parquet"))
        self.oracle = inputs.tile_oracle(unique, TB_ZOOM)
        self.n_rows = sum(pq.ParquetFile(f).metadata.num_rows
                          for f in inputs.page_files(self.pages))
        self.out = os.path.join(self.run_dir, "tile_build.zarr")

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    reset = prepare

    def rows(self) -> int:
        return self.n_rows

    def run(self, tr=NULL):
        from mapchete_xarray_ray.pipelines.flagship import default_spec, run_pipeline

        spec = default_spec(self.out, zoom=TB_ZOOM)
        ds = run_pipeline(_read_pages(self.pages), spec, mode="overwrite",
                          repartition_blocks=0)
        return _collect(ds, tr, "flagship")

    def check(self, out) -> list[str]:
        from mapchete_xarray_ray.sinks.zarr import ZarrTileStore
        from mapchete_xarray_ray.sources.zarr_input import spec_from_archive

        got = dict(zip(out.column("tile_id").to_pylist(), out.column("n_pages").to_pylist()))
        want = {t: v[0] for t, v in self.oracle.items()}
        errs = []
        if got != want:
            bad = sorted(set(got.items()) ^ set(want.items()))[:3]
            errs.append(f"per-tile page counts differ from the oracle, e.g. {bad}")
        # read a fixed sample of tiles back from the archive: the three band
        # sums are the tile's pages, English pages and long-text pages
        store = ZarrTileStore(spec_from_archive(self.out))
        rng = np.random.default_rng(self.seed)
        ids = sorted(want)
        rows = dict(zip(out.column("tile_id").to_pylist(),
                        zip(out.column("tile_row").to_pylist(), out.column("tile_col").to_pylist())))
        for t in rng.choice(ids, size=min(8, len(ids)), replace=False).tolist():
            if t not in rows:
                continue
            sums = tuple(int(s) for s in store.read_tile(*rows[t]).reshape(3, -1).sum(axis=1))
            if sums != self.oracle[t]:
                errs.append(f"tile {t}: band sums {sums} != oracle {self.oracle[t]}")
        return errs

    def corrupt(self, out):
        n = out.column("n_pages").to_numpy().copy()
        n[0] += 1
        return out.set_column(out.schema.get_field_index("n_pages"), "n_pages", pa.array(n))

    def output_mb(self, out) -> float:
        return dir_bytes(self.out) / 2**20

    def layers(self, out, tr) -> None:
        tr.archive_walk(self.out, out)


# --- archive_ops ------------------------------------------------------------------

class ArchiveOps(Workload):
    """Audit, refresh against a previous generation, and overviews of a
    time-axis archive addressed by an fsspec URI."""

    name = "archive_ops"

    def build(self) -> None:
        from mapchete_xarray_ray.collect import collect_table
        from mapchete_xarray_ray.grid import unpack_tile_id
        from mapchete_xarray_ray.pipelines.flagship import default_spec, run_pipeline
        from mapchete_xarray_ray.sinks.zarr import ZarrTileStore
        from mapchete_xarray_ray.sources.zarr_input import spec_from_archive

        self.pages = inputs.pages_dir(self.work, self.seed, AO_PAGES)

        def build(d: str) -> None:
            cur = os.path.join(d, "cur.zarr")
            collect_table(run_pipeline(_read_pages(self.pages),
                                       default_spec(cur, zoom=AO_ZOOM, time=TIME_CFG),
                                       mode="overwrite"))
            prev = os.path.join(d, "prev.zarr")
            shutil.copytree(cur, prev)
            store = ZarrTileStore(spec_from_archive(prev))
            tiles = sorted(store.existing_tiles())
            rng = np.random.default_rng(self.seed)
            n = max(1, round(len(tiles) * AO_CHANGED))
            planted = sorted(tiles[i] for i in rng.choice(len(tiles), size=n, replace=False))
            for r, c in planted:
                arr = store.read_tile(r, c)
                arr[0, 0, 0, 0] += 1
                store.write_tile(r, c, arr, timestamps=store.spec.timestamps, assume_fresh=True)
            with open(os.path.join(d, "planted.json"), "w") as f:
                json.dump({"tiles": [list(t) for t in tiles],
                           "planted": [list(t) for t in planted]}, f)

        self.cache = inputs.cached(self.work, "archive", self.seed, AO_PAGES, build)
        with open(os.path.join(self.cache, "planted.json")) as f:
            meta = json.load(f)
        self.tiles = [tuple(t) for t in meta["tiles"]]
        self.planted = [tuple(t) for t in meta["planted"]]
        unique = pq.read_table(os.path.join(self.pages, "unique.parquet"))
        self.n_unique = unique.num_rows
        # the archive is built by the engine; its tile set must match the reference
        tids = np.array(sorted(inputs.tile_oracle(unique, AO_ZOOM)), dtype=np.int64)
        _z, rows, cols = unpack_tile_id(tids)
        self.oracle_tiles = sorted(zip(rows.tolist(), cols.tolist()))
        self.cur = os.path.join(self.run_dir, "ops.zarr")

    def prepare(self) -> None:
        for p in walk_overviews(self.cur, AO_ZOOM, AO_LEVELS):
            shutil.rmtree(p, ignore_errors=True)
        shutil.copytree(os.path.join(self.cache, "cur.zarr"), self.cur)

    reset = prepare

    def rows(self) -> int:
        return len(self.tiles)

    def run(self, tr=NULL):
        from mapchete_xarray_ray.pipelines.audit import audit_summary
        from mapchete_xarray_ray.pipelines.diff import archive_diff_ds
        from mapchete_xarray_ray.pipelines.flagship import run_pipeline
        from mapchete_xarray_ray.pipelines.pyramid import run_pyramid_chain
        from mapchete_xarray_ray.sources.zarr_input import spec_from_archive
        from mapchete_xarray_ray.state.lineage import invalidate_tiles

        cur, prev = tr.uri(self.cur), tr.uri(os.path.join(self.cache, "prev.zarr"))
        with tr.span("audit"):
            audit = audit_summary(cur)
        with tr.span("diff"):
            diff = _collect(archive_diff_ds(cur, prev), tr, "diff")
        chg = diff.filter(pc.equal(diff.column("changed"), 1))
        changed = sorted(zip(chg.column("tile_row").to_pylist(), chg.column("tile_col").to_pylist()))
        with tr.span("resume"):
            spec = spec_from_archive(cur)
            invalidated = invalidate_tiles(cur, [(spec.zoom, r, c) for r, c in changed])
            summary = _collect(run_pipeline(_read_pages(self.pages), spec, mode="continue"),
                               tr, "resume")
        with tr.span("pyramid"):
            levels = run_pyramid_chain(cur, min_zoom=AO_ZOOM - AO_LEVELS)
        return {"audit": audit, "diff_tiles": diff.num_rows, "changed": changed,
                "invalidated": invalidated, "summary": summary, "levels": levels}

    def check(self, out) -> list[str]:
        from mapchete_xarray_ray.sinks.zarr import ZarrTileStore
        from mapchete_xarray_ray.sources.zarr_input import spec_from_archive

        errs = []
        if self.tiles != self.oracle_tiles:
            errs.append(f"the pristine archive holds {len(self.tiles)} tiles, "
                        f"the reference assigns pages to {len(self.oracle_tiles)}")
        audit = out["audit"]
        if not audit["ok"] or audit["tiles"] != len(self.tiles):
            errs.append(f"audit of the pristine archive: {audit['counts']} over {audit['tiles']} tiles")
        if out["changed"] != self.planted:
            errs.append(f"diff found {out['changed'][:5]}, planted {self.planted[:5]}")
        if out["invalidated"] != len(self.planted):
            errs.append(f"invalidated {out['invalidated']} records, planted {len(self.planted)}")
        s = out["summary"]
        redone = sorted(zip(s.column("tile_row").to_pylist(), s.column("tile_col").to_pylist())) \
            if s.num_rows else []
        if redone != self.planted:
            errs.append(f"resume recomputed {redone[:5]}, planted {self.planted[:5]}")
        # the recomputed tiles must reproduce the pristine writer's bytes
        with_ids = {(r, c): cs for r, c, cs in zip(*(s.column(k).to_pylist() for k in (
            "tile_row", "tile_col", "checksum")))} if s.num_rows else {}
        for (r, c), cs in with_ids.items():
            rec = os.path.join(self.cache, "cur.zarr", "_lineage", f"{AO_ZOOM}-{r}-{c}.json")
            with open(rec) as f:
                if json.load(f)["checksum"] != cs:
                    errs.append(f"tile {(r, c)} recomputed with another checksum")
        want = [len({(r >> k, c >> k) for r, c in self.tiles}) for k in range(1, AO_LEVELS + 1)]
        got = [lv["tiles_written"] for lv in out["levels"]]
        if got != want:
            errs.append(f"overview tiles per level {got}, expected {want}")
        elif out["levels"]:
            top = out["levels"][-1]["path"].split("://", 1)[-1]
            store = ZarrTileStore(spec_from_archive(top))
            total = sum(int(store.read_tile(r, c)[0].sum()) for r, c in store.existing_tiles())
            if total != self.n_unique:
                errs.append(f"coarsest overview counts {total} pages, expected {self.n_unique}")
        return errs

    def corrupt(self, out):
        return dict(out, changed=out["changed"][1:])

    def output_mb(self, out) -> float:
        return sum(dir_bytes(p) for p in walk_overviews(self.cur, AO_ZOOM, AO_LEVELS)) / 2**20

    def layers(self, out, tr) -> None:
        tr.archive_ops(out, walk_overviews(self.cur, AO_ZOOM, AO_LEVELS))


def walk_overviews(cur: str, zoom: int, levels: int) -> list[str]:
    """The archive and the overview levels ``run_pyramid_chain`` writes."""
    base = cur.removesuffix(".zarr")
    return [cur] + [f"{base}_z{z}.zarr" for z in range(zoom - 1, zoom - levels - 1, -1)]


# --- spatial_join ----------------------------------------------------------------

class SpatialJoin(Workload):
    """Point-in-polygon and exact kNN over geocoded page points."""

    name = "spatial_join"

    def build(self) -> None:
        pages = inputs.pages_dir(self.work, self.seed, SJ_PAGES)
        self.points = inputs.points_dir(self.work, self.seed, SJ_PAGES, pages)
        self.n_points = pq.ParquetFile(os.path.join(self.points, "points.parquet")).metadata.num_rows
        pip = pq.read_table(os.path.join(self.points, "oracle_pip.parquet"))
        self.oracle_pip = set(zip(pip.column("url").to_pylist(), pip.column("region_id").to_pylist()))

    def rows(self) -> int:
        return self.n_points

    def _geo(self):
        from mapchete_xarray_ray.fixtures import DEFAULT_BOUNDS
        from mapchete_xarray_ray.stages.assign import assign_pages_fn

        ds = ray.data.read_parquet(os.path.join(self.points, "points.parquet"),
                                   override_num_blocks=READ_BLOCKS)
        return ds.map_batches(assign_pages_fn(DEFAULT_BOUNDS, inputs.SJ_ZOOM), batch_format="pyarrow")

    def run(self, tr=NULL):
        from mapchete_xarray_ray.fixtures import make_regions
        from mapchete_xarray_ray.stages.join import PIPJoiner
        from mapchete_xarray_ray.stages.knn import knn_pipeline

        with tr.span("pip"):
            # a joiner instance is a plain callable: it runs in tasks with the
            # polygons shipped along, not in an actor pool whose start-up would
            # dominate (and add noise to) a pass this small
            pip = self._geo().map_batches(PIPJoiner(make_regions()), batch_format="pyarrow")
            pip = _collect(pip, tr, "pip").select(["url", "region_id"])
        with tr.span("knn"):
            cols, rows, span, left, top = knn_grid()
            pts = self._geo().map_batches(_knn_points(left, top), batch_format="pyarrow")
            knn = _collect(knn_pipeline(pts, k=SJ_K, cell_span=span, ncols=cols, nrows=rows),
                           tr, "knn")
        return {"pip": pip, "knn": knn}

    def check(self, out) -> list[str]:
        from mapchete_xarray_ray.fixtures import DEFAULT_BOUNDS
        from mapchete_xarray_ray.functions.geocode import geocode_url, stable_hash64
        from mapchete_xarray_ray.grid import TilePyramid

        errs = []
        pip = out["pip"]
        got = set(zip(pip.column("url").to_pylist(), pip.column("region_id").to_pylist()))
        if got != self.oracle_pip or pip.num_rows != len(self.oracle_pip):
            errs.append(f"PIP: {len(got ^ self.oracle_pip)} (url, region) rows differ from the oracle")
        urls = pq.read_table(os.path.join(self.points, "points.parquet")).column("url")
        urls = urls.to_numpy(zero_copy_only=False)
        lon, lat = geocode_url(urls, DEFAULT_BOUNDS, inputs.SJ_ZOOM, TilePyramid("geodetic"))
        _c, _r, _s, left, top = knn_grid()
        x, y = lon - left, top - lat
        self.cells = (y // _s).astype(np.int64) * _c + (x // _s).astype(np.int64)
        ids = stable_hash64(urls).astype(np.int64)
        sample = np.random.default_rng(self.seed).choice(len(ids), size=SJ_SAMPLE, replace=False)
        want = inputs.knn_oracle(x, y, ids, sample, SJ_K)
        knn = out["knn"]
        if knn.num_rows != SJ_K * len(ids):
            errs.append(f"kNN: {knn.num_rows} rows, expected {SJ_K * len(ids)}")
        mask = pc.is_in(knn.column("id"), value_set=pa.array(list(want), pa.int64()))
        sub = knn.filter(mask).sort_by([("id", "ascending"), ("rank", "ascending")])
        got_knn: dict[int, list] = {}
        for i, nb, d2 in zip(*(sub.column(k).to_pylist() for k in ("id", "neighbor_id", "dist2"))):
            got_knn.setdefault(i, []).append((nb, d2))
        for i, nbs in want.items():
            g = got_knn.get(i, [])
            if [n for n, _ in g] != [n for n, _ in nbs] or not np.allclose(
                    [d for _, d in g], [d for _, d in nbs], rtol=1e-12, atol=0):
                errs.append(f"kNN of {i}: {g} != oracle {nbs}")
                break
        return errs

    def corrupt(self, out):
        pip = out["pip"]
        rid = pip.column("region_id").to_numpy().copy()
        rid[0] += 1
        return dict(out, pip=pip.set_column(1, "region_id", pa.array(rid)))

    def output_mb(self, out) -> float:
        return (out["pip"].nbytes + out["knn"].nbytes) / 2**20

    def layers(self, out, tr) -> None:
        tr.spatial(out, self.n_points, self.cells)


def knn_grid():
    """(columns, rows, cell span, left, top): one kNN cell per z5 tile."""
    from mapchete_xarray_ray.fixtures import DEFAULT_BOUNDS
    from mapchete_xarray_ray.grid import TilePyramid

    span = TilePyramid("geodetic").tile_x_size(inputs.SJ_ZOOM)
    b = DEFAULT_BOUNDS
    return (round((b.right - b.left) / span), round((b.top - b.bottom) / span), span,
            b.left, b.top)


def _knn_points(left: float, top: float):
    def fn(batch: pa.Table) -> pa.Table:
        from mapchete_xarray_ray.functions.geocode import stable_hash64

        urls = batch.column("url").to_numpy(zero_copy_only=False)
        return pa.table({
            "id": pa.array(stable_hash64(urls).astype(np.int64)),
            "x": pa.array(batch.column("lon").to_numpy() - left),
            "y": pa.array(top - batch.column("lat").to_numpy()),
        })

    return fn


# --- near_dup ---------------------------------------------------------------------

class NearDup(Workload):
    """``dedup_canonical`` over a corpus of near-duplicate cliques."""

    name = "near_dup"

    def build(self) -> None:
        self.corpus = inputs.corpus_dir(self.work, self.seed, ND_BASE, ND_REPLICAS)
        with open(os.path.join(self.corpus, "oracle_keep.json")) as f:
            self.keep = json.load(f)

    def rows(self) -> int:
        return ND_BASE * ND_REPLICAS

    def run(self, tr=NULL):
        from mapchete_xarray_ray.pipelines.queries import REGISTRY

        return _collect(REGISTRY["dedup_canonical"][0](self.corpus), tr, "dedup")

    def check(self, out) -> list[str]:
        got = sorted(out.column("doc_id").to_pylist()) if out.num_rows else []
        if got != self.keep:
            return [f"kept {len(got)} docs, the oracle keeps {len(self.keep)}"]
        return []

    def corrupt(self, out):
        return out.slice(1)

    def output_mb(self, out) -> float:
        return out.nbytes / 2**20

    def layers(self, out, tr) -> None:
        tr.dedup(self.rows())


WORKLOADS = {w.name: w for w in (TileBuild, ArchiveOps, SpatialJoin, NearDup)}
