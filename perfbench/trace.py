"""Tracing for the per-layer run (``--trace 1``).

Nothing in the package is edited. Layer metrics come from four places:

- spans the benchmark opens around its own calls into a layer;
- Ray Data's per-operator stats (``Dataset._get_stats_summary()``, a
  private API, read defensively);
- timing wrappers the benchmark puts around public layer functions
  (``extract_stage``, ``assign_pages_fn``, ``ZarrTileStore.write_tile`` and
  ``read_tile``, ``read_records``, ``q_ngram_jaccard``,
  ``connected_components_ds``) and a counting fsspec filesystem (protocol
  ``pbfile``) at the storage boundary. Worker processes install them
  through Ray's ``worker_process_setup_hook``;
- directory walks of the archives a pass wrote.

Worker-side counts go to small memory-mapped files, one per process, in
the directory named by ``TRACE_DIR_VAR``. Recording is on only while the
driver has set the shared ``ctl`` flag, so untraced passes of a traced run
and the output checks are not counted.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import os
import re
import sys
import time

import numpy as np
from fsspec.implementations.local import LocalFileOpener, LocalFileSystem

TRACE_DIR_VAR = "PERFBENCH_TRACE_DIR"
SLOTS = ("extract.pages", "extract.busy_s", "extract.bytes_in",
         "assign.rows", "assign.busy_s", "assign.in_bounds",
         "fs.put", "fs.put_bytes", "fs.get", "fs.get_bytes", "fs.head", "fs.list",
         "fs.delete", "fs.lineage_put", "fs.lineage_get", "fs.lineage_put_bytes",
         "tile.write_n", "tile.tensor_bytes", "tile.read_n")
_IX = {name: i for i, name in enumerate(SLOTS)}
SAMPLES = 16384  # latency samples kept per process and series
HOT_CELL_LIMIT = 16_384  # knn_pipeline's default hot-cell threshold

# every per-layer metric, with its unit; a layer a workload does not touch reads 0
METRICS = {
    "extract.pages": "count", "extract.busy_s": "s", "extract.mb_in": "MiB",
    "assign.rows": "count", "assign.busy_s": "s", "assign.in_bounds_ratio": "1",
    "flagship.map.wall_s": "s", "flagship.map.cpu_s": "s", "flagship.map.mb_out": "MiB",
    "flagship.shuffle.wall_s": "s", "flagship.shuffle.mb": "MiB",
    "flagship.shuffle.blocks": "count", "flagship.writer.groups": "count",
    "flagship.writer.wall_s": "s", "flagship.writer.cpu_s": "s",
    "flagship.writer.keep_ratio": "1", "flagship.tile_skew": "1",
    "zarr.put.count": "count", "zarr.put.mb": "MiB", "zarr.get.count": "count",
    "zarr.get.mb": "MiB", "zarr.head.count": "count", "zarr.list.count": "count",
    "zarr.delete.count": "count", "zarr.write_tile.p50_ms": "ms",
    "zarr.write_tile.p99_ms": "ms", "zarr.read_tile.p50_ms": "ms",
    "zarr.amplification": "1",
    "lineage.write.count": "count", "lineage.read_records.s": "s",
    "lineage.read_records.gets": "count", "lineage.mb": "MiB",
    "audit.tiles": "count", "audit.wall_s": "s", "diff.tiles": "count",
    "diff.changed": "count", "diff.wall_s": "s", "pyramid.levels": "count",
    "pyramid.tiles_written": "count", "pyramid.wall_s": "s",
    "resume.tiles_recomputed": "count", "resume.rows_dropped_ratio": "1",
    "resume.wall_s": "s",
    "pip.points": "count", "pip.matches": "count", "pip.wall_s": "s", "pip.cpu_s": "s",
    "knn.points": "count", "knn.replicated_rows": "count", "knn.shuffle.mb": "MiB",
    "knn.hot_cells": "count", "knn.wall_s": "s", "knn.cpu_s": "s",
    "dedup.docs": "count", "dedup.candidate_pairs": "count",
    "dedup.verified_pairs": "count", "dedup.verify_ratio": "1",
    "dedup.pairs_wall_s": "s", "dedup.cc_wall_s": "s",
    "ray.tasks": "count", "ray.spill_mb": "MiB", "ray.idle_ratio": "1",
}


def walk_files(path: str):
    for dirpath, _dirs, files in os.walk(path):
        for f in files:
            yield os.path.join(dirpath, f)


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(f) for f in walk_files(path))


# --- per-process recorder ------------------------------------------------------------

class _Recorder:
    """This process's counters and latency samples (memory-mapped)."""

    def __init__(self, d: str):
        pid = os.getpid()
        self.ctl = np.memmap(os.path.join(d, "ctl.bin"), np.uint8, "r")
        self.c = np.memmap(os.path.join(d, f"c-{pid}.bin"), np.float64, "w+", shape=(len(SLOTS),))
        self.w = np.memmap(os.path.join(d, f"w-{pid}.bin"), np.float64, "w+", shape=(SAMPLES,))
        self.r = np.memmap(os.path.join(d, f"r-{pid}.bin"), np.float64, "w+", shape=(SAMPLES,))

    def on(self) -> bool:
        return bool(self.ctl[0])

    def add(self, name: str, v: float = 1.0) -> None:
        self.c[_IX[name]] += v

    def sample(self, series: np.memmap, count_slot: str, ms: float) -> None:
        n = int(self.c[_IX[count_slot]])
        series[n % SAMPLES] = ms
        self.c[_IX[count_slot]] = n + 1


_rec: list[_Recorder] = []  # one per process, created by worker_setup()


def _recorder() -> _Recorder | None:
    r = _rec[0] if _rec else None
    return r if r is not None and r.on() else None


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``; the driver calls it too. Opens this
    process's counters, registers the counting filesystem and wraps the
    tile store's read and write."""
    if _rec or not os.environ.get(TRACE_DIR_VAR):
        return
    _rec.append(_Recorder(os.environ[TRACE_DIR_VAR]))
    import fsspec

    from mapchete_xarray_ray.sinks.zarr import ZarrTileStore

    fsspec.register_implementation("pbfile", CountingFileSystem, clobber=True)
    write, read = ZarrTileStore.write_tile, ZarrTileStore.read_tile

    @functools.wraps(write)
    def write_tile(self, tile_row, tile_col, data, *a, **kw):
        r = _recorder()
        if r is None:
            return write(self, tile_row, tile_col, data, *a, **kw)
        t0 = time.perf_counter()
        out = write(self, tile_row, tile_col, data, *a, **kw)
        r.sample(r.w, "tile.write_n", (time.perf_counter() - t0) * 1e3)
        r.add("tile.tensor_bytes", np.asarray(data).nbytes)
        return out

    @functools.wraps(read)
    def read_tile(self, *a, **kw):
        r = _recorder()
        if r is None:
            return read(self, *a, **kw)
        t0 = time.perf_counter()
        out = read(self, *a, **kw)
        r.sample(r.r, "tile.read_n", (time.perf_counter() - t0) * 1e3)
        return out

    ZarrTileStore.write_tile, ZarrTileStore.read_tile = write_tile, read_tile


class _Opener(LocalFileOpener):
    def write(self, data):
        r = _recorder()
        if r is not None:
            r.add("fs.put_bytes", len(data))
            if "/_lineage/" in self.path:
                r.add("fs.lineage_put_bytes", len(data))
        return super().write(data)

    def read(self, *a):
        data = super().read(*a)
        r = _recorder()
        if r is not None:
            r.add("fs.get_bytes", len(data))
        return data


class CountingFileSystem(LocalFileSystem):
    """The local filesystem under protocol ``pbfile://``, counting the
    object-store operations the archive helpers issue."""

    protocol = ("pbfile",)

    def _open(self, path, mode="rb", block_size=None, **kwargs):
        path = self._strip_protocol(path)
        r = _recorder()
        if r is not None:
            lineage = "/_lineage/" in path
            if "r" in mode:
                r.add("fs.get")
                r.add("fs.lineage_get", lineage)
            else:
                r.add("fs.put")
                r.add("fs.lineage_put", lineage)
        if self.auto_mkdir and "r" not in mode:
            self.makedirs(self._parent(path), exist_ok=True)
        return _Opener(path, mode, fs=self, **kwargs)

    def exists(self, path, **kwargs):
        r = _recorder()
        if r is not None:
            r.add("fs.head")
        return super().exists(path, **kwargs)

    def ls(self, path, detail=False, **kwargs):
        r = _recorder()
        if r is not None:
            r.add("fs.list")
        return super().ls(path, detail=detail, **kwargs)

    def rm(self, path, recursive=False, maxdepth=None):
        r = _recorder()
        if r is not None:
            r.add("fs.delete")
        return super().rm(path, recursive=recursive, maxdepth=maxdepth)


# --- driver-side wrappers ---------------------------------------------------------------

_originals: dict[tuple[str, str], object] = {}


def _original(module: str, name: str):
    """The package's own function, looked up before the driver patches it
    (in a worker the module is never patched)."""
    if (module, name) not in _originals:
        import importlib

        _originals[module, name] = getattr(importlib.import_module(module), name)
    return _originals[module, name]


def traced_extract_stage(batch):
    extract_stage = _original("mapchete_xarray_ray.stages.text", "extract_stage")
    r = _recorder()
    if r is None:
        return extract_stage(batch)
    t0 = time.perf_counter()
    out = extract_stage(batch)
    r.add("extract.busy_s", time.perf_counter() - t0)
    r.add("extract.pages", batch.num_rows)
    r.add("extract.bytes_in", batch.column("html").nbytes)
    return out


traced_extract_stage.__name__ = "extract_stage"


def traced_assign_pages_fn(bounds, *a, **kw):
    inner = _original("mapchete_xarray_ray.stages.assign", "assign_pages_fn")(bounds, *a, **kw)
    left, bottom, right, top = (float(v) for v in bounds)

    def fn(batch):
        r = _recorder()
        if r is None:
            return inner(batch)
        t0 = time.perf_counter()
        out = inner(batch)
        r.add("assign.busy_s", time.perf_counter() - t0)
        r.add("assign.rows", batch.num_rows)
        lon = out.column("lon").to_numpy()
        lat = out.column("lat").to_numpy()
        r.add("assign.in_bounds", int(((lon >= left) & (lon <= right)
                                       & (lat >= bottom) & (lat <= top)).sum()))
        return out

    return fn


def _flatten_ops(*summaries) -> list:
    """Operators of stats summaries, upstream datasets first, each operator
    once (a summary repeats the parents it shares with another)."""
    ops, seen = [], set()

    def visit(s) -> None:
        for parent in getattr(s, "parents", None) or []:
            visit(parent)
        for op in getattr(s, "operators_stats", None) or []:
            key = (op.operator_name, getattr(op, "earliest_start_time", id(op)))
            if key not in seen:
                seen.add(key)
                ops.append(op)

    for s in summaries:
        visit(s)
    return ops


def _sum(stat, key: str = "sum") -> float:
    return float((stat or {}).get(key, 0) or 0)


def _parse(op, what: str) -> int:
    m = re.search(rf"(\d+) {what}", getattr(op, "block_execution_summary_str", "") or "")
    return int(m.group(1)) if m else 0


_SHUFFLE = ("Sort", "Shuffle", "Aggregate", "Repartition", "Exchange")


def _is_shuffle(op) -> bool:
    return any(s in op.operator_name for s in _SHUFFLE)


class Tracer:
    """Driver side of one traced run: opens spans, keeps Ray Data stats,
    patches the package's public layer functions for the length of a pass
    and turns everything into the per-layer metrics."""

    def __init__(self, trace_dir: str):
        self.dir = trace_dir
        self.ctl = np.memmap(os.path.join(trace_dir, "ctl.bin"), np.uint8, "r+")
        self.patches: list[tuple[object, str, object]] = []

    # -- pass lifecycle
    def begin(self) -> "Tracer":
        for f in glob.glob(os.path.join(self.dir, "[cwr]-*.bin")):
            np.memmap(f, np.float64, "r+")[:] = 0  # workers are idle between passes
        self.m = {k: 0.0 for k in METRICS}
        self.spans: dict[str, float] = {}
        self.ds_stats: list = []  # stats summaries of every dataset the pass ran
        self.layer_stats: dict[str, object] = {}
        self.rr_s, self.rr_gets = 0.0, 0.0
        self._patch_driver()
        self.ctl[0] = 1
        self.ctl.flush()
        return self

    def stop(self) -> None:
        """End recording: called right after the timed pass, before checks."""
        self.ctl[0] = 0
        self.ctl.flush()
        for owner, name, orig in reversed(self.patches):
            setattr(owner, name, orig)
        self.patches = []
        self.counts = {k: 0.0 for k in SLOTS}
        self.w_ms, self.r_ms = [], []
        for f in glob.glob(os.path.join(self.dir, "c-*.bin")):
            c = np.array(np.memmap(f, np.float64, "r"))
            for k, v in zip(SLOTS, c):
                self.counts[k] += v
            pid = f.rsplit("-", 1)[1]
            for series, slot, acc in (("w", "tile.write_n", self.w_ms), ("r", "tile.read_n", self.r_ms)):
                n = min(int(c[_IX[slot]]), SAMPLES)
                if n:
                    acc.extend(np.memmap(os.path.join(self.dir, f"{series}-{pid}"),
                                         np.float64, "r")[:n].tolist())

    def end(self, wall_s: float, cpu_s: float) -> dict:
        """Per-layer metrics of the pass as {name: [value, unit]}."""
        m, c = self.m, self.counts
        m["extract.pages"] = c["extract.pages"]
        m["extract.busy_s"] = c["extract.busy_s"]
        m["extract.mb_in"] = c["extract.bytes_in"] / 2**20
        m["assign.rows"] = c["assign.rows"]
        m["assign.busy_s"] = c["assign.busy_s"]
        m["assign.in_bounds_ratio"] = c["assign.in_bounds"] / c["assign.rows"] if c["assign.rows"] else 0.0
        if self.w_ms:
            m["zarr.write_tile.p50_ms"] = float(np.percentile(self.w_ms, 50))
            m["zarr.write_tile.p99_ms"] = float(np.percentile(self.w_ms, 99))
        if self.r_ms:
            m["zarr.read_tile.p50_ms"] = float(np.percentile(self.r_ms, 50))
        m["lineage.read_records.s"] = self.rr_s
        m["lineage.read_records.gets"] = self.rr_gets
        ops = _flatten_ops(*self.ds_stats)
        m["ray.tasks"] = sum(_parse(op, "tasks executed") for op in ops)
        m["ray.spill_mb"] = max([float(getattr(s, "global_bytes_spilled", 0) or 0)
                                 for s in self.ds_stats] or [0.0]) / 2**20
        m["ray.idle_ratio"] = 1.0 - cpu_s / wall_s
        return {k: [float(v), METRICS[k]] for k, v in m.items()}

    # -- hooks the workloads call
    def uri(self, path: str) -> str:
        return "pbfile://" + path

    @contextlib.contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans[name] = self.spans.get(name, 0.0) + time.perf_counter() - t0

    def stats(self, layer: str, ds) -> None:
        s = self._summary(ds)
        if s is not None:
            self.layer_stats[layer] = s

    def _summary(self, ds):
        try:
            s = ds._get_stats_summary()
        except Exception:  # private Ray API: a change there costs only metrics
            return None
        self.ds_stats.append(s)
        return s

    def _patch(self, owner, name: str, new) -> None:
        self.patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _patch_everywhere(self, orig, new) -> None:
        """Rebind ``orig`` to ``new`` in every loaded package module that
        holds it (``from x import f`` copies the binding)."""
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("mapchete_xarray_ray"):
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, name, new)

    def _patch_driver(self) -> None:
        import ray

        from mapchete_xarray_ray import collect
        from mapchete_xarray_ray.pipelines import queries
        from mapchete_xarray_ray.stages import assign, dedup, text
        from mapchete_xarray_ray.state import lineage

        tracer = self
        self._patch_everywhere(_original(text.__name__, "extract_stage"), traced_extract_stage)
        self._patch_everywhere(_original(assign.__name__, "assign_pages_fn"), traced_assign_pages_fn)

        collect_table = collect.collect_table

        def traced_collect(res):
            out = collect_table(res)
            if isinstance(res, ray.data.Dataset):
                tracer._summary(res)
            return out

        self._patch_everywhere(collect_table, traced_collect)

        count = ray.data.Dataset.count

        def traced_count(ds):
            n = count(ds)
            tracer._summary(ds)
            return n

        self._patch(ray.data.Dataset, "count", traced_count)

        read_records = lineage.read_records

        def traced_read_records(path):
            r = _recorder()
            g0 = r.c[_IX["fs.lineage_get"]] if r else 0.0
            t0 = time.perf_counter()
            out = read_records(path)
            tracer.rr_s += time.perf_counter() - t0
            tracer.rr_gets += (r.c[_IX["fs.lineage_get"]] - g0) if r else 0.0
            return out

        self._patch_everywhere(read_records, traced_read_records)

        pairs_fn = queries.q_ngram_jaccard

        def traced_pairs(sf_dir):
            t0 = time.perf_counter()
            ds = pairs_fn(sf_dir).materialize()
            tracer.m["dedup.pairs_wall_s"] += time.perf_counter() - t0
            tracer.stats("pairs", ds)
            return ds

        self._patch_everywhere(pairs_fn, traced_pairs)

        cc_fn = dedup.connected_components_ds

        def traced_cc(pairs, *a, **kw):
            t0 = time.perf_counter()
            ds = cc_fn(pairs, *a, **kw).materialize()
            tracer.m["dedup.cc_wall_s"] += time.perf_counter() - t0
            tracer._summary(ds)
            return ds

        self._patch_everywhere(cc_fn, traced_cc)

    # -- per-workload metrics (after the checks; counts are final)
    def _flagship(self, layer: str, summary) -> None:
        s = self.layer_stats.get(layer)
        if s is None:
            return
        m, ops = self.m, _flatten_ops(s)
        maps = [op for op in ops if "compact" in op.operator_name]
        shuffle = [op for op in ops if _is_shuffle(op)]
        writer = ops[-1:]
        for op in maps:
            m["flagship.map.wall_s"] += _sum(op.wall_time)
            m["flagship.map.cpu_s"] += _sum(op.cpu_time)
            m["flagship.map.mb_out"] += _sum(op.output_size_bytes) / 2**20
        for op in shuffle:
            m["flagship.shuffle.wall_s"] += _sum(op.wall_time)
        if shuffle:
            m["flagship.shuffle.mb"] = _sum(shuffle[-1].output_size_bytes) / 2**20
            m["flagship.shuffle.blocks"] = _parse(shuffle[-1], "blocks produced")
        for op in writer:
            m["flagship.writer.wall_s"] += _sum(op.wall_time)
            m["flagship.writer.cpu_s"] += _sum(op.cpu_time)
        n = summary.column("n_pages").to_numpy() if summary.num_rows else np.zeros(0)
        m["flagship.writer.groups"] = len(n)
        rows_in = sum(_sum(op.output_num_rows) for op in maps)
        m["flagship.writer.keep_ratio"] = float(n.sum()) / rows_in if rows_in else 0.0
        m["flagship.tile_skew"] = float(n.max() / np.median(n)) if len(n) else 0.0
        scanned = self.counts["extract.pages"]
        if layer == "resume" and scanned:
            m["resume.rows_dropped_ratio"] = 1.0 - rows_in / scanned

    def _storage_from_fs(self) -> None:
        m, c = self.m, self.counts
        m["zarr.put.count"], m["zarr.put.mb"] = c["fs.put"], c["fs.put_bytes"] / 2**20
        m["zarr.get.count"], m["zarr.get.mb"] = c["fs.get"], c["fs.get_bytes"] / 2**20
        m["zarr.head.count"], m["zarr.list.count"] = c["fs.head"], c["fs.list"]
        m["zarr.delete.count"] = c["fs.delete"]
        m["lineage.write.count"] = c["fs.lineage_put"]
        stored = c["fs.put_bytes"] - c["fs.lineage_put_bytes"]
        m["zarr.amplification"] = stored / c["tile.tensor_bytes"] if c["tile.tensor_bytes"] else 0.0

    def archive_walk(self, path: str, summary) -> None:
        """tile_build: a fresh local archive, so a walk after the pass sees
        every object the pass put (reads, LISTs and deletes are not seen)."""
        self._flagship("flagship", summary)
        files = list(walk_files(path))
        lin = [f for f in files if "/_lineage/" in f]
        chunks = [f for f in files if "/_lineage/" not in f and not os.path.basename(f).startswith(".")]
        m = self.m
        m["zarr.put.count"] = len(files)
        m["zarr.put.mb"] = sum(os.path.getsize(f) for f in files) / 2**20
        m["lineage.write.count"] = len(lin)
        m["lineage.mb"] = sum(os.path.getsize(f) for f in lin) / 2**20
        tensor = self.counts["tile.tensor_bytes"]
        m["zarr.amplification"] = sum(os.path.getsize(f) for f in chunks) / tensor if tensor else 0.0

    def archive_ops(self, out: dict, archives: list[str]) -> None:
        """``archives``: the refreshed archive and its overview levels."""
        self._flagship("resume", out["summary"])
        self._storage_from_fs()
        m, sp = self.m, self.spans
        m["audit.tiles"], m["audit.wall_s"] = out["audit"]["tiles"], sp.get("audit", 0.0)
        m["diff.tiles"], m["diff.changed"] = out["diff_tiles"], len(out["changed"])
        m["diff.wall_s"] = sp.get("diff", 0.0)
        m["pyramid.levels"] = len(out["levels"])
        m["pyramid.tiles_written"] = sum(lv["tiles_written"] for lv in out["levels"])
        m["pyramid.wall_s"] = sp.get("pyramid", 0.0)
        m["resume.tiles_recomputed"] = out["summary"].num_rows
        m["resume.wall_s"] = sp.get("resume", 0.0)
        m["lineage.mb"] = sum(dir_bytes(os.path.join(p, "_lineage")) for p in archives) / 2**20

    def spatial(self, out: dict, n_points: int, cells: np.ndarray) -> None:
        m, sp = self.m, self.spans
        m["pip.points"], m["pip.matches"] = n_points, out["pip"].num_rows
        m["pip.wall_s"] = sp.get("pip", 0.0)
        m["pip.cpu_s"] = sum(_sum(op.cpu_time) for op in _flatten_ops(self.layer_stats.get("pip")))
        m["knn.points"] = n_points
        m["knn.wall_s"] = sp.get("knn", 0.0)
        pip_ops = {id(op) for op in _flatten_ops(self.layer_stats.get("pip"))}
        knn_ops = [op for op in _flatten_ops(*self.ds_stats) if id(op) not in pip_ops]
        m["knn.cpu_s"] = sum(_sum(op.cpu_time) for op in knn_ops)
        # candidates plus replicated queries: the rows entering the first
        # cell exchange, the repartition right after the union of both
        names = [op.operator_name for op in knn_ops]
        for i, name in enumerate(names[:-1]):
            if name.startswith("UnionOperator") and names[i + 1].startswith("Repartition"):
                m["knn.replicated_rows"] = _sum(knn_ops[i + 1].output_num_rows)
                break
        m["knn.shuffle.mb"] = sum(_sum(op.output_size_bytes) for op in knn_ops
                                  if op.operator_name.endswith("Reduce")) / 2**20
        _, counts = np.unique(cells, return_counts=True)
        m["knn.hot_cells"] = int((counts > HOT_CELL_LIMIT).sum())

    def dedup(self, docs: int) -> None:
        m = self.m
        m["dedup.docs"] = docs
        ops = _flatten_ops(self.layer_stats.get("pairs"))
        score = [i for i, op in enumerate(ops) if "score" in op.operator_name]
        if score:
            i = score[-1]
            m["dedup.verified_pairs"] = _sum(ops[i].output_num_rows)
            m["dedup.candidate_pairs"] = _sum(ops[i - 1].output_num_rows) if i else 0.0
        if m["dedup.candidate_pairs"]:
            m["dedup.verify_ratio"] = m["dedup.verified_pairs"] / m["dedup.candidate_pairs"]


class NullTracer:
    """Untraced passes: every hook is a no-op."""

    def uri(self, path: str) -> str:
        return "file://" + path

    @contextlib.contextmanager
    def span(self, name: str):
        yield

    def stats(self, layer: str, ds) -> None:
        pass


NULL = NullTracer()
