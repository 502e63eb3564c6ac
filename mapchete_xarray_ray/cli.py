"""CLI — the ``mapchete execute`` equivalent.

    python -m mapchete_xarray_ray.cli execute job.json [--overwrite]
    python -m mapchete_xarray_ray.cli pyramid SRC.zarr DST.zarr [--max]

``job.json`` mirrors the ``.mapchete`` YAML keys (JobSpec fields) plus
``"input": {"path": <pages parquet path/dir>}``. This module owns a
Ray session (scripts do); the library never calls ray.init.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None):
    p = argparse.ArgumentParser(prog="mapchete_xarray_ray")
    sub = p.add_subparsers(dest="cmd", required=True)
    ex = sub.add_parser("execute", help="run the tile pipeline from a job spec")
    ex.add_argument("spec", help="path to job spec JSON")
    ex.add_argument("--overwrite", action="store_true",
                    help="recompute all tiles (default: continue mode)")
    ex.add_argument("--num-cpus", type=int, default=None)
    py = sub.add_parser("pyramid", help="build zoom-1 from an existing archive")
    py.add_argument("src")
    py.add_argument("dst")
    py.add_argument("--how", choices=["sum", "max"], default="sum")
    py.add_argument("--num-cpus", type=int, default=None)
    ov = sub.add_parser("overviews",
                        help="chain pyramid steps down to --min-zoom "
                             "(writes <src>_z<N>.zarr next to src)")
    ov.add_argument("src")
    ov.add_argument("--min-zoom", type=int, required=True)
    ov.add_argument("--how", choices=["sum", "max"], default="sum")
    ov.add_argument("--num-cpus", type=int, default=None)
    exp = sub.add_parser(
        "export",
        help="curate a documents parquet (lang-ID, quality filter, exact "
             "dedup, deterministic sample) and write resumable "
             "lang-partitioned parquet")
    exp.add_argument("src", help="documents parquet path/dir")
    exp.add_argument("dst", help="output directory (hive partitions)")
    exp.add_argument("--overwrite", action="store_true",
                     help="rewrite all partitions (default: continue mode "
                          "skips complete ones)")
    exp.add_argument("--num-cpus", type=int, default=None)
    df = sub.add_parser(
        "diff",
        help="byte-compare two archive generations tile by tile "
             "(incremental recompute: feed the changed list back into "
             "execute's work selection)")
    df.add_argument("current")
    df.add_argument("previous")
    df.add_argument("--num-cpus", type=int, default=None)
    inv = sub.add_parser(
        "invalidate",
        help="drop lineage records for tiles so a continue-mode execute "
             "re-derives exactly them (pair with diff: "
             "`diff CUR PREV > d.json; invalidate CUR --from-diff d.json`)")
    inv.add_argument("archive")
    inv.add_argument("--tiles", default=None,
                     help="semicolon-separated row,col pairs, e.g. "
                          "'3,4;3,5' (zoom taken from the archive)")
    inv.add_argument("--from-diff", default=None,
                     help="path to a JSON file holding the diff "
                          "subcommand's output; its 'changed' list is "
                          "invalidated")
    inv.add_argument("--num-cpus", type=int, default=None)
    rf = sub.add_parser(
        "refresh",
        help="diff + invalidate + continue-mode execute in one pass: "
             "re-derive from --input exactly the tiles whose bytes "
             "diverged from the previous generation")
    rf.add_argument("current", help="archive to refresh in place")
    rf.add_argument("previous", help="trusted previous-generation archive")
    rf.add_argument("--input", required=True,
                    help="pages parquet path/dir to re-derive from")
    rf.add_argument("--num-cpus", type=int, default=None)
    vf = sub.add_parser(
        "verify",
        help="lineage audit: re-read every tile and re-derive its crc32 "
             "against the lineage record — catches silent chunk "
             "corruption the existence-based resume probe cannot see "
             "(pair with invalidate: `verify A > v.json` then "
             "invalidate the bad tiles and re-execute)")
    vf.add_argument("archive")
    vf.add_argument("--num-cpus", type=int, default=None)
    args = p.parse_args(argv)

    import ray

    # own the session only if we created it: a host process (pytest,
    # a notebook) that already initialized Ray keeps its session
    own_ray = not ray.is_initialized()
    if own_ray:
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    try:
        if args.cmd == "execute":
            with open(args.spec) as f:
                cfg = json.load(f)
            input_cfg = cfg.pop("input")
            from mapchete_xarray_ray.pipelines.flagship import run_pipeline
            from mapchete_xarray_ray.spec import JobSpec

            spec = JobSpec(**cfg)
            ds = ray.data.read_parquet(input_cfg["path"])
            if args.overwrite:
                # --overwrite = fresh archive; the pipeline itself then
                # runs in its (default) continue mode over the empty one
                from mapchete_xarray_ray.sinks.zarr import _rmtree

                _rmtree(spec.path)
            out = run_pipeline(ds, spec, mode="continue")
            n = out.count()
            print(json.dumps({"tiles_written": n, "path": spec.path}))
        elif args.cmd == "pyramid":
            from mapchete_xarray_ray.pipelines.pyramid import run_pyramid_step

            out = run_pyramid_step(args.src, args.dst, how=args.how)
            print(json.dumps({"tiles_written": out.count(), "path": args.dst}))
        elif args.cmd == "export":
            from mapchete_xarray_ray.pipelines.queries import curation_pipeline
            from mapchete_xarray_ray.sinks.parquet import write_partitioned

            docs = ray.data.read_parquet(
                args.src, columns=["doc_id", "text"]
            ).map_batches(lambda b: b.replace_schema_metadata(None),
                          batch_format="pyarrow")  # hashable schemas in
            # the curation shuffle (same reason as queries._read)
            cur = curation_pipeline(docs, keep_text=True)
            summary = write_partitioned(
                cur, args.dst, "lang_pred",
                mode="overwrite" if args.overwrite else "continue")
            print(json.dumps({
                "partitions_written": summary.column("partition").to_pylist(),
                "rows": int(sum(summary.column("n_rows").to_pylist())),
                "path": args.dst,
            }))
        elif args.cmd == "diff":
            import pyarrow.compute as pc  # pa.compute is NOT auto-
            # imported by `import pyarrow` (pyarrow 16: it only exists
            # once something imports the submodule)

            from mapchete_xarray_ray.collect import collect_table
            from mapchete_xarray_ray.pipelines.diff import archive_diff_ds

            tbl = collect_table(archive_diff_ds(args.current, args.previous))
            if tbl.num_rows == 0:
                # two empty archives -> zero-block read -> zero-COLUMN
                # table: don't touch columns that don't exist
                print(json.dumps({"tiles_compared": 0,
                                  "tiles_changed": 0, "changed": []}))
            else:
                chg = tbl.filter(pc.equal(tbl.column("changed"), 1))
                print(json.dumps({
                    "tiles_compared": tbl.num_rows,
                    "tiles_changed": chg.num_rows,
                    "changed": sorted(
                        [int(r), int(c)] for r, c in zip(
                            chg.column("tile_row").to_pylist(),
                            chg.column("tile_col").to_pylist())),
                }))
        elif args.cmd == "invalidate":
            from mapchete_xarray_ray.sources.zarr_input import (
                spec_from_archive,
            )
            from mapchete_xarray_ray.state.lineage import invalidate_tiles

            zoom = spec_from_archive(args.archive).zoom
            pairs = []
            if args.tiles:
                pairs += [tuple(int(v) for v in t.split(","))
                          for t in args.tiles.split(";") if t]
            if args.from_diff:
                with open(args.from_diff) as f:
                    pairs += [tuple(rc) for rc in json.load(f)["changed"]]
            if not pairs:
                raise SystemExit("invalidate: pass --tiles and/or --from-diff")
            n = invalidate_tiles(args.archive,
                                 [(zoom, r, c) for r, c in pairs])
            print(json.dumps({"invalidated": n, "path": args.archive}))
        elif args.cmd == "verify":
            from mapchete_xarray_ray.pipelines.audit import audit_summary

            print(json.dumps(audit_summary(args.archive)))
        elif args.cmd == "refresh":
            from mapchete_xarray_ray.pipelines.diff import refresh_archive

            pages = ray.data.read_parquet(args.input)
            print(json.dumps(refresh_archive(pages, args.current,
                                             args.previous)))
        else:  # overviews: E3 chained until --min-zoom
            from mapchete_xarray_ray.pipelines.pyramid import run_pyramid_chain

            results = run_pyramid_chain(args.src, args.min_zoom, how=args.how)
            print(json.dumps({"levels": results}))
    finally:
        if own_ray:
            ray.shutdown()


if __name__ == "__main__":
    main(sys.argv[1:])
