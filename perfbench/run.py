"""Benchmark entry point.

    python3 perfbench/run.py --num-cpus 3 --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest 1

Runs one workload in a fresh child process under a watchdog, checks every
pass against an oracle, and prints every metric by name and unit. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

``--selftest 1`` feeds every workload's checker one deliberately corrupted
output and exits non-zero unless each such run is reported as failed.

Everything the run writes stays under ``.perfbench_work/`` in the checkout.
See NOTES.md for the workloads, metrics and known limits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import procs  # noqa: E402

WORKLOADS = ("tile_build", "archive_ops", "spatial_join", "near_dup")  # see workloads.py
WATCHDOG_S = 165  # a run still going after this is killed and counted failed
# Ray binds Unix sockets under its temp dir; their paths must stay below
# the kernel's 108-byte limit, which bounds how long that dir may be
MAX_RAY_TMP = 43
WORK = os.path.join(ROOT, ".perfbench_work")
MARK = "pb-" + hashlib.sha1(ROOT.encode()).hexdigest()[:12]  # tags this checkout's processes

UNITS = {"setup_s": "s", "wall_s": "s", "rows_per_s": "rows/s", "peak_rss_mb": "MiB",
         "output_mb": "MiB"}  # the end-to-end metrics


def _spawn(workload: str, seed: int, seconds: float, trace: int, selftest: int,
           num_cpus: int) -> tuple[dict | None, bool, float | None]:
    """Run the harness in a fresh process. Returns (result, timed_out, rss)."""
    os.makedirs(os.path.join(WORK, "runs"), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(WORK, "runs"))
    ray_tmp = os.path.join(WORK, "t")
    if len(ray_tmp) > MAX_RAY_TMP:
        ray_tmp = tempfile.mkdtemp(prefix="pb-")  # checkout path too long for sockets
    result = os.path.join(run_dir, "result.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p))
    env.update({procs.MARK_VAR: MARK, "RAY_TMPDIR": ray_tmp, "TMPDIR": run_dir,
                "PYTHONUNBUFFERED": "1"})
    cmd = [sys.executable, "-m", "perfbench.harness", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--selftest", str(selftest), "--num-cpus", str(num_cpus), "--root", ROOT, "--run-dir", run_dir,
           "--result", result, "--spawned", repr(time.time())]
    log_path = os.path.join(WORK, f"last-{workload}.log")
    timed_out, rss = False, None
    with open(log_path, "w") as log:
        child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                                 stdin=subprocess.DEVNULL)
        try:
            child.wait(timeout=WATCHDOG_S)
        except subprocess.TimeoutExpired:
            timed_out = True
            rss = procs.run_rss_mb(MARK, child.pid, num_cpus)
        procs.kill_marked(MARK)
        child.wait()
    try:
        with open(result) as f:
            res = json.load(f)
    except (OSError, ValueError):
        res = None
    if child.returncode and not timed_out:
        with open(log_path) as f:
            sys.stderr.write(f.read()[-4000:])
    shutil.rmtree(run_dir, ignore_errors=True)
    shutil.rmtree(ray_tmp, ignore_errors=True)  # Ray's session files and logs
    return res, timed_out, rss


def summarize(res: dict, timed_out: bool, rss: float | None, trace: int) -> dict:
    passes = res["passes"]
    attempted, failed = len(passes), sum(1 for p in passes if not p["ok"])
    if timed_out:  # the pass the watchdog cut short
        attempted, failed = attempted + 1, failed + 1
    untraced = [p for p in passes if not p["traced"] and not p["warm"]] or passes
    wall = statistics.median([p["wall_s"] for p in untraced]) if untraced else float(WATCHDOG_S)
    out_mb = [p["output_mb"] for p in untraced if "output_mb" in p]
    if trace:
        metrics = {}
        layers = [p["layers"] for p in passes if p.get("layers")]
        for name in sorted({k for lay in layers for k in lay}):
            vals = [lay[name][0] for lay in layers if name in lay]
            unit = next(lay[name][1] for lay in layers if name in lay)
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
        traced = [p["wall_s"] for p in passes if p["traced"]]
        plain = [p["wall_s"] for p in passes if not p["traced"] and not p["warm"]]
        if traced and plain:
            metrics["trace.overhead_s"] = {"value": statistics.median(traced) - statistics.median(plain), "unit": "s"}
    else:
        values = {
            "setup_s": statistics.median(res["setups"]),
            "wall_s": wall,
            "rows_per_s": res["rows"] / wall,
            "peak_rss_mb": rss if rss is not None else res.get("peak_rss_mb", 0.0),
            "output_mb": statistics.median(out_mb) if out_mb else 0.0,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _clear_leftovers() -> None:
    """Stop whatever an earlier, killed run in this checkout left running."""
    procs.kill_marked(MARK)
    for stale in ("runs", "t"):
        shutil.rmtree(os.path.join(WORK, stale), ignore_errors=True)


def run(workload: str, seed: int, seconds: float, trace: int, num_cpus: int) -> int:
    _clear_leftovers()
    res, timed_out, rss = _spawn(workload, seed, seconds, trace, 0, num_cpus)
    if not res or not res["setups"] or (not res["passes"] and not timed_out):
        print(f"{workload}: the run measured nothing (see {WORK}/last-{workload}.log)",
              file=sys.stderr)
        return 1
    out = summarize(res, timed_out, rss, trace)
    n = len(res["passes"])
    print(f"# {workload} seed={seed}: {n} passes, {len(res['setups'])} set-ups, "
          f"{res['rows']} rows per pass" + (" (watchdog fired)" if timed_out else ""))
    for name, m in out["metrics"].items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"{'failed_ratio':34s} {out['failed'] / out['attempted']:14.6g} 1")
    for e in res["errors"][:3]:
        print(f"# failure: {e.strip().splitlines()[-1]}")
    print(json.dumps(out))
    return 0


def selftest(num_cpus: int) -> int:
    """Every workload's checker must fail a deliberately corrupted output."""
    _clear_leftovers()
    ok = True
    for name in WORKLOADS:
        res, timed_out, _ = _spawn(name, 0, 0, 0, 1, num_cpus)
        passes = (res or {}).get("passes", [])
        caught = (bool(passes) and not timed_out and all(not p["ok"] for p in passes)
                  and not any("Traceback" in e for e in res["errors"]))
        print(f"selftest {name}: corrupted output {'reported as failed' if caught else 'NOT caught'}")
        ok &= caught
    # the dedup oracle against the DuckDB twin of dedup_canonical
    from perfbench import inputs

    docs = inputs.make_corpus(40, 5, 0)
    twin = inputs.dedup_keep(docs) == inputs.dedup_keep_sql(docs)
    print(f"selftest near_dup oracle: {'matches' if twin else 'DIFFERS FROM'} the DuckDB twin")
    return 0 if ok and twin else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", type=int, choices=(0, 1), default=0)
    p.add_argument("--num-cpus", type=int, default=3,
                   help="logical CPUs Ray is started with (at least 3, see NOTES.md)")
    a = p.parse_args()
    if a.num_cpus < 3:
        p.error("--num-cpus must be at least 3: the package's fixed concurrency=2 "
                "actor pools never get scheduled with fewer (see NOTES.md)")
    if not os.path.isfile(os.path.join(ROOT, "mapchete_xarray_ray", "__init__.py")):
        print(f"no mapchete_xarray_ray package next to {HERE}; run from a full checkout",
              file=sys.stderr)
        return 2
    if a.selftest:
        return selftest(a.num_cpus)
    if a.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return run(a.workload, a.seed, a.seconds, a.trace, a.num_cpus)


if __name__ == "__main__":
    sys.exit(main())
