"""One benchmark run in a fresh process: set up Ray several times, run timed
passes of one workload for the requested seconds, check every pass, and
write the result to a JSON file (rewritten after every pass, so a run the
watchdog kills still leaves what it measured).

Started by ``run.py``; not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

OBJECT_STORE_MB = 512  # the inputs are small; a fixed store keeps memory predictable
SETUPS = 3  # Ray set-ups per run; setup_s is their median
MIN_PASSES = 2  # timed passes per untraced run, even past --seconds
MIN_TRACED = 2  # traced and untraced passes each, alternating, per traced run
PASS_DEADLINE_S = 120  # no new pass starts this long after the process began


def start_ray(num_cpus: int, trace: bool) -> None:
    import ray

    runtime_env = {}
    if trace:
        runtime_env["worker_process_setup_hook"] = "perfbench.trace.worker_setup"
    ray.init(address="local", num_cpus=num_cpus, object_store_memory=OBJECT_STORE_MB << 20,
             include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             _temp_dir=os.environ["RAY_TMPDIR"], runtime_env=runtime_env)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def _warm() -> int:
    import mapchete_xarray_ray.pipelines.queries  # noqa: F401  (imports every layer)

    return os.getpid()


def warm_up(num_cpus: int) -> None:
    """Wait for the workers and import the package in each of them."""
    import ray

    task = ray.remote(num_cpus=1)(_warm)
    ray.get([task.remote() for _ in range(num_cpus)])


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--num-cpus", type=int, required=True)
    p.add_argument("--selftest", type=int, default=0)
    p.add_argument("--root", required=True)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spawned", type=float, required=True)
    a = p.parse_args(argv)

    import ray

    from perfbench import procs, trace
    from perfbench.workloads import WORKLOADS

    import_s = time.time() - a.spawned
    work = os.path.join(a.root, ".perfbench_work")
    wl = WORKLOADS[a.workload](work, a.run_dir, a.seed)
    res = {"workload": a.workload, "seed": a.seed, "rows": None, "setups": [],
           "passes": [], "errors": [], "import_s": import_s}

    def save() -> None:
        tmp = a.result + ".tmp"
        with open(tmp, "w") as f:
            json.dump(res, f)
        os.replace(tmp, a.result)

    traced = bool(a.trace)
    if traced:
        trace_dir = os.path.join(a.run_dir, "trace")
        os.makedirs(trace_dir)
        with open(os.path.join(trace_dir, "ctl.bin"), "wb") as f:
            f.write(b"\0")
        os.environ[trace.TRACE_DIR_VAR] = trace_dir  # inherited by every Ray process
    for k in range(SETUPS):
        t0 = time.perf_counter()
        start_ray(a.num_cpus, traced)
        if traced:
            trace.worker_setup()
        s = time.perf_counter() - t0
        if k == 0:
            wl.build()  # cached inputs and oracles: outside every timing
            res["rows"] = wl.rows()
        t1 = time.perf_counter()
        warm_up(a.num_cpus)
        wl.prepare()
        res["setups"].append(import_s + s + time.perf_counter() - t1)
        print(f"setup {k}: import {import_s:.2f} ray {s:.2f} ready {time.perf_counter() - t1:.2f}",
              file=sys.stderr, flush=True)
        save()
        if k < SETUPS - 1:
            # stop the session's processes outright; a graceful shutdown
            # waits about 1.5 s for them, for no benefit here
            procs.kill_marked(os.environ[procs.MARK_VAR])
            ray.shutdown()

    tracer = trace.Tracer(trace_dir) if traced else None
    t_begin = time.perf_counter()
    n = 0
    while True:
        # a traced run starts with a warm pass (cold, so it would skew the
        # tracing overhead), then alternates untraced and traced passes
        warm = traced and n == 0
        is_traced = traced and n > 0 and n % 2 == 0
        if n:
            wl.reset()
        tr = tracer.begin() if is_traced else trace.NULL
        cpu0 = procs.cpu_s(procs.marked_pids(os.environ[procs.MARK_VAR])) if is_traced else 0
        t0 = time.perf_counter()
        rec = {"traced": is_traced, "warm": warm, "ok": False}
        try:
            try:
                out = wl.run(tr)
                rec["wall_s"] = time.perf_counter() - t0
            finally:
                if is_traced:
                    cpu = procs.cpu_s(procs.marked_pids(os.environ[procs.MARK_VAR])) - cpu0
                    tracer.stop()
            if a.selftest:
                out = wl.corrupt(out)
            errs = wl.check(out)
            rec["ok"] = not errs
            rec["output_mb"] = wl.output_mb(out)
            if is_traced:
                wl.layers(out, tr)
                rec["layers"] = tracer.end(rec["wall_s"], cpu)
        except Exception:  # a failed operation is counted, the run goes on
            rec.setdefault("wall_s", time.perf_counter() - t0)
            errs = [traceback.format_exc(limit=8)]
        if errs:
            res["errors"].append(errs[0][:2000])
            print(f"pass {n} failed: {errs[0]}", file=sys.stderr, flush=True)
        res["passes"].append(rec)
        print(f"pass {n}: {rec['wall_s']:.3f} s traced={is_traced} ok={rec['ok']}",
              file=sys.stderr, flush=True)
        n += 1
        res["peak_rss_mb"] = procs.run_rss_mb(os.environ[procs.MARK_VAR], os.getpid(), a.num_cpus)
        save()
        enough = (sum(1 for r in res["passes"] if r["traced"]) >= MIN_TRACED
                  and sum(1 for r in res["passes"] if not r["traced"] and not r["warm"])
                  >= MIN_TRACED) if traced else n >= MIN_PASSES
        if a.selftest or (enough and time.perf_counter() - t_begin >= a.seconds):
            break
        if time.time() - a.spawned > PASS_DEADLINE_S:
            break
    # no graceful ray.shutdown(): the parent stops the session's processes
    # and waits for them, which takes a fraction of the time
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)  # skip interpreter teardown of the live Ray session
