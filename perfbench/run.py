"""Benchmark entry point.

    python3 perfbench/run.py --workload serve|bulk --seed N --seconds S --trace 0|1

Run from the repository root (or from anywhere: the engine is imported from
this file's parent directory). One driver thread makes a closed loop with
one request outstanding, against a private ``ray.init(address="local",
num_cpus=1)``. Everything the run writes, Ray's session directory included,
goes under ``.pbw/`` at the repository root and is removed at exit.

stdout carries only the last-line JSON result; progress, Ray logs and the
human-readable report go to stderr. Exit code 0 means every output checked
correct; any failed or wrong request, or a failed check, exits 1; a missing
engine exits 2 without a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import sys
import tempfile
import time
import traceback

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# short: Ray's AF_UNIX socket paths (at most 107 bytes) live under it
WORK_PARENT = os.path.join(ROOT, ".pbw")
# One CPU: every stage's actor pool stays at one actor, so no request pays a
# varying number of actor start-ups, and the run's processes do not contend
# for the host's cores.
NUM_CPUS = 1
# Ray kills a task worker idle for more than 1 s once the pool exceeds
# num_cpus, so whether a stage finds a warm worker or spawns a new process
# (~0.5-1 s) depended on sub-second timing, and latencies were bimodal.
# Idle workers are kept for the whole run instead.
RAY_SYSTEM_CONFIG = {"idle_worker_killing_time_threshold_ms": 600_000}
SETUPS = 3
OBJECT_STORE_BYTES = 512 << 20
# what Ray appends to its temp dir for its longest socket path:
# "/session_<date>_<time>_<us>_<pid>/sockets/plasma_store"
_RAY_SOCKET_SUFFIX = 64


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("serve", "bulk"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


_T0 = time.perf_counter()


def log(msg: str) -> None:
    print(f"[perfbench {time.perf_counter() - _T0:6.1f}s] {msg}", file=sys.stderr, flush=True)


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant (Ray's head processes are children
    of the driver; its workers are children of the raylet)."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def tree_rss_mb(root: int) -> float:
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for pid in process_tree(root):
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * page
        except (OSError, IndexError, ValueError):
            continue
    return total / 2**20


def wait_gone(pids: list[int]) -> None:
    """Wait for ``pids`` to exit; SIGKILL any left after 30 s."""
    deadline = time.monotonic() + 30.0
    left = list(pids)
    while left:
        left = [p for p in left if os.path.exists(f"/proc/{p}") and not _zombie(p)]
        if not left:
            return
        if time.monotonic() > deadline:
            for p in left:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5.0
        time.sleep(0.1)


def _zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def start_ray():
    import ray

    # Ray workers must import the engine whatever the driver's cwd
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    ray_tmp = WORK_PARENT
    if len(ray_tmp) + _RAY_SOCKET_SUFFIX > 107:
        log(f"{ray_tmp} is too long for Ray's socket paths; Ray uses its default temp dir")
        ray_tmp = None
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=ray_tmp,
        _system_config=RAY_SYSTEM_CONFIG,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def run(args, result_out) -> int:
    sys.path.insert(0, ROOT)
    try:
        import distributed_text_search_ray  # noqa: F401
    except ImportError as e:
        log(f"cannot import the engine from {ROOT}: {e}")
        return 2

    import check
    import layers
    from workloads import WORKLOADS

    os.makedirs(WORK_PARENT, exist_ok=True)
    existing = set(os.listdir(WORK_PARENT))
    work = tempfile.mkdtemp(dir=WORK_PARENT)
    tracer = stats.Tracer() if args.trace else None
    ray = None
    ray_pids: list[int] = []
    try:
        t = time.perf_counter()
        wl = WORKLOADS[args.workload](args.seed, work, tracer)
        log(f"{args.workload}: inputs made in {time.perf_counter() - t:.2f}s")
        t = time.perf_counter()
        ray = start_ray()
        ray_init_s = time.perf_counter() - t
        wl.prewarm()
        gc.collect()
        setup_times = []
        for i in range(SETUPS):
            t = time.perf_counter()
            wl.setup(i)
            gc.collect()  # frees the warm-up's actor pool (see Workload.op)
            setup_times.append(time.perf_counter() - t)
        log(f"ray.init {ray_init_s:.2f}s; set-ups {[round(x, 3) for x in setup_times]}")
        wl.ready()
        gc.collect()

        saved = layers.install(tracer) if tracer else []
        outcomes = stats.Outcomes()
        latencies, rss, traced = [], [], []
        deadline = time.perf_counter() + args.seconds
        i = 0
        try:
            while True:
                wl.pending = wl.next_input()
                rid = outcomes.start()
                ok = True
                if tracer:
                    tracer.request = rid
                t = time.perf_counter()
                try:
                    with wl.span("bench.request"):
                        wl.request(rid, i)
                except Exception:
                    ok = False
                    outcomes.fail(rid, traceback.format_exc())
                latencies.append(time.perf_counter() - t)
                rss.append(tree_rss_mb(os.getpid()))
                if tracer and ok:
                    with tracer.span("bench.replay"):
                        wl.replay(i)
                    traced.append(rid)
                i += 1
                if time.perf_counter() >= deadline:
                    break
        finally:
            layers.uninstall(saved)
        log(f"window done: {len(latencies)} requests")

        layer_metrics = {}
        if tracer:
            q, patterns, apm_texts = wl.trace_inputs()
            extra = wl.layer_counts(q)
            extra.update(layers.microbench(wl.index, wl.corpus.texts[:2000], patterns, apm_texts))
            extra.update(layers.ray_floors())
            extra["ray.init_s"] = ray_init_s
            extra.update({k: v for k, v in wl.setup_metrics().items() if k.startswith("pipelines.")})
            extra.update(wl.write_probe(outcomes))
            layer_metrics = layers.summarize(tracer.spans, traced, latencies, wl.query_times, extra)

        t = time.perf_counter()
        try:
            wl.check(check.connect(), outcomes)
        except Exception:
            for r in range(outcomes.attempted):
                outcomes.fail(r, "check crashed:\n" + traceback.format_exc())
        log(f"checks took {time.perf_counter() - t:.2f}s")
        ray_pids = process_tree(os.getpid())[1:]
    finally:
        if ray is not None:
            ray.shutdown()
            wait_gone(ray_pids)
        # this run's work dir and Ray session dir (+ its session_latest link)
        for name in set(os.listdir(WORK_PARENT)) - existing:
            path = os.path.join(WORK_PARENT, name)
            if os.path.isdir(path) and not os.path.islink(path):
                shutil.rmtree(path, ignore_errors=True)
            else:
                os.unlink(path)
        try:
            os.rmdir(WORK_PARENT)
        except OSError:
            pass

    log("shut down")
    for reason in outcomes.reasons:
        log(f"FAILED {reason}")
    if args.trace:
        metrics = layer_metrics
    else:
        metrics = {
            "setup_s": stats.median(setup_times),
            "request_p50_s": stats.median(latencies),
            "requests_per_s": len(latencies) / sum(latencies),
            "index_bytes_per_doc_byte": wl.setup_metrics()["index_bytes_per_doc_byte"],
            "rss_mb": stats.median(rss),
        }
    report(args, wl, latencies, rss, outcomes)
    spec = load_spec()["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(units):
        log(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
        return 1
    correct = outcomes.failed == 0
    result = {
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    result_out.write(json.dumps(result) + "\n")
    result_out.flush()
    return 0 if correct else 1


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def report(args, wl, latencies, rss, outcomes) -> None:
    """Human-readable summary on stderr: per-operation medians and tails."""
    log(f"{args.workload} seed={args.seed}: {outcomes.attempted} requests, "
        f"{outcomes.failed} failed, error_rate={outcomes.error_rate:.4f}")
    groups = {"request": latencies}
    groups.update(wl.parts)
    for name, xs in groups.items():
        if not xs:
            continue
        t = stats.tail(xs)
        tail_txt = f"p{t[0]:.1f}={t[1]:.3f}s" if t and t[0] >= 50 else "tail n/a (< 20 samples)"
        log(f"  {name}: n={len(xs)} p50={stats.median(xs):.3f}s {tail_txt} all={[round(x, 2) for x in xs]}")
    log(f"  rss_mb samples: {[round(x) for x in rss]}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run()'s cleanup


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    # stdout is reserved for the result line: everything else written to fd 1
    # (Ray, the engine, libraries) lands on stderr
    result_out = os.fdopen(os.dup(1), "w")
    sys.stdout.flush()
    os.dup2(2, 1)
    try:
        return run(args, result_out)
    finally:
        result_out.close()


if __name__ == "__main__":
    sys.exit(main())
