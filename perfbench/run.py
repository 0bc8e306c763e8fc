#!/usr/bin/env python3
"""The repository benchmark: campaign workloads timed end to end and by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload eval-batched --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all --seed 2 --seconds 42 --trace 1

Each workload is a closed batch: a fixed campaign grid, generated from
``--seed``, drained as fast as the system allows by one master process
and two ``mw-worker`` processes over tcp (two = the CPU count of the
2-core box the bounds were set on).  A run repeats the workload until
``--seconds`` of measuring are used up and reports medians over the
repetitions.  Every repetition is checked: exactly-once completion (one
record per grid job id, every job and mw task completed once, none
failed or requeued, no live lease) and a finite ``best_true`` per job;
``serve-churn`` also recomputes a sample of jobs in-process with
``run_job`` and requires bitwise-equal results.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions: traced ones wrap the public functions
of every layer (``master.py``, ``worker_trace.py``), time the read path
(``status()`` + ``summary()``, ``reader.py``) once the campaign is done,
and the run prints the per-layer table with self times, then the
per-layer metrics.  The
last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; with ``--workload all`` the workloads run in
turn and its metrics are named ``<workload>/<metric>``.

Every repetition has a wall-clock bound.  A repetition that overruns
it gets every child's thread stacks dumped (``faulthandler`` on
SIGUSR1), its children killed, and the run fails with a non-zero exit.
"""

from __future__ import annotations

import argparse
import ctypes
import faulthandler
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

#: mw worker processes per workload (= the CPU count the bounds assume).
N_WORKERS = 2
#: Whole-invocation bound; the contract allows 180 s.
RUN_BOUND_S = 170.0
#: Bound on one repetition (a healthy one takes 4-10 s).
REP_BOUND_S = 90.0
#: Seconds of back-to-back status()+summary() passes timed after each
#: traced repetition, in a fresh process (the read path, per layer).
STATUS_WINDOW_S = 0.5
#: Jobs per serve-churn repetition recomputed in-process (both tenants).
RECOMPUTE_SAMPLE = 24

#: Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    # ANDERSON x sphere d16 through campaign run --async: master-side
    # ask/tell, the async driver and the codec carry the load.
    "eval-batched": {"kind": "eval", "n_jobs": 32, "eval_batch": 32, "max_steps": 12},
    # The same grid with one evaluation per frame: per-frame fixed costs.
    "eval-scalar": {"kind": "eval", "n_jobs": 4, "eval_batch": 1, "max_steps": 12},
    # campaign serve, two tenants (store:// and sqlite), tiny whole jobs:
    # store, scheduler, spec expansion and per-job dispatch carry the load.
    "serve-churn": {"kind": "serve", "per_tenant_seeds": 150},
}


class RepFailed(RuntimeError):
    """A repetition broke a check or its bound; the run reports failure."""


class RepTimeout(RepFailed):
    """A repetition used up its wall-clock bound."""


def _bound_reached(signum, frame):
    raise RepTimeout("wall-clock bound reached")


def _die_with_parent() -> None:
    """Child pre-exec hook: SIGKILL this child if the benchmark dies first."""
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def seed_base(seed: int, workload: str) -> int:
    """Start of the workload's grid seed range for a benchmark seed."""
    rng = random.Random(f"{workload}:{seed}")
    return rng.randrange(10**8)


def eval_spec(name: str, seeds, max_steps: int) -> dict:
    return {
        "name": name, "algorithms": ["ANDERSON"], "functions": ["sphere"],
        "dims": [16], "sigma0s": [0.3], "seeds": list(seeds), "max_steps": max_steps,
    }


def churn_spec(name: str, seeds) -> dict:
    return {
        "name": name, "algorithms": ["DET", "PC"], "functions": ["sphere"],
        "dims": [2], "sigma0s": [0.3], "seeds": list(seeds), "max_steps": 5,
    }


def free_port() -> int:
    """A free TCP port below the kernel's ephemeral range.

    The port is released before the master binds it.  Ports the kernel
    hands out (``connect()``, ``bind(0)`` as by the store server) come from
    the ephemeral range, so none of them can take this one in between.
    """
    try:
        low = int(Path("/proc/sys/net/ipv4/ip_local_port_range").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        low = 32768
    rng = random.SystemRandom()
    for _ in range(200):
        port = rng.randrange(max(1024, low - 12000), low)
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
            try:
                s.bind(("127.0.0.1", port))
            except OSError:
                continue
            return port
    raise RepFailed("no free TCP port below the ephemeral range")


def child_env(trace_dir=None) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"  # same set/dict orders, run to run
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    return env


def proc_cpu_s(pid: int) -> float:
    """utime + stime of a live process from /proc (clock-tick resolution)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_threads(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class Fleet:
    """The child processes of one repetition; every exit path reaps them."""

    def __init__(self, directory: Path, env: dict) -> None:
        self.directory = directory
        self.env = env
        self.procs = {}
        self.usage = {}
        self.threads_peak = 0

    def spawn(self, role: str, argv, pipe: bool = False) -> subprocess.Popen:
        err = open(self.directory / f"{role}.log", "wb")
        try:
            proc = subprocess.Popen(
                [sys.executable, *map(str, argv)], cwd=ROOT, env=self.env,
                stdin=subprocess.PIPE if pipe else subprocess.DEVNULL,
                stdout=subprocess.PIPE if pipe else err, stderr=err,
                preexec_fn=_die_with_parent,
            )
        finally:
            err.close()
        self.procs[role] = proc
        return proc

    def read_line(self, role: str, marker: str) -> str:
        """The first stdout line of ``role`` containing ``marker``."""
        for line in self.procs[role].stdout:
            if marker.encode() in line:
                return line.decode().strip()
        raise RepFailed(f"{role} exited before printing {marker!r}")

    def reap(self, role: str, sample_threads: bool = False):
        """Wait for ``role`` to exit cleanly; returns its rusage."""
        proc = self.procs[role]
        while proc.returncode is None:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                self.usage[role] = usage
                break
            if sample_threads:
                self.threads_peak = max(self.threads_peak, proc_threads(proc.pid))
            time.sleep(0.02)
        if proc.returncode != 0:
            raise RepFailed(f"{role} exited with code {proc.returncode}")
        return self.usage[role]

    def stop(self, role: str):
        """SIGTERM a server process and reap it."""
        self.procs[role].send_signal(signal.SIGTERM)
        return self.reap(role)

    def kill_all(self, dump: bool) -> None:
        """Dump stacks (if asked) and kill every live child, then reap."""
        live = [p for p in self.procs.values() if p.returncode is None]
        if dump and live:
            for proc in live:
                proc.send_signal(signal.SIGUSR1)
            time.sleep(1.0)
        for proc in live:
            proc.kill()
        for proc in live:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        for proc in self.procs.values():
            for stream in (proc.stdin, proc.stdout):
                if stream is not None:
                    stream.close()

    def logs(self) -> str:
        out = []
        for role in self.procs:
            path = self.directory / f"{role}.log"
            if path.exists():
                text = path.read_text(errors="replace")[-6000:]
                out.append(f"--- {role} (pid {self.procs[role].pid}) ---\n{text}")
        return "\n".join(out)


# -- correctness checks (run in this process, after the master exits) --------

def _repro():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro.campaign as campaign

    return campaign


def check_campaign(directory: Path, problems: list):
    """Store-side exactly-once and finite-result checks; returns (campaign, records).

    The store keeps one record per job id, so a job executed twice does
    not show here; :func:`check_execution` counts executions instead.
    """
    campaign = _repro().Campaign(directory)
    expected = {job.job_id for job in campaign.jobs()}
    records = campaign.records()
    ids = {r["job_id"] for r in records}
    status = campaign.status()
    name = campaign.spec.name
    if ids != expected:
        problems.append(f"{name}: {len(ids)} record ids for {len(expected)} grid jobs")
    if status["done"] != len(expected) or status["failed"]:
        problems.append(f"{name}: done {status['done']} failed {status['failed']} "
                        f"of {len(expected)}")
    if status["claimed"] or campaign.store.leases():
        problems.append(f"{name}: live leases left after the run")
    for rec in records:
        best = (rec.get("result") or {}).get("best_true")
        if rec["status"] != "done" or best is None or not math.isfinite(best):
            problems.append(f"{name}: job {rec['job_id']} has no finite best_true")
            break
    return campaign, records


def check_execution(out: dict, grid: int, kind: str, problems: list) -> None:
    """Every job and every mw task completed exactly once, none failed.

    ``out`` is the master's report: per-tenant ``(n_done, n_failed)``
    (``n_done`` counts every completion, so a job run twice reads
    ``grid + 1``), what ``AsyncEvalDriver.run`` returned, and the summed
    task counts of the ``MWDriver``s.  A serve dispatches one task per
    job; an eval run one task per frame the async driver sent.
    """
    done = sum(d for d, _ in out["reports"].values())
    failed = sum(f for _, f in out["reports"].values())
    if done != grid or failed:
        problems.append(f"reports: {done} jobs done, {failed} failed, grid {grid}")
    mw = out["mw"]
    tasks = grid if kind == "serve" else out["driver"]["frames"]
    if not (mw["n_tasks"] == mw["done"] == mw["replies"] == tasks) \
            or mw["failed"] or mw["requeues"]:
        problems.append(f"mw: {mw['n_tasks']} tasks, {mw['done']} done, "
                        f"{mw['replies']} replies, {mw['failed']} failed, "
                        f"{mw['requeues']} requeued; expected {tasks} tasks")


def recompute_sample(campaigns, seed: int, rep: int, problems: list) -> None:
    """Re-run a seeded sample of jobs in-process; results must be identical."""
    from repro.campaign import run_job

    rng = random.Random(f"recompute:{seed}:{rep}")
    per = RECOMPUTE_SAMPLE // len(campaigns)
    for campaign in campaigns:
        stored = {r["job_id"]: r["result"] for r in campaign.records()}
        for job in rng.sample(campaign.jobs(), per):
            fresh = run_job(job)["result"]
            if json.dumps(fresh, sort_keys=True) != json.dumps(stored[job.job_id], sort_keys=True):
                problems.append(f"{campaign.spec.name}: job {job.job_id} "
                                f"differs from its in-process recomputation")


# -- one repetition -------------------------------------------------------------

def run_rep(workload: str, seed: int, rep: int, traced: bool, bound: float) -> dict:
    """Set up, run and check one repetition of ``workload``."""
    params = WORKLOADS[workload]
    base = seed_base(seed, workload)
    rep_dir = RUNS / f"{os.getpid()}-{rep}"
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    fleet = Fleet(rep_dir, child_env(rep_dir if traced else None))
    url = f"tcp://127.0.0.1:{free_port()}"
    cfg = {"kind": params["kind"], "trace": traced, "transport": url,
           "workers": N_WORKERS, "bound_s": bound,
           "out": str(rep_dir / "master.json"),
           "trace_out": str(rep_dir / "master-trace.json")}
    # The alarm interrupts this process wherever it blocks (a hung store
    # read or a child that never exits) once the bound is used up.
    signal.setitimer(signal.ITIMER_REAL, bound)
    try:
        t0 = time.monotonic()
        if params["kind"] == "serve":
            n = params["per_tenant_seeds"]
            base += rep * 2 * n
            fleet.spawn("store-server", [HERE / "proc.py", "campaign", "store-serve",
                                         rep_dir / "server", "--listen", "127.0.0.1:0"],
                        pipe=True)
            line = fleet.read_line("store-server", "store://")
            store_url = line.split(" at ")[-1].strip()
            cfg["tenants"] = [
                {"directory": str(rep_dir / "tenant-a"), "store": store_url,
                 "spec": churn_spec("tenant-a", range(base, base + n))},
                {"directory": str(rep_dir / "tenant-b"), "store": "sqlite",
                 "spec": churn_spec("tenant-b", range(base + n, base + 2 * n))},
            ]
            cfg["weights"] = {"tenant-a": 2.0, "tenant-b": 1.0}
            executor = "worker_trace:job_executor"
        else:
            n = params["n_jobs"]
            base += rep * n
            cfg.update(directory=str(rep_dir / "campaign"),
                       spec=eval_spec(workload, range(base, base + n), params["max_steps"]),
                       eval_batch=params["eval_batch"], batch_size=n,
                       max_inflight=64)
            executor = "worker_trace:eval_executor"
        (rep_dir / "config.json").write_text(json.dumps(cfg))
        master = fleet.spawn("master", [HERE / "master.py", rep_dir / "config.json"],
                             pipe=True)
        fleet.read_line("master", "READY")
        for rank in range(N_WORKERS):
            argv = [HERE / "proc.py", "mw-worker", url, "--connect-timeout", "60"]
            if traced:
                argv += ["--executor", executor]
            fleet.spawn(f"worker{rank}", argv)
        master.stdin.write(b"GO\n")
        master.stdin.flush()
        usage = {"master": fleet.reap("master", sample_threads=True)}
        for rank in range(N_WORKERS):
            usage[f"worker{rank}"] = fleet.reap(f"worker{rank}")
        out = json.loads((rep_dir / "master.json").read_text())
        server_cpu = 0.0
        if "store-server" in fleet.procs:
            server_cpu = proc_cpu_s(fleet.procs["store-server"].pid)

        problems: list = []
        if params["kind"] == "serve":
            checked = [check_campaign(Path(t["directory"]), problems)
                       for t in cfg["tenants"]]
        else:
            checked = [check_campaign(Path(cfg["directory"]), problems)]
        campaigns = [c for c, _ in checked]
        records = [r for _, recs in checked for r in recs]
        grid = sum(len(c.jobs()) for c in campaigns)
        check_execution(out, grid, params["kind"], problems)
        if params["kind"] == "serve":
            recompute_sample(campaigns, seed, rep, problems)
        for c in campaigns:
            c.store.close()
        if problems:
            raise RepFailed("; ".join(problems))
        if traced:
            (rep_dir / "reader.json").write_text(json.dumps({
                "directories": [str(c.directory) for c in campaigns],
                "window_s": STATUS_WINDOW_S, "out": str(rep_dir / "reads.json"),
                "trace_out": str(rep_dir / "reader-trace.json")}))
            fleet.spawn("reader", [HERE / "reader.py", rep_dir / "reader.json"])
            fleet.reap("reader")
        if params["kind"] == "serve":
            fleet.stop("store-server")
            evals = sum(int(r["result"]["n_underlying_calls"]) for r in records)
        else:
            evals = out["driver"]["submitted"]

        def cpu(u):
            return u.ru_utime + u.ru_stime

        done = sum(d for d, _ in out["reports"].values())
        result = {
            "traced": traced,
            "attempted": grid,
            "done": done,
            "setup_s": out["t_go"] - t0,
            "run_s": out["run_s"],
            "evals": evals,
            "best_true": [r["result"]["best_true"] for r in records],
            "driver": out["driver"],
            "mw": out["mw"],
            "cpu_master": cpu(usage["master"]),
            "cpu_workers": sum(cpu(usage[f"worker{r}"]) for r in range(N_WORKERS)),
            "cpu_server": server_cpu,
            "master_rss_mb": usage["master"].ru_maxrss / 1024.0,
            "threads_peak": fleet.threads_peak,
        }
        if traced:
            result["trace"] = load_trace(rep_dir)
        return result
    except RepFailed as exc:
        signal.setitimer(signal.ITIMER_REAL, 0)
        stuck = isinstance(exc, RepTimeout)
        if stuck:
            faulthandler.dump_traceback(all_threads=True)
        fleet.kill_all(dump=stuck)
        raise RepFailed(f"{workload} rep {rep}: {exc}\n{fleet.logs()}") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        fleet.kill_all(dump=False)
        shutil.rmtree(rep_dir, ignore_errors=True)


def load_trace(rep_dir: Path) -> dict:
    """Span summaries of the master, the workers (merged) and the status reads."""
    from tracing import merge_summaries, summarize

    master = json.loads((rep_dir / "master-trace.json").read_text())
    workers = [summarize(json.loads(p.read_text())["spans"])
               for p in sorted(rep_dir.glob("worker-*.json"))]
    if len(workers) != N_WORKERS:
        raise RepFailed(f"{len(workers)} worker trace files for {N_WORKERS} workers")
    return {
        "master": summarize(master["spans"]),
        "counts": master["counts"],
        "workers": merge_summaries(workers),
        "reader": summarize(json.loads((rep_dir / "reader-trace.json").read_text())["spans"]),
        "status_passes": json.loads((rep_dir / "reads.json").read_text())["passes"],
    }


# -- metrics -----------------------------------------------------------------------

def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end(reps) -> dict:
    med = statistics.median
    attempted = sum(r["attempted"] for r in reps)
    return {
        "setup_s": (med(r["setup_s"] for r in reps), "s"),
        "jobs_per_s": (med(r["done"] / r["run_s"] for r in reps), "jobs/s"),
        "evals_per_s": (med(r["evals"] / r["run_s"] for r in reps), "evals/s"),
        "cpu_s_per_job": (med((r["cpu_master"] + r["cpu_workers"] + r["cpu_server"])
                              / r["done"] for r in reps), "s/job"),
        "best_true_median": (med(v for r in reps for v in r["best_true"]), "objective"),
        "job_done_ratio": (sum(r["done"] for r in reps) / attempted, "ratio"),
        "master_rss_mb": (med(r["master_rss_mb"] for r in reps), "MiB"),
    }


def per_layer(rep: dict, untraced_jobs_per_s: float) -> dict:
    """The per-layer metrics of one traced repetition."""
    tr = rep["trace"]
    names, counts = tr["master"]["names"], tr["counts"]
    wnames, rnames = tr["workers"]["names"], tr["reader"]["names"]
    zero = {"calls": 0, "time_s": 0.0, "self_s": 0.0}

    def n(key, table=names):
        return table.get(key, zero)

    run_s = rep["run_s"]
    compute = sum(n(k, wnames)["time_s"] for k in ("execution.eval", "execution.job"))
    busy = sum(row["busy_s"] for row in rep["mw"]["utilization"])
    tasks = rep["mw"]["n_tasks"]
    driver = rep["driver"]
    root = tr["master"]["root"] or {"run_s": run_s, "self_s": 0.0}
    m = {
        "core.ask.calls": (n("core.ask")["calls"], "count"),
        "core.ask.time_s": (n("core.ask")["time_s"], "s"),
        "core.ask.proposals": (counts.get("core.ask.proposals", 0), "count"),
        "core.refine_ratio": (ratio(counts.get("core.ask.refine", 0),
                                    counts.get("core.ask.proposals", 0)), "ratio"),
        "core.tell.calls": (n("core.tell")["calls"], "count"),
        "core.tell.time_s": (n("core.tell")["time_s"], "s"),
        "core.stale_ratio": (ratio(counts.get("core.tell.stale", 0),
                                   counts.get("core.tell.told", 0)), "ratio"),
        "core.driver.run_s": (n("core.driver.run")["time_s"], "s"),
        "core.driver.self_s": (n("core.driver.run")["self_s"], "s"),
        "core.driver.frames": (driver["frames"], "count"),
        "core.driver.frame_fill": (ratio(driver["submitted"], driver["frames"]), "evals/frame"),
        "noise.merge.calls": (n("noise.merge")["calls"], "count"),
        "noise.merge.time_s": (n("noise.merge")["time_s"], "s"),
        "functions.batch.calls": (n("functions.batch", wnames)["calls"], "count"),
        "functions.batch.time_s": (n("functions.batch", wnames)["time_s"], "s"),
        "functions.call.time_s": (n("functions.call", wnames)["time_s"], "s"),
    }
    for op in ("pack", "unpack"):
        key = f"mw.codec.{op}"
        m[f"{key}.calls"] = (n(key)["calls"], "count")
        m[f"{key}.time_s"] = (n(key)["time_s"], "s")
        m[f"{key}.bytes"] = (counts.get(f"{key}.bytes", 0), "bytes")
    m.update({
        "mw.submit.calls": (n("mw.submit")["calls"], "count"),
        "mw.pump.calls": (n("mw.pump")["calls"], "count"),
        "mw.pump.time_s": (n("mw.pump")["time_s"], "s"),
        "mw.tasks": (tasks, "count"),
        "mw.requeues": (rep["mw"]["requeues"], "count"),
        "mw.rank.busy_s": (busy, "s"),
        "mw.worker.compute_s": (compute, "s"),
        "mw.roundtrip_overhead_ms_per_task": (1000.0 * ratio(busy - compute, tasks), "ms"),
        "mw.worker.idle_ratio": (1.0 - ratio(compute, N_WORKERS * run_s), "ratio"),
        "execution.batch_work.time_s": (n("execution.batch_work")["time_s"], "s"),
        "execution.proposal_work.time_s": (n("execution.proposal_work")["time_s"], "s"),
        "execution.job.time_s": (n("execution.job", wnames)["time_s"], "s"),
    })
    for engine in ("sqlite", "netstore"):
        for op in ("claim", "record_many", "renew"):
            m[f"store.{engine}.{op}.calls"] = (n(f"store.{engine}.{op}")["calls"], "count")
        for op in ("claim", "record_many", "completed_ids", "records"):
            key = f"store.{engine}.{op}"  # master writes + status reads
            m[f"{key}.time_s"] = (n(key)["time_s"] + n(key, rnames)["time_s"], "s")
    both = counts.get("scheduler.both", 0)
    m.update({
        "store.records_per_write": (ratio(counts.get("store.records_written", 0),
                                          counts.get("store.writes", 0)), "records/write"),
        "store.server.cpu_s": (rep["cpu_server"], "s"),
        "scheduler.select.calls": (n("scheduler.select")["calls"], "count"),
        "scheduler.select.time_s": (n("scheduler.select")["time_s"], "s"),
        "scheduler.share.tenant-a": (ratio(counts.get("scheduler.both.tenant-a", 0), both),
                                     "ratio"),
        "campaign.status_s": (statistics.median(tr["status_passes"]), "s"),
        "spec.expand.time_s": (n("spec.expand")["time_s"] + n("spec.job_id")["time_s"], "s"),
        "runner.run_s": (root["run_s"], "s"),
        "runner.self_s": (root["self_s"], "s"),
        "proc.master.cpu_s": (rep["cpu_master"], "s"),
        "proc.workers.cpu_s": (rep["cpu_workers"], "s"),
        "proc.store_server.cpu_s": (rep["cpu_server"], "s"),
        "proc.master.threads_peak": (rep["threads_peak"], "count"),
        "trace.overhead_ratio": (ratio(rep["done"] / run_s, untraced_jobs_per_s), "ratio"),
        "trace.unaccounted_share": (ratio(root["self_s"], root["run_s"]), "ratio"),
    })
    return m


def layer_table(workload: str, rep: dict) -> str:
    """Per-layer calls, time and self time of one traced repetition."""
    lines = [f"per-layer table [{workload}] (run {rep['run_s']:.3f} s, "
             f"{rep['done']} jobs)",
             f"  {'side':<8}{'layer':<28}{'calls':>10}{'time_s':>11}{'self_s':>11}"]
    for side in ("master", "workers", "reader"):
        layers = rep["trace"][side]["layers"]
        for layer in sorted(layers, key=lambda k: -layers[k]["self_s"]):
            row = layers[layer]
            lines.append(f"  {side:<8}{layer:<28}{row['calls']:>10}"
                         f"{row['time_s']:>11.4f}{row['self_s']:>11.4f}")
    root = rep["trace"]["master"]["root"]
    if root:
        lines.append(f"  unaccounted (root self) {root['self_s']:.4f} s of "
                     f"{root['run_s']:.4f} s")
    return "\n".join(lines)


def run(workload: str, args):
    """Repeat ``workload`` for ``args.seconds``; its result object, or None."""
    started = time.monotonic()
    reps = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        bound = min(REP_BOUND_S, RUN_BOUND_S - (time.monotonic() - started))
        t_rep = time.monotonic()
        try:
            rep = run_rep(workload, args.seed, len(reps), traced, bound)
        except RepFailed as exc:
            print(f"FAILED: {exc}", file=sys.stderr, flush=True)
            return None
        rep["wall_s"] = time.monotonic() - t_rep
        reps.append(rep)
        print(f"{workload} rep {len(reps) - 1}{' (traced)' if traced else ''}: "
              f"setup {rep['setup_s']:.3f} s, run {rep['run_s']:.3f} s, "
              f"{rep['done']} jobs, {rep['evals']} evals", flush=True)
        elapsed = time.monotonic() - started
        need = 2 if args.trace else 1
        # Start another repetition only if a slightly slower one ends in time.
        slowest = max(r["wall_s"] for r in reps)
        if len(reps) >= need and elapsed + 1.1 * slowest > min(args.seconds, RUN_BOUND_S):
            break
    untraced = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    if args.trace:
        base = statistics.median(r["done"] / r["run_s"] for r in untraced)
        layers = [per_layer(r, base) for r in traced_reps]
        metrics = {k: (statistics.median(l[k][0] for l in layers), layers[0][k][1])
                   for k in layers[0]}
        print(layer_table(workload, traced_reps[-1]))
    else:
        metrics = end_to_end(untraced)
    for name, (value, unit) in metrics.items():
        print(f"  {workload} {name:<40} {value:>14.6g} {unit}")
    return {
        "correct": True,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["attempted"] - r["done"] for r in reps),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    faulthandler.enable()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    signal.signal(signal.SIGALRM, _bound_reached)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {}
        for workload in workloads:
            faulthandler.dump_traceback_later(RUN_BOUND_S + 5, exit=True)
            results[workload] = run(workload, args)
            if results[workload] is None:
                return 1
        faulthandler.cancel_dump_traceback_later()
        if len(results) == 1:
            print(json.dumps(results[workloads[0]]))
        else:
            print(json.dumps({
                "correct": True,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}/{k}": v for w, r in results.items()
                            for k, v in r["metrics"].items()},
            }))
        return 0
    finally:
        try:
            RUNS.rmdir()  # only once empty: concurrent runs share it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
