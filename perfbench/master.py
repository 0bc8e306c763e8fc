"""Master process of one benchmark workload run.

Started by ``run.py`` with the path of a generated config: it sets the
workload up through the public campaign API (write ``spec.json``, open
the stores, expand the grid), prints ``READY``, waits for ``GO`` on
stdin (the driver spawns the mw workers in between), then times the
single ``Campaign.run`` / ``MultiCampaignMaster.serve`` call and writes
its measurements as JSON.  With ``"trace": true`` it first wraps the
public functions of every master-side layer (see :func:`install_tracing`)
and writes the recorded spans too.

The driver measures this process from outside (CPU time and peak RSS by
``os.wait4``), so nothing here reads its own resource usage.
"""

from __future__ import annotations

import faulthandler
import functools
import json
import signal
import sys
import time


def install_tracing(tracer) -> None:
    """Wrap the public functions of each master-side layer with spans."""
    from repro.campaign import execution
    from repro.campaign.backends.netstore import NetworkStoreBackend
    from repro.campaign.backends.sqlite import SQLiteStoreBackend
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.scheduler import CampaignScheduler, MultiCampaignMaster
    from repro.campaign.spec import CampaignSpec, Job
    from repro.core.async_driver import AsyncEvalDriver
    from repro.core.base import SimplexOptimizer
    from repro.mw import messages
    from repro.mw.driver import MWDriver
    from repro.noise.stochastic import StochasticFunction

    count = tracer.count

    def after_ask(args, proposals, _):
        count("core.ask.proposals", len(proposals))
        count("core.ask.refine",
              sum(1 for p in proposals if p.label.startswith("refine:")))

    def after_tell_many(args, statuses, _):
        count("core.tell.told", len(statuses))
        count("core.tell.stale",
              sum(1 for s in statuses if s in ("stale", "duplicate")))

    def after_tell(args, status, _):
        after_tell_many(args, [status], None)

    tracer.wrap(SimplexOptimizer, "ask", "core.ask", after=after_ask)
    tracer.wrap(SimplexOptimizer, "tell", "core.tell", after=after_tell)
    tracer.wrap(SimplexOptimizer, "tell_many", "core.tell", after=after_tell_many)
    tracer.wrap(AsyncEvalDriver, "run", "core.driver.run")
    tracer.wrap(StochasticFunction, "merge_external", "noise.merge")
    tracer.wrap(StochasticFunction, "merge_external_batch", "noise.merge")

    # encode_message/decode_message resolve pack/unpack in this module.
    tracer.wrap(messages, "pack", "mw.codec.pack",
                after=lambda a, data, _: count("mw.codec.pack.bytes", len(data)))
    tracer.wrap(messages, "unpack", "mw.codec.unpack",
                after=lambda a, obj, _: count("mw.codec.unpack.bytes", len(a[0])))
    tracer.wrap(MWDriver, "submit", "mw.submit")
    tracer.wrap(MWDriver, "pump", "mw.pump")

    tracer.wrap(execution, "batch_proposal_work", "execution.batch_work")
    tracer.wrap(execution, "proposal_work", "execution.proposal_work")

    def after_record_many(args, _result, _ctx):
        count("store.records_written", len(args[1]))
        count("store.writes")

    for engine, cls in (("sqlite", SQLiteStoreBackend),
                        ("netstore", NetworkStoreBackend)):
        for op in ("claim", "record_many", "renew", "release",
                   "completed_ids", "records", "leases"):
            tracer.wrap(cls, op, f"store.{engine}.{op}",
                        after=after_record_many if op == "record_many" else None)

    def backlogged(args):
        tenants = list(args[0].tenants.values())
        return len(tenants) > 1 and all(t.depth() for t in tenants)

    def after_select(args, selected, both):
        if selected is not None and both:
            count("scheduler.both")
            count(f"scheduler.both.{selected[0]}")

    tracer.wrap(CampaignScheduler, "select", "scheduler.select",
                before=backlogged, after=after_select)
    tracer.wrap(CampaignSpec, "expand", "spec.expand")
    job_id = functools.cached_property(
        tracer.traced(Job.__dict__["job_id"].func, "spec.job_id"))
    job_id.__set_name__(Job, "job_id")
    Job.job_id = job_id

    tracer.wrap(CampaignRunner, "run", "runner.run", root=True)
    tracer.wrap(MultiCampaignMaster, "serve", "runner.serve", root=True)


def main(config_path: str) -> int:
    with open(config_path) as fh:
        cfg = json.load(fh)
    faulthandler.register(signal.SIGUSR1, all_threads=True)

    from repro.campaign import Campaign, CampaignSpec, MultiCampaignMaster
    from repro.core.async_driver import AsyncEvalDriver
    from repro.mw.driver import MWDriver

    tracer = None
    if cfg["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        install_tracing(tracer)

    # What AsyncEvalDriver.run returns (evaluations submitted, frames) and
    # each MWDriver's task counts at shutdown: one call per claimed batch
    # or per MWDriver, so capturing them costs nothing measurable.
    # run.py checks them for exactly-once execution and the traced run
    # reports them per layer.
    driver_stats = {"submitted": 0, "frames": 0}
    mw_stats = {"n_tasks": 0, "done": 0, "failed": 0, "requeues": 0,
                "replies": 0, "utilization": []}
    driver_run = AsyncEvalDriver.run
    shutdown = MWDriver.shutdown

    def counting_run(self, sources, on_finished):
        out = driver_run(self, sources, on_finished)
        driver_stats["submitted"] += out["submitted"]
        driver_stats["frames"] += out["frames"]
        return out

    def counting_shutdown(self):
        if not self._shutdown:
            stats, util = self.stats(), self.utilization()
            for key in ("n_tasks", "done", "failed"):
                mw_stats[key] += stats[key]
            mw_stats["requeues"] += sum(max(0, t.attempts - 1)
                                        for t in self.tasks.values())
            mw_stats["replies"] += sum(row["tasks"] for row in util)
            mw_stats["utilization"] += util
        return shutdown(self)

    AsyncEvalDriver.run = counting_run
    MWDriver.shutdown = counting_shutdown

    url = cfg["transport"]
    if cfg["kind"] == "serve":
        for tenant in cfg["tenants"]:
            Campaign(tenant["directory"], spec=CampaignSpec(**tenant["spec"]),
                     store=tenant["store"]).store.close()
        master = MultiCampaignMaster(
            [t["directory"] for t in cfg["tenants"]], transport=url,
            max_workers=cfg["workers"], weights=cfg["weights"],
        )
        for tenant in master.tenants.values():
            tenant.campaign.jobs()

        def call():
            reports = master.serve(timeout=cfg["bound_s"])
            return {name: (r.n_done, r.n_failed) for name, r in reports.items()}
    else:
        campaign = Campaign(cfg["directory"], spec=CampaignSpec(**cfg["spec"]),
                            store="sqlite")
        campaign.jobs()

        def call():
            r = campaign.run(
                backend="mw", mw_transport=url, max_workers=cfg["workers"],
                async_mode=True, eval_batch=cfg["eval_batch"],
                batch_size=cfg["batch_size"], max_inflight=cfg["max_inflight"],
            )
            return {campaign.spec.name: (r.n_done, r.n_failed)}

    print("READY", flush=True)
    if sys.stdin.readline().strip() != "GO":
        return 3
    t_go = time.monotonic()
    t0 = time.perf_counter()
    reports = call()
    run_s = time.perf_counter() - t0
    with open(cfg["out"], "w") as fh:
        json.dump({"t_go": t_go, "run_s": run_s, "reports": reports,
                   "driver": driver_stats, "mw": mw_stats}, fh)
    if tracer is not None:
        tracer.dump(cfg["trace_out"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
