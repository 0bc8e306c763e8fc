"""Time the campaign read path of one finished, traced benchmark repetition.

Started by ``run.py`` after the master of a traced repetition has
exited, as a fresh process (so the timing does not depend on what the
``run.py`` process did before): it opens every campaign directory named in
the config, runs back-to-back ``Campaign.status()`` + ``summary()``
passes over all of them for ``window_s`` seconds (at least one), and
writes each pass's seconds as JSON, plus the spans of the store read
functions it wraps.
"""

from __future__ import annotations

import faulthandler
import json
import signal
import sys
import time


def main(config_path: str) -> int:
    with open(config_path) as fh:
        cfg = json.load(fh)
    faulthandler.register(signal.SIGUSR1, all_threads=True)

    from repro.campaign import Campaign
    from repro.campaign.backends.netstore import NetworkStoreBackend
    from repro.campaign.backends.sqlite import SQLiteStoreBackend
    from tracing import Tracer

    tracer = Tracer()
    for engine, cls in (("sqlite", SQLiteStoreBackend),
                        ("netstore", NetworkStoreBackend)):
        for op in ("records", "completed_ids", "leases"):
            tracer.wrap(cls, op, f"store.{engine}.{op}")

    campaigns = [Campaign(directory) for directory in cfg["directories"]]
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < cfg["window_s"]:
        t0 = time.perf_counter()
        for campaign in campaigns:
            campaign.status()
            campaign.summary()
        passes.append(time.perf_counter() - t0)
    for campaign in campaigns:
        campaign.store.close()
    with open(cfg["out"], "w") as fh:
        json.dump({"passes": passes}, fh)
    tracer.dump(cfg["trace_out"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
