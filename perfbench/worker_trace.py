"""Traced executors for the mw workers of the benchmark's traced run.

Workers of a traced run start as ``mw-worker URL --executor
worker_trace:eval_executor`` (or ``:job_executor``).  Resolving that
spec imports this module, and the import wraps the worker-side layers:
``TestFunction.__call__`` and every suite kernel's ``batch`` (the
``repro.functions`` layer) plus the campaign executors themselves (the
``repro.campaign.execution`` layer; their summed time is the worker's
compute time).  At exit the process writes its spans to
``$PERFBENCH_TRACE_DIR/worker-<pid>.json``.  Import-time wrapping is the
point: the executor spec is the only hook a worker offers.
"""

from __future__ import annotations

import atexit
import os

import repro.functions  # noqa: F401 - registers every TestFunction subclass
from repro.campaign import execution
from repro.functions.suite import TestFunction
from tracing import Tracer

TRACER = Tracer()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


for _cls in (TestFunction, *_subclasses(TestFunction)):
    if "batch" in _cls.__dict__:
        TRACER.wrap(_cls, "batch", "functions.batch")
TRACER.wrap(TestFunction, "__call__", "functions.call")

#: ``mw_eval_executor`` (async evaluation frames), traced.
eval_executor = TRACER.traced(execution.mw_eval_executor, "execution.eval")
#: ``mw_job_executor`` (whole jobs, ``campaign serve``), traced.
job_executor = TRACER.traced(execution.mw_job_executor, "execution.job")


def _dump() -> None:
    out = os.environ.get("PERFBENCH_TRACE_DIR")
    if out:
        TRACER.dump(os.path.join(out, f"worker-{os.getpid()}.json"))


atexit.register(_dump)
