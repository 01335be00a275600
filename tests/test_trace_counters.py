"""Every per-layer counter a benchmark workload requires reads nonzero.

A traced benchmark run (``perfbench/run.py --trace 1``) exits 1 when one
of the ``tracing.REQUIRED`` counters of its workload is zero, for instance
because a library change routes work around a wrapped function.  This
guard runs one pass of each workload under the tracer in process, checks
every output, and reads the same table.  ``trace.overhead_frac`` is left
out: it needs the untraced half of a real run.
"""

import importlib.util
import os

import pytest

from golden_cases import ROOT


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(ROOT, "perfbench", name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_required_counters_are_nonzero(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    jobs = next(workloads.WORKLOADS[name](1).passes())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        failures = [job.check(job.call()) for job in jobs]
        table = tracer.table(len(jobs), 1.0, 1.0)
    finally:
        tracer.remove()
    assert [f for f in failures if f is not None] == []
    zero = [key for key in tracing.REQUIRED[name]
            if key != "trace.overhead_frac" and not table[key][0]]
    assert zero == []
