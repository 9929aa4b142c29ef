"""The library surface that the benchmark harness in ``bench/`` relies on.

``bench/tracer.py`` wraps every function its ``TARGETS`` table names and
reports a missing one as absent; ``bench/run.py`` probes ``estimate`` for
``n_jobs`` in its thread probe and reads a workload's result from the last
line of its stdout, as JSON with every metric a number.  So every target
must resolve, library calls must print nothing, traced or not, and a trace
and the thread probe must yield finite metrics.
"""
import importlib.util
import inspect
import json
import math
import os
from pathlib import Path

from leosec import analytics, cli, experiments, montecarlo

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves_to_a_callable():
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        assert tracer.absent == set()
    finally:
        tracer.restore()


def test_estimate_accepts_n_jobs():
    assert "n_jobs" in inspect.signature(montecarlo.estimate).parameters


def test_library_calls_write_nothing_to_stdout(table2, tmp_path, capsys):
    analytics.full_report(table2)
    montecarlo.estimate(table2, 300, 1)
    experiments.validate(table2, 300, 1)
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--preset", "table2", "--out", str(out)]) == cli.EXIT_OK
    assert out.read_text()
    assert capsys.readouterr().out == ""


def test_traced_unit_yields_finite_metrics(table2, tmp_path, capsys):
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        analytics.full_report(table2)
        experiments.optimize_gamma(table2, grid_points=3)
        # gamma 0.05 is under the jamming ceiling, 0.5 above it
        experiments.sweep(table2, experiments.SweepSpec(axis1=("gamma", (0.05, 0.5))))
        experiments.validate(table2, 300, 1)
        montecarlo.run_trial(table2, 1)
        out = tmp_path / "report.json"
        assert cli.main(["analyze", "--preset", "table2", "--out", str(out)]) == cli.EXIT_OK
    finally:
        tracer.restore()
    assert capsys.readouterr().out == ""
    metrics = tracer.metrics()
    # run.py adds its Monte Carlo thread probe to the per-layer metrics; a
    # 2-thread rate may be absent only where this process has one CPU
    probe = _load("run")._thread_probe()
    if len(os.sched_getaffinity(0)) < 2:
        probe = {name: v for name, v in probe.items() if v is not None}
    metrics.update(probe)
    bad = {name: v for name, v in metrics.items()
           if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v)}
    assert bad == {}
    json.dumps(metrics, allow_nan=False)
