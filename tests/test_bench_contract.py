"""The library surface that the benchmark harness in ``bench/`` relies on.

``bench/tracer.py`` wraps every function its ``TARGETS`` table names and
reports a missing one as absent; ``bench/run.py`` probes ``estimate`` for
``n_jobs`` and reads a workload's result from the last line of its stdout,
as JSON with every metric a number.  So every target must resolve, library
calls must print nothing, traced or not, and a trace must yield finite
metrics.
"""
import importlib.util
import inspect
import json
import math
from pathlib import Path

from leosec import analytics, cli, experiments, montecarlo

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves_to_a_callable():
    tracer = _load_tracer().Tracer()
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
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        analytics.full_report(table2)
        experiments.optimize_gamma(table2, grid_points=3)
        experiments.validate(table2, 300, 1)
        montecarlo.run_trial(table2, 1)
        out = tmp_path / "report.json"
        assert cli.main(["analyze", "--preset", "table2", "--out", str(out)]) == cli.EXIT_OK
    finally:
        tracer.restore()
    assert capsys.readouterr().out == ""
    metrics = tracer.metrics()
    bad = {name: v for name, v in metrics.items()
           if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v)}
    assert bad == {}
    json.dumps(metrics, allow_nan=False)
