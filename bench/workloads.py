"""The benchmark's three workloads and their output checks.

Each workload is a closed loop: one caller on one thread sends its next
call only after the previous one returned.  The library sees only the
inputs built here from the seed.  Library functions are looked up through
their modules at call time (``experiments.sweep``, not a bound name), so the
tracer's patches see every call the benchmark makes.

* ``table2_design``: a 19-point analytic ``gamma`` sweep, ``optimize_gamma``
  on its default grid and one fresh ``leosec analyze`` process, repeated on
  the ``table2`` preset.  The geometry never changes, so this is where
  per-tier kernel caching and axis batching pay off; Monte Carlo is idle.
* ``scenario_mix``: ``full_report`` over distinct random valid configs
  (see ``scenarios.py``).  Every call has new geometry, so a geometry-keyed
  cache never hits, and the known failure classes stay in.
* ``table2_validate``: ``validate`` at 10^4 trials on ``table2``; the Monte
  Carlo oracle takes about 99% of the time.
"""
from __future__ import annotations

import collections
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import scenarios
from leosec import analytics, cli, config, experiments

# No looser than the 1e-6 by which the acceptance suite lets a quadrature
# change move a metric.
TOL = 1e-6
# optimize_gamma's golden-section search stops on a 1e-3 bracket; a
# quadrature change that flips one comparison may land anywhere in it.
GAMMA_STAR_TOL = 2e-3
# Coverage is at most availability; allow for rounding in the quadrature.
INVARIANT_SLACK = 1e-12

GAMMA_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))
VALIDATE_TRIALS = 10_000
# The cold call of table2_validate: same config and seed, a tenth of the
# trials, so one-time costs show without timing the full call twice.
COLD_VALIDATE_TRIALS = 1_000
# Configs per scenario_mix run: a nominal 5 per second of --seconds, and at
# least 100 so the p90 has ten samples beyond it.
SCENARIOS_PER_SECOND = 5
MIN_SCENARIOS = 100
# Timed repetitions a time-boxed workload makes at least.
MIN_REPS = 3

REFERENCES = Path(__file__).with_name("references.json")


@dataclass
class Tally:
    """Operations attempted and how they ended.

    A raised exception and an output that fails its check both count as
    failed; ``mismatches`` counts outputs that contradict a reference or an
    invariant, and calls that raise where the recording commit returned.
    """

    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    outcomes: collections.Counter = field(default_factory=collections.Counter)
    notes: list = field(default_factory=list)

    def record(self, what: str, outcome: str, mismatch: str | None = None) -> None:
        self.attempted += 1
        self.outcomes[outcome] += 1
        if mismatch is not None:
            self.mismatches += 1
            self.notes.append(f"{what}: {mismatch}")
        if outcome != "ok" or mismatch is not None:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return self.mismatches == 0


def outcome_class(exc: BaseException | None) -> str:
    if exc is None:
        return "ok"
    if type(exc).__name__ == "QuadratureError":
        return "QuadratureError"
    if isinstance(exc, ValueError):
        return "ValueError"
    return "other"


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def report_doc(report, legit_tier: int) -> dict:
    return {"p_av_per_tier": list(report.p_av_per_tier),
            "p_cov": report.p_cov, "p_suc": report.p_suc,
            "p_out": report.p_out, "p_sec": report.p_sec,
            "p_av": report.p_av_per_tier[legit_tier]}


def _diff(got: dict, ref: dict, tol: float = TOL) -> str | None:
    """First key where ``got`` strays from ``ref`` by more than ``tol``."""
    for key, want in ref.items():
        have = got.get(key)
        if isinstance(want, list):
            if not isinstance(have, list) or len(have) != len(want):
                return f"{key}: got {have!r}, want {want!r}"
            bad = [i for i, (h, w) in enumerate(zip(have, want)) if not abs(h - w) <= tol]
            if bad:
                return f"{key}[{bad[0]}]: got {have[bad[0]]!r}, want {want[bad[0]]!r}"
        elif not isinstance(have, (int, float)) or not abs(have - want) <= tol:
            return f"{key}: got {have!r}, want {want!r}"
    return None


def _invariant_violation(doc: dict) -> str | None:
    values = doc["p_av_per_tier"] + [doc[k] for k in ("p_cov", "p_suc", "p_out", "p_sec")]
    if not all(0.0 <= v <= 1.0 for v in values):
        return f"value outside [0, 1]: {values}"
    if doc["p_cov"] > doc["p_av"] + INVARIANT_SLACK:
        return f"p_cov {doc['p_cov']} > p_av {doc['p_av']}"
    if doc["p_sec"] > doc["p_suc"]:
        return f"p_sec {doc['p_sec']} > p_suc {doc['p_suc']}"
    return None


def _timed(fn, *args, **kwargs):
    """(result, exception, seconds) of one call."""
    start = time.perf_counter()
    try:
        result, exc = fn(*args, **kwargs), None
    except Exception as e:  # the benchmark keeps going and counts it
        result, exc = None, e
    return result, exc, time.perf_counter() - start


class Workload:
    """One workload: ``cold`` is the first call a fresh process makes,
    ``measure`` the untraced timed loop, ``unit`` the fixed work a traced
    run traces.  Timings are in seconds; ``op`` is one operation."""

    name = ""

    def __init__(self, root: Path, seed: int, seconds: float, refs: dict):
        self.root, self.seed, self.seconds, self.refs = root, seed, seconds, refs
        self.table2 = config.table2_config()
        self.table2_ref = refs["table2"]["report"]

    def cold(self, tally: Tally) -> None:
        raise NotImplementedError

    def warm_up(self, tally: Tally, out_dir: Path | None = None) -> None:
        """Checked and counted, never timed: lets lazy set-up finish."""
        raise NotImplementedError

    def measure(self, tally: Tally) -> tuple[dict[str, list[float]], float]:
        raise NotImplementedError

    def unit(self, tally: Tally, out_dir: Path) -> None:
        raise NotImplementedError

    def named(self, samples: dict[str, list[float]], elapsed: float) -> list[tuple]:
        """The workload's own end-to-end metrics: (name, value, unit, samples)."""
        raise NotImplementedError

    def _time_boxed(self, step, tally: Tally) -> tuple[dict[str, list[float]], float]:
        """Repeat ``step`` while the next repetition should end within
        ``seconds``; at least MIN_REPS times."""
        samples: dict[str, list[float]] = collections.defaultdict(list)
        start = time.perf_counter()
        while True:
            for key, value in step(tally).items():
                samples[key].append(value)
            elapsed = time.perf_counter() - start
            reps = len(samples["op"])
            if reps >= MIN_REPS and elapsed * (reps + 1) / reps > self.seconds:
                return dict(samples), elapsed


class Table2Design(Workload):
    name = "table2_design"

    def __init__(self, *args):
        super().__init__(*args)
        self.spec = experiments.SweepSpec(axis1=("gamma", GAMMA_GRID), metric="p_sec")
        self.env = child_env(self.root)

    def _sweep(self, tally: Tally) -> float:
        rows, exc, dt = _timed(experiments.sweep, self.table2, self.spec)
        mismatch = None
        if exc is None:
            got = {"p_sec": [r.value for r in rows], "gamma": [r.axis1 for r in rows]}
            mismatch = _diff(got, {"p_sec": self.refs["table2"]["sweep_gamma_p_sec"],
                                   "gamma": list(GAMMA_GRID)})
        tally.record("sweep", outcome_class(exc), mismatch if exc is None else repr(exc))
        return dt

    def _optimize(self, tally: Tally) -> float:
        best, exc, dt = _timed(experiments.optimize_gamma, self.table2)
        mismatch = repr(exc) if exc is not None else None
        if exc is None:
            ref = self.refs["table2"]["optimize"]
            mismatch = (_diff({"p_sec_star": best[1]}, {"p_sec_star": ref["p_sec_star"]})
                        or _diff({"gamma_star": best[0]}, {"gamma_star": ref["gamma_star"]},
                                 GAMMA_STAR_TOL))
        tally.record("optimize_gamma", outcome_class(exc), mismatch)
        return dt

    def _cli_process(self, tally: Tally) -> float:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "leosec", "analyze", "--preset", "table2"],
                              cwd=self.root, env=self.env, capture_output=True, text=True,
                              timeout=120)
        dt = time.perf_counter() - start
        self._check_cli("leosec analyze", proc.returncode, proc.stdout, tally)
        return dt

    def _cli_in_process(self, tally: Tally, out_dir: Path) -> float:
        out = out_dir / "analyze.json"
        code, exc, dt = _timed(cli.main, ["analyze", "--preset", "table2", "--out", str(out)])
        text = out.read_text(encoding="utf-8") if exc is None and out.exists() else ""
        self._check_cli("cli.main analyze", -1 if exc else code, text, tally)
        return dt

    def _check_cli(self, what: str, code: int, text: str, tally: Tally) -> None:
        mismatch = f"exit code {code}" if code != 0 else None
        if mismatch is None:
            try:
                mismatch = _diff(json.loads(text), self.table2_ref)
            except json.JSONDecodeError as e:
                mismatch = f"output is not JSON: {e}"
        tally.record(what, "ok" if code == 0 else "other", mismatch)

    def _round(self, tally: Tally, out_dir: Path | None = None) -> dict[str, float]:
        sweep_s = self._sweep(tally)
        optimize_s = self._optimize(tally)
        cli_s = (self._cli_process(tally) if out_dir is None
                 else self._cli_in_process(tally, out_dir))
        return {"gamma_sweep_s": sweep_s, "optimize_s": optimize_s, "cli_analyze_s": cli_s,
                "op": sweep_s + optimize_s + cli_s}

    def cold(self, tally):
        self._sweep(tally)

    def warm_up(self, tally, out_dir=None):
        self._round(tally, out_dir)

    def measure(self, tally):
        self.warm_up(tally)
        return self._time_boxed(self._round, tally)

    def unit(self, tally, out_dir: Path):
        self._round(tally, out_dir)

    def named(self, samples, elapsed):
        return [(key, statistics.median(samples[key]), "s", len(samples[key]))
                for key in ("gamma_sweep_s", "optimize_s", "cli_analyze_s")]


class ScenarioMix(Workload):
    name = "scenario_mix"

    def __init__(self, *args):
        super().__init__(*args)
        pool = self.refs["pool"]["entries"]
        base = config.config_to_dict(self.table2)
        n = min(len(pool), max(MIN_SCENARIOS, round(SCENARIOS_PER_SECOND * self.seconds)))
        self.entries = [pool[i] for i in scenarios.select(pool, self.seed, n)]
        self.configs = [scenarios.to_config(e, base) for e in self.entries]

    def _one(self, tally: Tally, i: int) -> float:
        cfg, entry = self.configs[i], self.entries[i]
        report, exc, dt = _timed(analytics.full_report, cfg)
        mismatch = None
        if entry["outcome"] == "ok":
            mismatch = (repr(exc) if exc is not None
                        else _diff(report_doc(report, cfg.legit_tier), entry["report"]))
        elif exc is None:
            mismatch = _invariant_violation(report_doc(report, cfg.legit_tier))
        tally.record(f"full_report(pool entry {entry['index']})", outcome_class(exc), mismatch)
        return dt

    def warm_up(self, tally, out_dir=None):
        """full_report on table2, whose geometry no pool config shares."""
        report, exc, _ = _timed(analytics.full_report, self.table2)
        mismatch = repr(exc) if exc else _diff(report_doc(report, self.table2.legit_tier),
                                               self.table2_ref)
        tally.record("full_report(table2)", outcome_class(exc), mismatch)

    def cold(self, tally):
        self.warm_up(tally)

    def measure(self, tally):
        self.warm_up(tally)
        start = time.perf_counter()
        op = [self._one(tally, i) for i in range(len(self.configs))]
        return {"op": op}, time.perf_counter() - start

    def unit(self, tally, out_dir=None):
        for i in range(len(self.configs)):
            self._one(tally, i)

    def named(self, samples, elapsed):
        op = samples["op"]
        return [("scenarios_per_s", len(op) / elapsed, "1/s", len(op)),
                ("scenario_ms_p50", 1e3 * statistics.median(op), "ms", len(op)),
                ("scenario_ms_p90", 1e3 * statistics.quantiles(op, n=10)[8], "ms", len(op))]


class Table2Validate(Workload):
    name = "table2_validate"

    def _validate(self, tally: Tally, n_trials: int, check_band: bool) -> float:
        rows, exc, dt = _timed(experiments.validate, self.table2, n_trials, self.seed)
        mismatch = repr(exc) if exc is not None else None
        if exc is None:
            ref = self.table2_ref
            want = [f"p_av_{k}" for k in range(len(ref["p_av_per_tier"]))] + [
                "p_cov", "p_suc", "p_out", "p_sec"]
            if [r.metric for r in rows] != want:
                mismatch = f"rows {[r.metric for r in rows]}, want {want}"
            else:
                got = {"p_av_per_tier": [r.analytic for r in rows[:-4]],
                       **{r.metric: r.analytic for r in rows[-4:]}}
                mismatch = _diff(got, {k: ref[k] for k in got})
            failing = [r.metric for r in rows if not r.passed]
            if mismatch is None and check_band and failing:
                mismatch = f"rows outside their band: {failing}"
        tally.record(f"validate({n_trials} trials)", outcome_class(exc), mismatch)
        return dt

    def _full(self, tally: Tally) -> dict[str, float]:
        return {"op": self._validate(tally, VALIDATE_TRIALS, check_band=True)}

    def cold(self, tally):
        self._validate(tally, COLD_VALIDATE_TRIALS, check_band=False)

    def warm_up(self, tally, out_dir=None):
        self.cold(tally)

    def measure(self, tally):
        self.warm_up(tally)
        return self._time_boxed(self._full, tally)

    def unit(self, tally, out_dir=None):
        self._full(tally)

    def named(self, samples, elapsed):
        return [("validate_s", statistics.median(samples["op"]), "s", len(samples["op"]))]


WORKLOADS = {w.name: w for w in (Table2Design, ScenarioMix, Table2Validate)}


def child_env(root: Path) -> dict:
    """Environment for child interpreters: the checkout's package, one
    simulator thread."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["LEOSEC_THREADS"] = "1"
    return env
