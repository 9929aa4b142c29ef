"""leosec benchmark: end-to-end metrics untraced, per-layer metrics traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are ``table2_design``, ``scenario_mix`` and ``table2_validate``
(see ``workloads.py`` and ``README.md``).  Human-readable lines come first;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, from untraced runs only; with ``--trace 1`` they are the
per-layer ones, from a run of the workload's fixed unit of work under the
outside-in tracer.  Every run also writes its metadata and all its numbers
to ``.bench-out/``, and a traced run writes its spans there.

The benchmark imports the package from the checkout's ``src`` and exits
with status 2, printing no result, when it is not there.
"""
from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench-out"

# Fresh-interpreter set-up probes per untraced run; setup_s is their median.
SETUP_PROBES = 3
# Fresh interpreters timing ``import leosec.cli``; cli.import_s is the median.
IMPORT_PROBES = 3
# Trials per Monte Carlo thread-scaling probe.
PROBE_TRIALS = 2_000
PROBE_SEED = 1
CHILD_TIMEOUT_S = 150


def _die(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--unit-only", action="store_true",
                   help="time the workload's traced unit of work untraced and print it "
                        "(a traced run starts this in a child to get the tracing overhead)")
    return p.parse_args(argv)


def git_sha(root: Path) -> str:
    """HEAD's commit id, read from the checkout's .git directory."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metadata(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(ROOT),
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _child(cmd: list[str], env: dict) -> tuple[subprocess.CompletedProcess, float]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return proc, time.perf_counter() - start


def _setup_probes(args, env, tally) -> list[float]:
    times = []
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), args.workload, str(args.seed),
           str(args.seconds)]
    for _ in range(SETUP_PROBES):
        proc, dt = _child(cmd, env)
        times.append(dt)
        if proc.returncode != 0:
            tally.record("set-up probe", "other",
                         f"exited {proc.returncode}: {proc.stderr.strip()}")
    return times


def _import_probes(env) -> float:
    code = ("import time; t = time.perf_counter(); import leosec.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        proc, _ = _child([sys.executable, "-c", code], env)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return statistics.median(times)


def _thread_probe() -> dict[str, float | None]:
    """Monte Carlo trials/s at n_jobs 1 and 2, through estimate's own
    argument, never above the CPUs this process may use; untraced."""
    from leosec import config, montecarlo

    cfg = config.table2_config()
    has_jobs = "n_jobs" in inspect.signature(montecarlo.estimate).parameters
    out = {}
    for jobs, key in ((1, "montecarlo.trials_per_s"), (2, "montecarlo.trials_per_s_2threads")):
        if jobs > 1 and (not has_jobs or jobs > len(os.sched_getaffinity(0))):
            out[key] = None
            continue
        kwargs = {"n_jobs": jobs} if has_jobs else {}
        start = time.perf_counter()
        montecarlo.estimate(cfg, PROBE_TRIALS, PROBE_SEED, **kwargs)
        out[key] = PROBE_TRIALS / (time.perf_counter() - start)
    return out


PER_LAYER_UNITS = (
    (".self_s", "s"), (".import_s", "s"), (".overhead_s", "s"), (".s", "s"),
    ("_per_s", "1/s"), ("_2threads", "1/s"), ("_ratio", "ratio"),
)


def per_layer_unit(name: str) -> str:
    return next((unit for suffix, unit in PER_LAYER_UNITS if name.endswith(suffix)), "count")


def _print_table(rows: list[tuple], meta: dict, tally) -> None:
    print(f"# leosec benchmark: workload={meta['workload']} seed={meta['seed']} "
          f"seconds={meta['seconds']} trace={meta['trace']}")
    print(f"# git_sha={meta['git_sha']} python={meta['python']} numpy={meta['numpy']} "
          f"nproc={meta['nproc']} affinity_cpus={meta['affinity_cpus']}")
    for name, value, unit, n in rows:
        shown = ("absent" if value is None else str(value) if isinstance(value, int)
                 else f"{value:.6g}")
        samples = "" if n is None else f"  (n={n})"
        print(f"{name:48s} {shown:>14s} {unit}{samples}")
    outcomes = " ".join(f"{k}={v}" for k, v in sorted(tally.outcomes.items()))
    print(f"# operations: attempted={tally.attempted} failed={tally.failed} "
          f"mismatches={tally.mismatches} outcomes: {outcomes}")
    for note in tally.notes:
        print(f"mismatch: {note}", file=sys.stderr)


def _finish(args, meta, rows, tally, metrics: dict) -> int:
    _print_table(rows, meta, tally)
    OUT.mkdir(exist_ok=True)
    record = {**meta, "attempted": tally.attempted, "failed": tally.failed,
              "mismatches": tally.mismatches, "outcomes": dict(tally.outcomes),
              "notes": tally.notes,
              "metrics": [{"name": n, "value": v, "unit": u, "samples": k}
                          for n, v, u, k in rows]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_untraced(args, workload, tally, env, meta) -> int:
    setup = _setup_probes(args, env, tally)
    samples, elapsed = workload.measure(tally)
    op = samples["op"]
    rows = [("setup_s", statistics.median(setup), "s", len(setup)),
            ("peak_rss_mb", _peak_rss_mb(), "MB", None),
            ("fail_ratio", tally.failed / tally.attempted, "ratio", tally.attempted),
            *workload.named(samples, elapsed),
            ("op_ms_p50", 1e3 * statistics.median(op), "ms", len(op)),
            ("ops_per_s", len(op) / elapsed, "1/s", len(op))]
    gate = ("setup_s", "peak_rss_mb", "op_ms_p50", "ops_per_s")
    metrics = {n: {"value": v, "unit": u} for n, v, u, _ in rows if n in gate}
    return _finish(args, meta, rows, tally, metrics)


def _time_unit(workload, tally, tracer=None) -> float:
    """Warm up untraced, then time the workload's unit of work, under
    ``tracer`` when one is given."""
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        workload.warm_up(tally, Path(tmp))
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            workload.unit(tally, Path(tmp))
            return time.perf_counter() - start


def run_traced(args, workload, tally, env, meta) -> int:
    from tracer import Tracer

    proc, _ = _child([sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--unit-only"], env)
    if proc.returncode != 0:
        return _die(f"untraced unit failed: {proc.stderr.strip()}")
    untraced_s = json.loads(proc.stdout.splitlines()[-1])["unit_s"]
    tracer = Tracer()
    traced_s = _time_unit(workload, tally, tracer)
    metrics = tracer.metrics()
    metrics["cli.import_s"] = _import_probes(env)
    metrics.update(_thread_probe())
    metrics["trace.overhead_s"] = traced_s - untraced_s
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.tsv")
    rows = [(n, v, per_layer_unit(n), None) for n, v in metrics.items()]
    return _finish(args, meta, rows, tally,
                   {n: {"value": v, "unit": u} for n, v, u, _ in rows})


def run_unit_only(workload, tally) -> int:
    print(json.dumps({"unit_s": _time_unit(workload, tally)}))
    return 0 if tally.correct else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "leosec" / "__init__.py").is_file():
        return _die(f"no leosec package under {SRC}; run from a checkout of the repository")
    if args.seed < 0 or not args.seconds > 0:
        return _die("--seed must be >= 0 and --seconds > 0")
    os.environ["LEOSEC_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import leosec
    import numpy

    if Path(leosec.__file__).resolve().parent != (SRC / "leosec").resolve():
        return _die(f"imported leosec from {leosec.__file__}, not from {SRC}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _die(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    tally = workloads.Tally()
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.seconds,
                                                  workloads.load_references())
    if args.unit_only:
        return run_unit_only(workload, tally)
    env = workloads.child_env(ROOT)
    meta = _metadata(args, numpy.__version__)
    if args.trace:
        return run_traced(args, workload, tally, env, meta)
    return run_untraced(args, workload, tally, env, meta)


if __name__ == "__main__":
    sys.exit(main())
