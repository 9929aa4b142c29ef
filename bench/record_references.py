"""Record the reference outputs the benchmark checks against.

Usage: PYTHONPATH=src python3 bench/record_references.py

Writes ``bench/references.json``: the ``table2`` metrics, its 19-point
``gamma`` sweep and ``optimize_gamma`` result, and the ``scenario_mix``
pool with every config's outcome class and, where it returned, its metrics.
Rerun it only when a change is meant to move these numbers.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import scenarios
import workloads
from run import git_sha
from leosec import analytics, config, experiments

POOL_SEED = 2407_04077
POOL_SIZE = 600


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    table2 = config.table2_config()
    spec = experiments.SweepSpec(axis1=("gamma", workloads.GAMMA_GRID), metric="p_sec")
    g_star, p_star = experiments.optimize_gamma(table2)
    refs = {
        "recorded_at": git_sha(root),
        "table2": {
            "report": workloads.report_doc(analytics.full_report(table2), table2.legit_tier),
            "sweep_gamma_p_sec": [r.value for r in experiments.sweep(table2, spec)],
            "optimize": {"gamma_star": g_star, "p_sec_star": p_star},
        },
    }
    base = config.config_to_dict(table2)
    entries = scenarios.draw_pool(POOL_SEED, POOL_SIZE)
    for i, entry in enumerate(entries):
        cfg = scenarios.to_config(entry, base)
        try:
            report, exc = analytics.full_report(cfg), None
        except Exception as e:  # recorded as the entry's outcome class
            report, exc = None, e
        entry["index"] = i
        entry["outcome"] = workloads.outcome_class(exc)
        entry["report"] = None if exc else workloads.report_doc(report, cfg.legit_tier)
        print(f"{i:4d} {entry['outcome']}", file=sys.stderr)
    refs["pool"] = {"seed": POOL_SEED, "entries": entries}
    write(refs, workloads.REFERENCES)
    return 0


def write(refs: dict, path: Path) -> None:
    """JSON with one pool entry per line, so a re-recording diffs by entry."""
    head = {k: v for k, v in refs.items() if k != "pool"}
    text = json.dumps(head, indent=1)[:-2]
    text += ',\n "pool": {"seed": %d, "entries": [\n' % refs["pool"]["seed"]
    text += ",\n".join(json.dumps(e) for e in refs["pool"]["entries"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n]}}\n")


if __name__ == "__main__":
    sys.exit(main())
