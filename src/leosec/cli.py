"""Command-line front end.

Commands: ``analyze`` (closed-form metrics as JSON), ``simulate`` (Monte
Carlo estimates), ``validate`` (engine comparison table), ``sweep``
(parameter grids as long-format tables), ``optimize`` (power-share search).

Result data goes to --out or stdout; diagnostics go to stderr only.  Exit
codes: 0 success, 1 input error, 2 numerical non-convergence, 3 when a
validate row fails.  Numbers are serialized with 12 significant digits so
repeated runs are byte-identical.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import experiments, montecarlo
from .analytics import DEFAULT_QUAD, QuadratureSpec, full_report
from .config import ConfigError, NetworkConfig, PRESETS, config_from_dict

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2
EXIT_VALIDATION = 3

_LINK_METRICS = ("p_cov", "p_suc", "p_out", "p_sec")


class CliInputError(ValueError):
    pass


def parse_config(text: str) -> NetworkConfig:
    """Parse a JSON config document into a validated NetworkConfig."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError("<document>", f"invalid JSON: {e}") from e
    return config_from_dict(doc)


def _load_config(ns: argparse.Namespace) -> NetworkConfig:
    if ns.config is not None:
        try:
            with open(ns.config, "r", encoding="utf-8") as fh:
                return parse_config(fh.read())
        except OSError as e:
            raise CliInputError(f"cannot read config {ns.config}: {e}") from e
    name = ns.preset or "table2"
    if name not in PRESETS:
        raise CliInputError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name]()


def _quad(ns: argparse.Namespace) -> QuadratureSpec:
    if ns.quad_nodes is None:
        return DEFAULT_QUAD
    return replace(DEFAULT_QUAD, nodes_per_panel=ns.quad_nodes)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, str)):
        return str(x)
    return f"{x:.12g}"


def _round12(obj):
    """Recursively round floats to 12 significant digits for stable JSON."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _as_json(obj) -> str:
    return json.dumps(_round12(obj), indent=2) + "\n"


def _as_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _parse_axis(text: str) -> tuple[str, tuple[float, ...]]:
    name, sep, values = text.partition("=")
    if not sep or not name or not values:
        raise CliInputError(f"axis must look like name=v1,v2,..., got {text!r}")
    try:
        parsed = tuple(float(v) for v in values.split(","))
    except ValueError as e:
        raise CliInputError(f"bad axis values in {text!r}: {e}") from e
    return name, parsed


def _mc_entry(est: montecarlo.McEstimate) -> dict:
    return {"mean": est.mean, "stderr": est.stderr,
            "n_trials": est.n_trials, "seed": est.master_seed}


def _metrics_doc(values: dict, cfg: NetworkConfig) -> dict:
    """analyze/simulate document from per-metric entries keyed ``p_av_<k>``,
    p_cov, p_suc, p_out, p_sec."""
    doc = {"p_av": values[f"p_av_{cfg.legit_tier}"],
           "p_av_per_tier": [values[f"p_av_{k}"] for k in range(len(cfg.tiers))]}
    doc.update((name, values[name]) for name in _LINK_METRICS)
    return doc


# Each runner returns (json document, csv header, csv rows, exit code).

def _run_analyze(cfg: NetworkConfig, ns: argparse.Namespace):
    report = full_report(cfg, _quad(ns))
    values = {f"p_av_{k}": v for k, v in enumerate(report.p_av_per_tier)}
    values.update((name, getattr(report, name)) for name in _LINK_METRICS)
    return (_metrics_doc(values, cfg), ["metric", "value"],
            [[name, v] for name, v in values.items()], EXIT_OK)


def _run_simulate(cfg: NetworkConfig, ns: argparse.Namespace):
    est = montecarlo.estimate(cfg, ns.trials, ns.seed)
    rows = [[name, e.mean, e.stderr, e.n_trials, e.master_seed] for name, e in est.items()]
    return (_metrics_doc({name: _mc_entry(e) for name, e in est.items()}, cfg),
            ["metric", "mean", "stderr", "n_trials", "seed"], rows, EXIT_OK)


def _run_validate(cfg: NetworkConfig, ns: argparse.Namespace):
    rows = experiments.validate(cfg, ns.trials, ns.seed, _quad(ns))
    header = ["metric", "analytic", "mc_mean", "mc_stderr", "abs_diff", "pass"]
    table = [[r.metric, r.analytic, r.mc_mean, r.mc_stderr, r.abs_diff, r.passed]
             for r in rows]
    code = EXIT_OK if all(r.passed for r in rows) else EXIT_VALIDATION
    return [dict(zip(header, row)) for row in table], header, table, code


def _run_sweep(cfg: NetworkConfig, ns: argparse.Namespace):
    if ns.axis1 is None:
        raise CliInputError("sweep requires --axis1 name=v1,v2,...")
    spec = experiments.SweepSpec(
        axis1=_parse_axis(ns.axis1),
        axis2=_parse_axis(ns.axis2) if ns.axis2 else None,
        metric=ns.metric,
        engine=ns.engine,
    )
    rows = experiments.sweep(cfg, spec, n_trials=ns.trials, seed=ns.seed, quad=_quad(ns))
    header = ["axis1", "axis2", "metric", "engine", "value", "stderr"]
    table = [[r.axis1, r.axis2, r.metric, r.engine, r.value, r.stderr] for r in rows]
    return [dict(zip(header, row)) for row in table], header, table, EXIT_OK


def _run_optimize(cfg: NetworkConfig, ns: argparse.Namespace):
    g_star, p_star, grid, values = experiments.optimize_gamma(cfg, ns.grid_points, _quad(ns))
    doc = {"gamma_star": g_star, "p_sec_star": p_star,
           "grid": [{"gamma": g, "p_sec": v} for g, v in zip(grid, values)]}
    rows = [[g, v, False] for g, v in zip(grid, values)]
    rows.append([g_star, p_star, True])
    return doc, ["gamma", "p_sec", "is_optimum"], rows, EXIT_OK


# command -> (runner, default --format)
_RUNNERS = {
    "analyze": (_run_analyze, "json"),
    "simulate": (_run_simulate, "json"),
    "validate": (_run_validate, "csv"),
    "sweep": (_run_sweep, "csv"),
    "optimize": (_run_optimize, "json"),
}

COMMANDS = tuple(_RUNNERS)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="leosec", description="Uplink security metrics for "
                     "IoT-to-LEO links in multi-tier constellations.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, fmt) in _RUNNERS.items():
        p = sub.add_parser(command)
        src = p.add_mutually_exclusive_group()
        src.add_argument("--config", metavar="PATH", help="JSON scenario file")
        src.add_argument("--preset", metavar="NAME", help="built-in scenario (table2)")
        p.add_argument("--seed", type=_positive_int, default=1)
        p.add_argument("--trials", type=_positive_int, default=10_000)
        p.add_argument("--quad-nodes", type=int, default=None,
                       help="Gauss-Legendre nodes per panel of the coverage and outage integrals")
        p.add_argument("--out", metavar="PATH", help="write results here instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default=fmt)
        if command == "sweep":
            p.add_argument("--axis1", metavar="NAME=V1,V2,...")
            p.add_argument("--axis2", metavar="NAME=V1,V2,...")
            p.add_argument("--metric", default="p_sec",
                           choices=experiments.METRIC_NAMES)
            p.add_argument("--engine", default="analytic", choices=experiments.ENGINES)
        if command == "optimize":
            p.add_argument("--grid-points", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        ns = _build_parser().parse_args(argv)
        runner, _ = _RUNNERS[ns.command]
        doc, header, rows, code = runner(_load_config(ns), ns)
        _emit(_as_json(doc) if ns.format == "json" else _as_csv(header, rows), ns.out)
        return code
    except ArithmeticError as e:  # quadrature non-convergence and kin
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as e:  # config schema/invariant violations, bad inputs
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
