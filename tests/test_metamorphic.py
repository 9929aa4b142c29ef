"""Metamorphic properties of the closed-form engine over the fuzz ranges.

Relabelling the tiers changes no metric, and a harder scenario -- higher
SINR thresholds or a denser interfering field -- never helps the serving
link nor hurts the eavesdroppers' outage.
"""
import math
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from leosec.analytics import full_report
from strategies import fuzz_configs


def _report(cfg):
    try:
        return full_report(cfg)
    except ArithmeticError:  # a typed failure, covered by the range property
        return None


@st.composite
def permuted_configs(draw):
    cfg = draw(fuzz_configs())
    order = draw(st.permutations(range(len(cfg.tiers))))
    relabelled = replace(cfg, tiers=tuple(cfg.tiers[i] for i in order),
                         legit_tier=order.index(cfg.legit_tier))
    return cfg, relabelled, order


@settings(max_examples=200, derandomize=True)
@given(permuted_configs())
def test_tier_order_does_not_matter(case):
    cfg, relabelled, order = case
    before, after = _report(cfg), _report(relabelled)
    assert (before is None) == (after is None)
    if before is None:
        return
    pairs = [(before.p_av_per_tier[i], after.p_av_per_tier[j]) for j, i in enumerate(order)]
    pairs += [(getattr(before, m), getattr(after, m)) for m in ("p_cov", "p_suc", "p_out", "p_sec")]
    for a, b in pairs:
        assert math.isclose(a, b, rel_tol=1e-12), (a, b)


def _harder(cfg, how):
    if how == "thresholds":
        return replace(cfg, beta_ls=2.0 * cfg.beta_ls, beta_es=2.0 * cfg.beta_es)
    return replace(cfg, device_density_per_km2=3.0 * cfg.device_density_per_km2)


@settings(max_examples=200, derandomize=True)
@given(fuzz_configs(), st.sampled_from(["thresholds", "density"]))
def test_harder_scenario_never_helps_coverage_or_hurts_outage(cfg, how):
    before, after = _report(cfg), _report(_harder(cfg, how))
    if before is None or after is None:
        return
    assert after.p_cov <= before.p_cov
    assert after.p_out >= before.p_out
