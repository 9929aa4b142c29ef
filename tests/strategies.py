"""Hypothesis strategies shared by the property tests.

Kept apart from every test module, so that an import error in one test
module cannot drop the others that draw from these.
"""
import math
from dataclasses import replace

from hypothesis import strategies as st

from leosec.config import Tier, table2_config


@st.composite
def fuzz_configs(draw):
    """Configs over the fuzz ranges: 1-4 tiers at 160-36,000 km with 0-5,000
    satellites, fading shape 1-5, thresholds 1e-6..1e3 (log-uniform)."""
    log_threshold = st.floats(math.log(1e-6), math.log(1e3))
    tiers = draw(st.lists(st.tuples(st.floats(math.log(160.0), math.log(36_000.0)),
                                    st.integers(0, 5_000)), min_size=1, max_size=4))
    base = table2_config()
    return replace(base, tiers=tuple(Tier(math.exp(a), n) for a, n in tiers),
                   legit_tier=draw(st.integers(0, len(tiers) - 1)),
                   fading=replace(base.fading, shape_m1=draw(st.integers(1, 5))),
                   beta_ls=math.exp(draw(log_threshold)), beta_es=math.exp(draw(log_threshold)))
