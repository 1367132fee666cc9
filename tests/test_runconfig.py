"""Properties of configuration resolution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkmoments import ConfigError
from fkmoments.runconfig import DEFAULTS, RunConfig

# valid starting points that build every kernel and initial condition
BASES = [
    {},
    {"kernel.spatial": "riesz", "query.dim": "2"},
    {"kernel.spatial": "poisson", "u0.kind": "bump"},
    {"equation": "white", "kernel.spatial": "zero"},
]

ADVERSARIAL = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "", "x", "1,2", "1e308"]),
    # small integers only: query.dim sizes the coordinate tuples
    st.integers(-10_000, 10_000).map(str),
)


@pytest.mark.parametrize("base", BASES)
def test_bases_resolve(base):
    RunConfig.resolve(base)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(base=st.sampled_from(BASES), key=st.sampled_from(sorted(DEFAULTS)), value=ADVERSARIAL)
def test_resolve_fails_only_with_a_config_error_naming_the_key(base, key, value):
    try:
        rc = RunConfig.resolve(base, {key: value})
    except ConfigError as exc:
        assert key in str(exc)
    else:
        # a resolved config can always be echoed into a record
        assert key == "workers" or key in rc.echo()
