import math

import pytest

from fraclogistic import ModelParams


@pytest.mark.parametrize("field", ["r", "k", "z0", "mu", "lam", "b_norm"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_field_is_named(field, value):
    kwargs = dict(r=0.1, k=100.0, z0=10.0, mu=0.9, lam=0.5, b_norm=1.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ModelParams(**kwargs)


@pytest.mark.parametrize("changes, message", [
    (dict(k=0.0), "k must be > 0"),
    (dict(k=-1.0), "k must be > 0"),
    (dict(z0=0.0), "z0 must be > 0"),
    (dict(mu=0.0), "mu must lie in"),
    (dict(mu=1.5), "mu must lie in"),
    (dict(lam=-0.1), "lam must lie in"),
    (dict(lam=1.5), "lam must lie in"),
    (dict(b_norm=0.0), "b_norm must be > 0"),
    (dict(b_norm=-2.0), "b_norm must be > 0"),
])
def test_out_of_range_field_is_named(changes, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        ModelParams(**{**dict(r=0.1, k=100.0, z0=10.0, mu=0.9, lam=0.5), **changes})

