"""Distribution-layer checks: closed forms against independent oracles
(scipy CDFs, analytic moments), the members against the general CMS
transform of ``tests/oracles.py``, the one alpha rule, and the noise block
of the float walks against scalar draws."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from htpg.errors import ParameterError
from htpg.policy import PolicyParams
from htpg.sas import (
    StableSpec,
    _noise_block,
    _rewind,
    _standard_sas,
    cdf,
    log_density,
    sample_sas,
    tail_probability,
)
from oracles import standard_cms


class FixedUniform:
    """rng stub returning a preset uniform draw."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_spec_validation():
    with pytest.raises(ParameterError):
        StableSpec(0.0)
    with pytest.raises(ParameterError):
        StableSpec(2.5)
    with pytest.raises(ParameterError):
        StableSpec(1.0, scale=0.0)
    with pytest.raises(ParameterError):
        StableSpec(1.0, scale=-1.0)
    StableSpec(2.0)  # boundary alpha=2 is valid


def test_cauchy_median_at_location():
    spec = StableSpec(1.0, 0.0, 1.0)
    assert sample_sas(spec, FixedUniform(0.5)) == 0.0
    spec = StableSpec(1.0, 3.0, 2.0)
    assert sample_sas(spec, FixedUniform(0.5)) == 3.0


def test_gaussian_member_variance():
    # alpha=2 with scale sigma is Gaussian with variance 2*sigma^2.
    rng = np.random.default_rng(7)
    spec = StableSpec(2.0, 0.0, 1.0)
    draws = np.array([sample_sas(spec, rng) for _ in range(1_000_000)])
    assert abs(draws.mean()) < 0.005
    assert np.var(draws) == pytest.approx(2.0, rel=0.02)


def test_cauchy_tail_mass():
    # P(|X| > 5) = (2/pi) * arctan(1/5) for the standard Cauchy.
    rng = np.random.default_rng(11)
    spec = StableSpec(1.0, 0.0, 1.0)
    hits = sum(abs(sample_sas(spec, rng)) > 5.0 for _ in range(1_000_000))
    expected = (2.0 / math.pi) * math.atan(0.2)
    assert hits / 1e6 == pytest.approx(expected, rel=0.10)


def test_log_density_closed_forms():
    assert log_density(StableSpec(1.0, 0.0, 1.0), 0.0) == pytest.approx(-math.log(math.pi))
    # Cauchy at u = (5-3)/2 = 1: density 1/(2*pi*2) -> log = -log(4*pi).
    assert log_density(StableSpec(1.0, 3.0, 2.0), 5.0) == pytest.approx(-math.log(4 * math.pi))
    # Gaussian member with variance 2 at the mode.
    assert log_density(StableSpec(2.0, 0.0, 1.0), 0.0) == pytest.approx(-0.5 * math.log(4 * math.pi))


def test_log_density_matches_scipy():
    assert log_density(StableSpec(1.0, -1.0, 0.7), 0.3) == pytest.approx(
        scipy.stats.cauchy(-1.0, 0.7).logpdf(0.3), rel=1e-12
    )
    assert log_density(StableSpec(2.0, 0.4, 1.3), -2.0) == pytest.approx(
        scipy.stats.norm(0.4, 1.3 * math.sqrt(2)).logpdf(-2.0), rel=1e-12
    )


def test_unsupported_alpha_raises():
    # StableSpec and PolicyParams share one rule: the Cauchy or the Gaussian.
    for alpha in (0, -1, 0.5, 1.5, 3, math.inf, math.nan):
        with pytest.raises(ParameterError) as law:
            StableSpec(alpha)
        with pytest.raises(ParameterError) as policy:
            PolicyParams.zeros(3, alpha)
        assert str(law.value) == str(policy.value)
        assert str(law.value) == f"alpha must be 1 (Cauchy) or 2 (Gaussian), got {alpha}"
    for alpha in (1, 1.0, 2, 2.0):
        assert StableSpec(alpha).alpha == alpha
        assert PolicyParams.zeros(3, alpha).alpha == alpha


def test_tail_probability_values():
    assert tail_probability(StableSpec(1.0), 5.0) == pytest.approx(
        (2.0 / math.pi) * math.atan(0.2)
    )
    assert tail_probability(StableSpec(1.0), 1e-12) == pytest.approx(1.0)
    assert tail_probability(StableSpec(2.0), 5.0) == pytest.approx(math.erfc(2.5))
    with pytest.raises(ParameterError):
        tail_probability(StableSpec(1.0), 0.0)


def test_tail_probability_matches_scipy():
    for alpha, dist in ((1.0, scipy.stats.cauchy()), (2.0, scipy.stats.norm(scale=math.sqrt(2)))):
        for t in (0.5, 1.0, 2.0, 5.0, 10.0):
            assert tail_probability(StableSpec(alpha), t) == pytest.approx(
                2.0 * dist.sf(t), rel=1e-10
            )


def test_tails_monotone_and_ordered():
    grid = np.linspace(1.0, 40.0, 200)
    c = [tail_probability(StableSpec(1.0), t) for t in grid]
    g = [tail_probability(StableSpec(2.0), t) for t in grid]
    assert all(a > b for a, b in zip(c, c[1:]))
    assert all(a > b for a, b in zip(g, g[1:]))
    assert all(a > b for a, b in zip(c, g))


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_sampler_matches_analytic_cdf(alpha):
    rng = np.random.default_rng(42)
    spec = StableSpec(alpha, 0.25, 2.0)
    draws = [sample_sas(spec, rng) for _ in range(100_000)]
    oracle = (
        scipy.stats.cauchy(0.25, 2.0) if alpha == 1.0
        else scipy.stats.norm(0.25, 2.0 * math.sqrt(2))
    )
    stat = scipy.stats.kstest(draws, oracle.cdf).statistic
    assert stat < 0.01


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_cms_transform_agrees_with_members(alpha):
    rng = np.random.default_rng(5)
    draws = [standard_cms(alpha, rng) for _ in range(100_000)]
    if alpha == 1.0:
        stat = scipy.stats.kstest(draws, scipy.stats.cauchy().cdf).statistic
        assert stat < 0.01
        # At alpha = 1 the transform is the sampler's own map of one uniform.
        sampler = np.random.default_rng(5)
        ours = [sample_sas(StableSpec(1.0), sampler) for _ in range(1000)]
        assert np.array(ours).tobytes() == np.array(draws[:1000]).tobytes()
    elif alpha == 2.0:
        stat = scipy.stats.kstest(draws, scipy.stats.norm(scale=math.sqrt(2)).cdf).statistic
        assert stat < 0.01
    else:
        # No closed form; check symmetry, the tail-index ordering (tails
        # between the Gaussian and Cauchy members), and the power-law slope
        # P(|X| > x) ~ C x^(-alpha).
        arr = np.abs(np.array(draws))
        assert abs(float(np.median(draws))) < 0.02
        frac10 = float(np.mean(arr > 10.0))
        cauchy10 = tail_probability(StableSpec(1.0), 10.0)
        if alpha < 1.0:
            assert frac10 > cauchy10
        else:
            assert tail_probability(StableSpec(2.0), 10.0) < frac10 < cauchy10
        frac40 = float(np.mean(arr > 40.0))
        assert frac10 / frac40 == pytest.approx(4.0 ** alpha, rel=0.25)


def test_internal_cdf_matches_scipy():
    xs = np.linspace(-8, 8, 33)
    for x in xs:
        assert cdf(StableSpec(1.0, 0.5, 1.5), x) == pytest.approx(
            scipy.stats.cauchy(0.5, 1.5).cdf(x), abs=1e-12
        )
        assert cdf(StableSpec(2.0, -0.5, 0.8), x) == pytest.approx(
            scipy.stats.norm(-0.5, 0.8 * math.sqrt(2)).cdf(x), abs=1e-12
        )


@given(
    loc=st.floats(-100, 100),
    scale=st.floats(0.01, 100),
    x=st.floats(-1000, 1000),
    alpha=st.sampled_from([1.0, 2.0]),
)
@settings(max_examples=200, deadline=None)
def test_log_density_symmetry(loc, scale, x, alpha):
    from hypothesis import assume

    # Only meaningful when the offsets are exactly representable.
    assume((loc + x) - loc == x and (loc - x) - loc == -x)
    spec = StableSpec(alpha, loc, scale)
    assert log_density(spec, loc + x) == log_density(spec, loc - x)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_scale_equivariance_same_stream(alpha):
    loc, scale = 1.5, 3.0
    a = [sample_sas(StableSpec(alpha, loc, scale), np.random.default_rng(3)) for _ in range(1)]
    rng = np.random.default_rng(3)
    z = sample_sas(StableSpec(alpha, 0.0, 1.0), rng)
    assert a[0] == loc + scale * z


def _block_and_scalars(seed, tail, scale, count):
    """The noise block and ``count`` scalar draws from the same seed, each
    with the generator it left."""
    rng = np.random.default_rng(seed)
    start = rng.bit_generator.state
    block, saved = _noise_block(rng, tail, scale, count)
    assert saved == start
    scalar_rng = np.random.default_rng(seed)
    scalars = [scale * _standard_sas(tail, scalar_rng) for _ in range(count)]
    return block, rng, scalars, scalar_rng


def _state_after(seed, tail, draws):
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        _standard_sas(tail, rng)
    return rng.bit_generator.state


def _assert_block_and_rewind(seed, tail, scale, count):
    block, rng, scalars, scalar_rng = _block_and_scalars(seed, tail, scale, count)
    assert np.array(block).tobytes() == np.array(scalars).tobytes()
    assert rng.bit_generator.state == scalar_rng.bit_generator.state
    for used in sorted({0, 1, count - 1, count}):
        rng = np.random.default_rng(seed)
        block, saved = _noise_block(rng, tail, scale, count)
        _rewind(rng, tail, saved, used, count)
        assert rng.bit_generator.state == _state_after(seed, tail, used), used


@pytest.mark.parametrize("tail", [1.0, 2.0])
@pytest.mark.parametrize("count", [1, 2, 57, 500])
def test_noise_block_is_scalar_draws_and_rewinds_to_them(tail, count):
    for seed, scale in ((0, 1.0), (7, 0.3), (2024, 40.0)):
        _assert_block_and_rewind(seed, tail, scale, count)


@given(seed=st.integers(0, 2**63), tail=st.sampled_from([1.0, 2.0]),
       count=st.sampled_from([1, 2, 57, 500]), scale=st.floats(1e-6, 1e6))
@settings(max_examples=40, deadline=None)
def test_noise_block_matches_scalar_draws_on_drawn_inputs(seed, tail, count, scale):
    _assert_block_and_rewind(seed, tail, scale, count)


@pytest.mark.parametrize("tail", [1.0, 2.0])
@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan])
def test_noise_block_rejects_a_bad_scale_before_drawing(tail, scale):
    rng = np.random.default_rng(3)
    start = rng.bit_generator.state
    with pytest.raises(ParameterError, match="^scale must be positive"):
        _noise_block(rng, tail, scale, 5)
    assert rng.bit_generator.state == start

