"""The two symmetric alpha-stable (SaS) laws of the policies, Cauchy
(``alpha = 1``) and Gaussian (``alpha = 2``): sampling, closed forms and
tail math.  This module is the one place that knows how a tail is drawn.

Scale convention: a SaS law with tail index ``alpha`` and scale ``sigma``
has characteristic function ``exp(i*location*t - (sigma*|t|)**alpha)``.
Under this convention the ``alpha = 2`` member is a Gaussian with variance
``2 * sigma**2`` (not ``sigma**2``), while ``alpha = 1`` is a Cauchy with
the usual scale ``sigma``.  Code that wants a Gaussian with standard
deviation ``s`` must therefore pass ``scale = s / sqrt(2)``; the policy
layer does exactly that.

The maps: a standard (scale-1, location-0) variate is one generator call,
mapped.  Cauchy draws a uniform ``u`` (``rng.random``) and returns
``tan(pi * (u - 0.5))``, the inverse CDF; Gaussian draws a standard normal
``z`` (``rng.standard_normal``) and returns ``sqrt(2) * z``.  A draw of the
law is ``location + scale * z``.

The noise block: :func:`_noise_block` draws ``count`` values in one
generator call, the same stream and the same values as ``count`` calls of
:func:`_standard_sas` times ``scale``, and saves the generator state first.
:func:`_rewind` then leaves the generator where ``used`` scalar draws would
have left it, so a float walk that stops early takes back what it drew but
did not use.  A scale that is not positive raises before the generator is
touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

__all__ = [
    "StableSpec",
    "sample_sas",
    "log_density",
    "cdf",
    "tail_probability",
]


@dataclass(frozen=True, slots=True)
class StableSpec:
    """Parameters of one symmetric alpha-stable law."""

    alpha: float
    location: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        _check_scale(self.scale)


def _check_alpha(alpha: float) -> None:
    """The tail rule of :class:`StableSpec` and of the policies: 1 or 2."""
    if alpha not in (1.0, 2.0):
        raise ParameterError(f"alpha must be 1 (Cauchy) or 2 (Gaussian), got {alpha}")


def _check_scale(scale: float) -> None:
    """The scale rule of :class:`StableSpec`: positive (NaN is not)."""
    if not scale > 0.0:
        raise ParameterError(f"scale must be positive, got {scale}")


def sample_sas(spec: StableSpec, rng) -> float:
    """Draw one variate, ``location + scale * z`` (module docstring), so draws
    at different scales from one seed are exact affine images of each other.
    """
    return spec.location + spec.scale * _standard_sas(spec.alpha, rng)


def _standard_sas(alpha: float, rng) -> float:
    if alpha == 2.0:
        return math.sqrt(2.0) * rng.standard_normal()
    return math.tan(math.pi * (rng.random() - 0.5))


def _noise_block(rng, tail: float, scale: float, count: int) -> tuple[list, dict]:
    """The noise block (module docstring): ``count`` draws of ``scale *
    _standard_sas(tail, rng)`` from one generator call, and the generator
    state saved before it, for :func:`_rewind`."""
    _check_scale(scale)
    saved = rng.bit_generator.state
    if tail != 2.0:
        tan, pi = math.tan, math.pi
        return [scale * tan(pi * (u - 0.5)) for u in rng.random(count).tolist()], saved
    root2 = math.sqrt(2.0)
    return [scale * (root2 * z) for z in rng.standard_normal(count).tolist()], saved


def _rewind(rng, tail: float, saved: dict, used: int, drawn: int) -> None:
    """Leave the generator where the first ``used`` of the ``drawn`` values
    of the block :func:`_noise_block` drew from ``saved`` would leave it;
    with all of them used, nothing is taken back."""
    if used < drawn:
        rng.bit_generator.state = saved
        (rng.random if tail != 2.0 else rng.standard_normal)(used)


def log_density(spec: StableSpec, x: float) -> float:
    """Exact log-density."""
    if spec.alpha == 1.0:
        u = (x - spec.location) / spec.scale
        return -math.log(spec.scale * math.pi * (1.0 + u * u))
    var = 2.0 * spec.scale * spec.scale
    d = x - spec.location
    return -0.5 * math.log(2.0 * math.pi * var) - d * d / (2.0 * var)


def cdf(spec: StableSpec, x: float) -> float:
    """Distribution function."""
    z = (x - spec.location) / spec.scale
    if spec.alpha == 1.0:
        return 0.5 + math.atan(z) / math.pi
    # Gaussian with variance 2*scale**2: standardized deviate z/sqrt(2).
    return 0.5 * math.erfc(-z / 2.0)


def tail_probability(spec: StableSpec, threshold: float) -> float:
    """Two-sided tail mass ``P(|X - location| > threshold * scale)``."""
    if not threshold > 0.0:
        raise ParameterError(f"threshold must be positive, got {threshold}")
    if spec.alpha == 1.0:
        return (2.0 / math.pi) * math.atan(1.0 / threshold)
    return math.erfc(threshold / 2.0)
