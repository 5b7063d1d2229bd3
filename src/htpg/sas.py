"""Symmetric alpha-stable (SaS) sampling, closed-form members, and tail math.

Scale convention: a SaS law with tail index ``alpha`` and scale ``sigma``
has characteristic function ``exp(i*location*t - (sigma*|t|)**alpha)``.
Under this convention the ``alpha = 2`` member is a Gaussian with variance
``2 * sigma**2`` (not ``sigma**2``), while ``alpha = 1`` is a Cauchy with
the usual scale ``sigma``.  Code that wants a Gaussian with standard
deviation ``s`` must therefore pass ``scale = s / sqrt(2)``; the policy
layer does exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, UnsupportedAlphaError

__all__ = [
    "StableSpec",
    "sample_sas",
    "sample_sas_cms",
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
        if not 0.0 < self.alpha <= 2.0:
            raise ParameterError(f"alpha must lie in (0, 2], got {self.alpha}")
        _check_scale(self.scale)


def _check_scale(scale: float) -> None:
    """The scale rule of :class:`StableSpec`: positive (NaN is not)."""
    if not scale > 0.0:
        raise ParameterError(f"scale must be positive, got {scale}")


def sample_sas(spec: StableSpec, rng) -> float:
    """Draw one variate from the given SaS law.

    The Gaussian (alpha=2) member uses one ``standard_normal``; every other
    tail index goes through the Chambers-Mallows-Stuck transform, which at
    alpha=1 is the exact Cauchy inverse CDF of one uniform.  The draw is
    always ``location + scale * z`` with ``z`` a standard (scale-1, location-0)
    variate, so draws at different scales from identically seeded streams are
    exact affine images of each other.
    """
    return spec.location + spec.scale * _standard_sas(spec.alpha, rng)


def sample_sas_cms(spec: StableSpec, rng) -> float:
    """Draw one variate using the CMS transform regardless of tail index.

    Cross-check path: for alpha=2 this must agree in distribution with the
    Gaussian sampler used by :func:`sample_sas`.
    """
    return spec.location + spec.scale * _standard_cms(spec.alpha, rng)


def _standard_sas(alpha: float, rng) -> float:
    if alpha == 2.0:
        return math.sqrt(2.0) * rng.standard_normal()
    return _standard_cms(alpha, rng)


def _standard_cms(alpha: float, rng) -> float:
    # Chambers-Mallows-Stuck transform, symmetric (beta = 0) case: one
    # uniform angle on (-pi/2, pi/2) and one unit exponential.
    u = math.pi * (rng.random() - 0.5)
    if alpha == 1.0:
        # Inverse CDF of the standard Cauchy.
        return math.tan(u)
    w = rng.standard_exponential()
    sin_au = math.sin(alpha * u)
    cos_u = math.cos(u)
    cos_rest = math.cos((1.0 - alpha) * u)
    return (sin_au / cos_u ** (1.0 / alpha)) * (cos_rest / w) ** ((1.0 - alpha) / alpha)


def log_density(spec: StableSpec, x: float) -> float:
    """Exact log-density; defined for the closed-form members only."""
    if spec.alpha == 1.0:
        u = (x - spec.location) / spec.scale
        return -math.log(spec.scale * math.pi * (1.0 + u * u))
    if spec.alpha == 2.0:
        var = 2.0 * spec.scale * spec.scale
        d = x - spec.location
        return -0.5 * math.log(2.0 * math.pi * var) - d * d / (2.0 * var)
    raise UnsupportedAlphaError(
        f"no closed-form density for alpha={spec.alpha}; only alpha in {{1, 2}}"
    )


def cdf(spec: StableSpec, x: float) -> float:
    """Distribution function for the closed-form members."""
    z = (x - spec.location) / spec.scale
    if spec.alpha == 1.0:
        return 0.5 + math.atan(z) / math.pi
    if spec.alpha == 2.0:
        # Gaussian with variance 2*scale**2: standardized deviate z/sqrt(2).
        return 0.5 * math.erfc(-z / 2.0)
    raise UnsupportedAlphaError(
        f"no closed-form CDF for alpha={spec.alpha}; only alpha in {{1, 2}}"
    )


def tail_probability(spec: StableSpec, threshold: float) -> float:
    """Two-sided tail mass ``P(|X - location| > threshold * scale)``."""
    if not threshold > 0.0:
        raise ParameterError(f"threshold must be positive, got {threshold}")
    if spec.alpha == 1.0:
        return (2.0 / math.pi) * math.atan(1.0 / threshold)
    if spec.alpha == 2.0:
        return math.erfc(threshold / 2.0)
    raise UnsupportedAlphaError(
        f"no closed-form tail for alpha={spec.alpha}; only alpha in {{1, 2}}"
    )
