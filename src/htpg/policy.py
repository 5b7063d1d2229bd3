"""Parametric stochastic policies over a scalar action.

Two trainable families share one parameter layout: Cauchy (tail index 1)
and Gaussian (tail index 2).  The action mode is the linear form
``theta_x0 . s`` over affine state features ``s`` and the scale is either a
fixed constant ``sigma0`` or the learned ``exp(sum(theta_sigma))``, one
libm ``exp`` (:func:`_exp_scale`).

The Gaussian family's ``sigma`` is its standard deviation; its
:mod:`htpg.sas` law is :func:`action_distribution`.

:func:`action_mode` and :func:`_float_sum` are htpg's two float sums
(README "Numerics").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, finite_float
from .sas import StableSpec, _check_alpha, log_density, sample_sas

__all__ = [
    "FIXED",
    "ADAPTIVE",
    "PolicyParams",
    "features",
    "policy_scale",
    "action_mode",
    "action_distribution",
    "sample_action",
    "log_likelihood",
    "score",
    "clip_score",
    "param_vector",
    "with_param_vector",
]

FIXED = "fixed"
ADAPTIVE = "adaptive"

_SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True, eq=False)
class PolicyParams:
    """Parameter vector of one policy: mode weights, log-scale weights,
    tail index, and how the scale is determined.

    ``theta_x0`` and ``theta_sigma`` hold three weights each, one per car
    feature ``(x, v, 1)`` (:func:`features`).  With ``scale_mode="fixed"``
    the scale is the constant ``sigma0`` and ``theta_sigma`` is inert: it
    is excluded from :func:`param_vector` and never updated.

    The adaptive scale ``exp(sum(theta_sigma))`` is computed once, here, and
    :func:`policy_scale` reads it; so the two arrays must not be mutated
    after construction (build a new policy, as :func:`with_param_vector`
    does).
    """

    theta_x0: np.ndarray
    theta_sigma: np.ndarray
    alpha: float = 1.0
    scale_mode: str = ADAPTIVE
    sigma0: float = 1.0
    _adaptive_scale: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta_x0", np.asarray(self.theta_x0, dtype=float))
        object.__setattr__(self, "theta_sigma", np.asarray(self.theta_sigma, dtype=float))
        _check_alpha(self.alpha)
        if self.scale_mode not in (FIXED, ADAPTIVE):
            raise ParameterError(f"unknown scale_mode {self.scale_mode!r}")
        if self.theta_x0.shape != (3,) or self.theta_sigma.shape != (3,):
            raise ParameterError(f"theta_x0 and theta_sigma must have shape (3,), got "
                                 f"{self.theta_x0.shape} and {self.theta_sigma.shape}")
        if not finite_float("sigma0", self.sigma0) > 0.0:
            raise ParameterError(f"sigma0 must be positive, got {self.sigma0}")
        object.__setattr__(self, "_adaptive_scale",
                           _exp_scale(_float_sum(self.theta_sigma.tolist())))

    @classmethod
    def zeros(cls, dim: int, alpha: float, scale_mode: str = ADAPTIVE,
              sigma0: float = 1.0) -> "PolicyParams":
        """All-zero weights: mode 0 everywhere, scale exp(0)=1 when adaptive.
        ``dim`` must be 3."""
        return cls(np.zeros(dim), np.zeros(dim), alpha, scale_mode, sigma0)


def features(raw) -> np.ndarray:
    """Affine feature map: raw state coordinates with a trailing bias 1."""
    return np.array((*raw, 1.0), dtype=float)


def policy_scale(p: PolicyParams) -> float:
    """Current scale sigma: sigma0 when fixed, exp(sum(theta_sigma)) when
    adaptive (computed when ``p`` was built)."""
    if p.scale_mode == FIXED:
        return p.sigma0
    return p._adaptive_scale


def _exp_scale(log_sigma: float) -> float:
    """``math.exp(log_sigma)``, with inf where it overflows: the adaptive
    scale from the sum of ``theta_sigma``."""
    try:
        return math.exp(log_sigma)
    except OverflowError:
        return math.inf


def action_mode(p: PolicyParams, s: np.ndarray) -> float:
    """``theta_x0 . s`` as ``w0*s0 + w1*s1 + ...`` over Python floats, summed
    left to right from -0.0: the arithmetic the float loops write inline.
    For the cars' ``s = (x, v, 1)`` this is ``(t0*x + t1*v) + t2``, as
    ``t2 * 1.0`` is ``t2``."""
    if s.shape != p.theta_x0.shape:
        raise ParameterError(
            f"feature dimension {s.shape} does not match theta_x0 {p.theta_x0.shape}"
        )
    mode = -0.0
    for w, f in zip(p.theta_x0.tolist(), s.tolist()):
        mode += w * f
    return mode


def _float_sum(values) -> float:
    """``v0 + v1 + ...`` over Python floats, left to right from +0.0: builtin
    ``sum``'s bits up to Python 3.11 (3.12 compensates), on every version.
    The empty sum is 0.0."""
    total = 0.0
    for v in values:
        total += v
    return total


def _squared_norm(vec: np.ndarray) -> float:
    """``v0*v0 + v1*v1 + ...`` as :func:`_float_sum` adds it, with no BLAS
    call (+0.0 is exact here, as no square is -0.0)."""
    return _float_sum(c * c for c in vec.tolist())


def action_distribution(p: PolicyParams, s: np.ndarray) -> StableSpec:
    """The SaS law of the action at state features ``s``; at alpha=2 its
    :mod:`htpg.sas` scale is the standard deviation ``sigma`` over ``sqrt(2)``.
    """
    return StableSpec(p.alpha, action_mode(p, s), _stable_scale(p.alpha, policy_scale(p)))


def _stable_scale(alpha: float, sigma: float) -> float:
    """The :mod:`htpg.sas` scale of the action law at policy scale ``sigma``."""
    return sigma / _SQRT2 if alpha == 2.0 else sigma


def sample_action(p: PolicyParams, s: np.ndarray, rng) -> float:
    return sample_sas(action_distribution(p, s), rng)


def log_likelihood(p: PolicyParams, s: np.ndarray, a: float) -> float:
    """log pi(a | s): the :mod:`htpg.sas` log-density of
    :func:`action_distribution`."""
    return log_density(action_distribution(p, s), a)


def score(p: PolicyParams, s: np.ndarray, a: float) -> np.ndarray:
    """Gradient of :func:`log_likelihood` w.r.t. the trainable parameters.

    Closed forms, with u = (a - x0) / sigma:

    * alpha=1: d/dtheta_x0 = (2u / (sigma (1 + u^2))) s,
      d/dtheta_sigma = (2u^2 / (1 + u^2) - 1) per component;
    * alpha=2: d/dtheta_x0 = (u / sigma) s,  d/dtheta_sigma = u^2 - 1.

    The theta_sigma block is present only in adaptive scale mode.
    """
    mode_coef, sigma_coef = _score_coefs(p.alpha, a, action_mode(p, s), policy_scale(p))
    if p.scale_mode == FIXED:
        return mode_coef * s
    s0, s1, s2 = s.tolist()
    return np.array((mode_coef * s0, mode_coef * s1, mode_coef * s2,
                     sigma_coef, sigma_coef, sigma_coef))


def _score_coefs(alpha: float, a: float, x0: float, sigma: float) -> tuple[float, float]:
    """The scalars of :func:`score`: ``(mode_coef, sigma_coef)``, where the
    score is ``mode_coef * s`` followed by ``sigma_coef`` once per
    theta_sigma component.  On Python floats a zero ``sigma`` raises
    ``ZeroDivisionError``."""
    u = (a - x0) / sigma
    if alpha == 1.0:
        denom = 1.0 + u * u
        return 2.0 * u / (sigma * denom), 2.0 * u * u / denom - 1.0
    return u / sigma, u * u - 1.0


def clip_score(g: np.ndarray, epsilon: float, symmetric: bool = False) -> np.ndarray:
    """Component-wise min(g, clamp(g, 1-eps, 1+eps)).

    Algebraically this is an upper clamp at 1+eps and is the default.  The
    symmetric variant clamps to [-(1+eps), 1+eps] and bounds the magnitude
    instead; it is opt-in.
    """
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
    hi = 1.0 + epsilon
    if symmetric:
        return np.clip(g, -hi, hi)
    return np.minimum(g, hi)


def param_vector(p: PolicyParams) -> np.ndarray:
    """The trainable parameters as one flat vector (mode block, then scale
    block when adaptive)."""
    if p.scale_mode == FIXED:
        return p.theta_x0.copy()
    return np.concatenate([p.theta_x0, p.theta_sigma])


def with_param_vector(p: PolicyParams, vec: np.ndarray) -> PolicyParams:
    """``p`` with its trainable parameters replaced by ``vec``, three in
    fixed scale mode and six when adaptive; :class:`PolicyParams` rejects
    any other size.  The result shares ``vec`` without copying, so ``vec``
    must not be mutated later; ``train`` never mutates a parameter vector in
    place."""
    if p.scale_mode == FIXED:
        return PolicyParams(vec, p.theta_sigma, p.alpha, p.scale_mode, p.sigma0)
    return PolicyParams(vec[:3], vec[3:], p.alpha, p.scale_mode, p.sigma0)
