"""Reference loops that the package's fast paths must reproduce bit for bit.

``synthetic_sga_run`` runs only plain ascent on the 2-D ``SmoothBump``, as
one loop over Python floats.  :func:`synthetic_sga_reference` is the
generic array loop it replaced: any objective with a ``grad``, any
dimension, either update rule, any step rule ``step_size`` knows.  It is
the float loop's oracle (``tests/test_kernel.py``) and runs the inputs the
package no longer accepts, such as the Lipschitz-aware case that
``tests/test_regression.py`` pins.

:func:`standard_cms` is the general Chambers-Mallows-Stuck transform for any
tail index in (0, 2].  ``htpg.sas`` draws only its two members, Cauchy and
Gaussian; ``tests/test_sas.py`` checks both against it.
"""

import math

import numpy as np

from htpg.diagnostics import NoiseModel
from htpg.errors import DivergenceError
from htpg.policy import _squared_norm
from htpg.training import StepRule, UpdateRule, apply_update, step_size


# Like both training loops, the runs stay quiet on their way to DivergenceError.
@np.errstate(over="ignore", invalid="ignore")
def synthetic_sga_reference(objective, noise: NoiseModel, step_rule: StepRule,
                            update_rule: UpdateRule, rng, theta: np.ndarray,
                            norms: np.ndarray) -> np.ndarray:
    """``synthetic_sga_run`` for any objective, from the iterate ``theta``,
    for ``norms.size`` steps; fills and returns ``norms``."""
    for k in range(1, norms.size + 1):
        g = objective.grad(theta)
        g_sq = _squared_norm(g)
        norms[k - 1] = g_sq
        target = noise.y1 + noise.y2 * g_sq
        if target > 0.0:
            w = math.sqrt(target / theta.size) * rng.standard_normal(theta.size)
            g = g + w
        theta = apply_update(theta, g, update_rule, step_size(step_rule, k))
        if not np.isfinite(theta).all():
            raise DivergenceError(f"non-finite iterate at step {k}")
    return norms


def standard_cms(alpha: float, rng) -> float:
    """One standard (scale-1, location-0) SaS variate of tail index ``alpha``
    by the Chambers-Mallows-Stuck transform."""
    # The symmetric (beta = 0) case: one uniform angle on (-pi/2, pi/2) and
    # one unit exponential.
    u = math.pi * (rng.random() - 0.5)
    if alpha == 1.0:
        # Inverse CDF of the standard Cauchy.
        return math.tan(u)
    w = rng.standard_exponential()
    sin_au = math.sin(alpha * u)
    cos_u = math.cos(u)
    cos_rest = math.cos((1.0 - alpha) * u)
    return (sin_au / cos_u ** (1.0 / alpha)) * (cos_rest / w) ** ((1.0 - alpha) / alpha)
