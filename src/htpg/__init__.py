"""Heavy-tailed exploratory policy search with adaptive variance.

Policy-gradient training with symmetric alpha-stable action distributions
(Cauchy and Gaussian members), clipped score functions, unbiased
geometric-horizon Q estimation, convergence diagnostics, and two episodic
car environments with misleading rewards.
"""

__version__ = "0.1.0"
