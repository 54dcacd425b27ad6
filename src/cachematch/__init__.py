"""Cache-network rate toolkit: schemes, bounds, regimes, Monte Carlo.

Names are imported from their modules (``cachematch.config``,
``cachematch.montecarlo``, ...); the package root holds only the versions.
"""

from .traffic import SAMPLER_VERSION

__version__ = "0.1.0"
