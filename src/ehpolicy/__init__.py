"""Online power control for battery-limited energy-harvesting transmitters.

The library builds regular reward functions, the maximin stationary policy
and its baselines, capped arrival laws, and three independent evaluators of
long-run average reward (exact series, value iteration, Monte Carlo), plus
worst-case gap/factor metrics and a CSV/JSON command line.
"""

from . import arrivals, checks, evaluation, metrics, policies, rewards
from .arrivals import *  # noqa: F401,F403
from .checks import *  # noqa: F401,F403
from .evaluation import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .policies import *  # noqa: F401,F403
from .rewards import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (arrivals, checks, evaluation, metrics, policies, rewards)
    for name in module.__all__
] + ["__version__"]
