"""Empirical-dynamic-modeling causality toolkit.

Delay-coordinate embedding, simplex-projection forecasting, convergent
cross mapping (plain, lagged, and joint-embedding variants), and the
deterministic synthetic systems used to exercise them. The package
exports each module's ``__all__``, which is the one list of its public
names.
"""

from . import core, embedding, forecast, ccm, systems
from .core import *  # noqa: F401,F403
from .embedding import *  # noqa: F401,F403
from .forecast import *  # noqa: F401,F403
from .ccm import *  # noqa: F401,F403
from .systems import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*core.__all__, *embedding.__all__, *forecast.__all__, *ccm.__all__,
           *systems.__all__, "__version__"]
