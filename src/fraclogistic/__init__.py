"""Delayed logistic growth with fractional memory.

Three independent solution routes for the logistic model under
nonlocal derivatives with proportional delay, built to cross-validate
each other:

* exact closed forms (classical solution; constant-feedback case),
* the hybrid Sumudu-variational series with Adomian polynomials,
* product-integration numerical solvers for three fractional operators.

The public names are those of each module's ``__all__``.  The
term-by-term reference of the series route, :mod:`fraclogistic.series`
and :mod:`fraclogistic.adomian`, is imported from those modules; it is
not part of the package namespace.
"""

from . import closed_forms, errors, hsv, model, solvers, special, stability
from .closed_forms import *  # noqa: F403
from .errors import *  # noqa: F403
from .hsv import *  # noqa: F403
from .model import *  # noqa: F403
from .solvers import *  # noqa: F403
from .special import *  # noqa: F403
from .stability import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (closed_forms, errors, hsv, model, solvers, special, stability)
__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
