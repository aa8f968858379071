"""Photon-number statistics of heralded single-photon sources.

Exact conditional distributions and moments of the heralded signal branch
for Poisson and thermal pair sources with losses, dark counts, and mode
filtering; an optimal-dimming optimizer; and a seeded Monte Carlo
simulation of the same physical model used to cross-validate every closed
form.
"""

from .analytic import *
from .errors import *
from .model import *
from .montecarlo import *
from .optimize import *
from .verify import *

__version__ = "0.1.0"
