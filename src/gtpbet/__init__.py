"""Sequential optimizing betting strategies for bounded forecasting games.

A library for log-optimal sequential betting over bounded outcome
vectors: exact capital accounting, a Newton solver for the hindsight
constant-proportion optimum, the sequential strategy that bets last
round's optimum, deficiency and law-of-large-numbers diagnostics, a
limit-order embedding of continuous price paths, an information
criterion for choosing the number of betting items, and a universal
portfolio baseline.
"""

from . import baselines, continuous, domain, model_select, optimizer, sos, transform
from .baselines import *
from .continuous import *
from .domain import *
from .model_select import *
from .optimizer import *
from .sos import *
from .transform import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (baselines, continuous, domain, model_select, optimizer, sos, transform)
    for name in module.__all__
)
