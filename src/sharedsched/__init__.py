"""Scheduling on parallel machines that only lend part of their capacity.

Machines run a fixed background workload, so only a piecewise-constant
fraction of their speed is available to the jobs being scheduled.  The
package provides exact schedule evaluation on rational data, greedy list
schedulers, accuracy-parameterized schemes for both the makespan and the
completion-time sum, an exhaustive oracle for small instances, and instance
generators including equal-split hardness gadgets.
"""

from . import capacity, generators, heuristics, model, oracle, schemes
from .capacity import *
from .generators import *
from .heuristics import *
from .model import *
from .oracle import *
from .schemes import *

__version__ = "0.1.0"

# each public name is declared once, in its module's __all__
__all__ = [
    *capacity.__all__,
    *model.__all__,
    *heuristics.__all__,
    *schemes.__all__,
    *oracle.__all__,
    *generators.__all__,
    "__version__",
]
