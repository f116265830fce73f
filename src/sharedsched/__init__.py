"""Scheduling on parallel machines that only lend part of their capacity.

Machines run a fixed background workload, so only a piecewise-constant
fraction of their speed is available to the jobs being scheduled.  The
package provides exact schedule evaluation on rational data, greedy list
schedulers, accuracy-parameterized schemes for both the makespan and the
completion-time sum, an exhaustive oracle for small instances, and instance
generators including equal-split hardness gadgets.
"""

from .capacity import CapacityTable, build_capacity_table, finish_time, work_at
from .generators import (
    NAMED_EXAMPLES,
    RandomSpec,
    named_example,
    partition_gadget_makespan,
    partition_gadget_totaltime,
    random_instance,
)
from .heuristics import (
    OrderRule,
    PlacementRule,
    guarantee_ratio,
    job_order,
    list_schedule,
    lpt,
    lpt_ect,
    ls,
    ls_ect,
    spt,
    spt_ect,
)
from .model import (
    Instance,
    MachineProfile,
    Objective,
    Schedule,
    SharedInterval,
    evaluate,
    instance_from_json,
    instance_to_json,
    objective_value,
    validate_instance,
)
from .oracle import OracleLimitError, OracleResult, exact_optimal
from .schemes import (
    GeometricBuckets,
    PartialState,
    compute_d,
    makespan_scheme,
    totaltime_scheme,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityTable",
    "build_capacity_table",
    "finish_time",
    "work_at",
    "SharedInterval",
    "MachineProfile",
    "Instance",
    "Schedule",
    "Objective",
    "validate_instance",
    "evaluate",
    "objective_value",
    "instance_to_json",
    "instance_from_json",
    "OrderRule",
    "PlacementRule",
    "job_order",
    "list_schedule",
    "ls",
    "lpt",
    "ls_ect",
    "lpt_ect",
    "spt",
    "spt_ect",
    "guarantee_ratio",
    "compute_d",
    "makespan_scheme",
    "GeometricBuckets",
    "PartialState",
    "totaltime_scheme",
    "OracleLimitError",
    "OracleResult",
    "exact_optimal",
    "partition_gadget_makespan",
    "partition_gadget_totaltime",
    "named_example",
    "NAMED_EXAMPLES",
    "RandomSpec",
    "random_instance",
    "__version__",
]
