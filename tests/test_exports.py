"""Every exported name resolves: tools that walk `__all__` call getattr on each entry."""

import importlib
import pkgutil

import pytest

import sharedsched

MODULES = ["sharedsched"] + [
    f"sharedsched.{info.name}" for info in pkgutil.iter_modules(sharedsched.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", []) if not hasattr(module, entry)]
    assert missing == []


# the package's public names before they were gathered from the modules' __all__,
# less the since removed PartialState and work_at (now the tests' own, in oracle_checks)
PUBLIC = """
    CapacityTable build_capacity_table finish_time SharedInterval MachineProfile Instance
    Schedule Objective validate_instance evaluate objective_value instance_to_json
    instance_from_json OrderRule PlacementRule job_order list_schedule ls lpt ls_ect lpt_ect spt
    spt_ect guarantee_ratio compute_d makespan_scheme GeometricBuckets
    totaltime_scheme OracleLimitError OracleResult exact_optimal partition_gadget_makespan
    partition_gadget_totaltime named_example NAMED_EXAMPLES RandomSpec random_instance __version__
""".split()


def test_the_package_keeps_every_public_name():
    assert set(PUBLIC) <= set(sharedsched.__all__)
    assert [name for name in sharedsched.__all__ if name not in PUBLIC] == ["ect_placement"]
