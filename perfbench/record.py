"""Record the current code's output for every catalogue instance of every workload.

    PYTHONPATH=src python3 perfbench/record.py [workload ...]

Writes perfbench/expected/<workload>.json, which every benchmark run compares
against.  Run it only on a commit whose outputs are known to be right: the
record is what later commits must reproduce exactly, values, minimizers and
tie rules included.  It refuses to write a workload whose outputs fail any
other check.
"""

from __future__ import annotations

import json
import shutil
import sys

from worker import WORK_ROOT, Tally, import_library, prepare, process
from workloads import EXPECTED_DIR, WORKLOADS, sha256


def record(wl) -> dict:
    lib = import_library()
    tally = Tally()
    entries = {}
    workdir = WORK_ROOT / f"record-{wl.name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        items = prepare(lib, wl, wl.entries(), None, workdir, tally)
        for item in items:
            ops: dict = {}
            process(lib, wl, item, None, tally, record=ops)
            entries[item.entry.key] = {"instance": sha256(item.text), "ops": ops}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tally.failed:
        raise SystemExit(f"{wl.name}: {tally.failed} operations failed: {tally.problems}")
    return {"workload": wl.name, "entries": entries}


def main(names) -> int:
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        data = record(WORKLOADS[name])
        with open(EXPECTED_DIR / f"{name}.json", "w", encoding="utf-8") as out:
            out.write("{\"workload\": %s, \"entries\": {\n" % json.dumps(data["workload"]))
            out.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in data["entries"].items()))
            out.write("\n}}\n")
        print(f"{name}: {len(data['entries'])} instances recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
