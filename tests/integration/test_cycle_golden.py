"""Byte-identity gate for cycle-mode cells.

Each cell's ``RunStats.to_dict()`` must serialize to exactly the JSON
recorded in ``tests/golden/cycle_runstats.json``, and the simulation
engine must end with the recorded ``ticks``, ``fast_forwarded_cycles``
and ``cycle``.  The goldens pin the flit-level path (kernel, routers,
dTDMA pillars and the vector fabric), so a speedup of the kernel or a
fabric that changes any number, or the amount of work the activity
tracker skips, fails here.

Re-record only for an intended behaviour change:

    PYTHONPATH=src python -m tests.integration.test_cycle_golden
"""

import json
from pathlib import Path

import pytest

from repro.core.schemes import Scheme
from repro.experiments.config import ExperimentScale
from repro.experiments.spec import SimSpec, simulate
from repro.faults.spec import FaultSpec

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "cycle_runstats.json"

SMALL = ExperimentScale(name="golden", refs_per_cpu=40)

CELLS = {
    "CMP-DNUCA-3D/swim@optimized": SimSpec(
        Scheme.CMP_DNUCA_3D, "swim", SMALL, mode="cycle", fabric="optimized"
    ),
    "CMP-DNUCA-3D/swim@vector": SimSpec(
        Scheme.CMP_DNUCA_3D, "swim", SMALL, mode="cycle", fabric="vector"
    ),
    "CMP-DNUCA-3D/swim+dead-pillar@optimized": SimSpec(
        Scheme.CMP_DNUCA_3D, "swim", SMALL, mode="cycle", fabric="optimized",
        faults=FaultSpec(dead_pillars=1),
    ),
    "CMP-DNUCA-2D/mgrid@vector": SimSpec(
        Scheme.CMP_DNUCA_2D, "mgrid", SMALL, mode="cycle", fabric="vector"
    ),
}


def _record(spec: SimSpec) -> dict:
    system, stats = simulate(spec)
    engine = system.pricer.network.engine
    return {
        "run_stats": stats.to_dict(),
        "engine": {
            "ticks": engine.ticks,
            "fast_forwarded_cycles": engine.fast_forwarded_cycles,
            "cycle": engine.cycle,
        },
    }


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, indent=1)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cycle_cell_matches_golden(golden, name):
    assert _canonical(_record(CELLS[name])) == _canonical(golden[name])


if __name__ == "__main__":
    records = {name: _record(spec) for name, spec in CELLS.items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_canonical(records) + "\n")
    print(f"wrote {len(records)} cells to {GOLDEN}")
