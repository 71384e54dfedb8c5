"""Byte-identity gate for model-mode cells.

Each cell's ``RunStats.to_dict()`` must serialize to exactly the JSON
recorded in ``tests/golden/model_runstats.json``.  The goldens pin the
analytic pricing path (routing, pillar choice, load tracking and query
rounds), so a speedup of that path that changes any number fails here.

Re-record only for an intended behaviour change:

    PYTHONPATH=src python -m tests.integration.test_model_golden
"""

import json
from pathlib import Path

import pytest

from repro.core.schemes import Scheme
from repro.experiments.config import ExperimentScale
from repro.experiments.spec import SimSpec, run_spec
from repro.faults.spec import FaultSpec

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "model_runstats.json"

SMALL = ExperimentScale(name="golden", refs_per_cpu=200)

CELLS = {
    "CMP-DNUCA-3D/swim": SimSpec(Scheme.CMP_DNUCA_3D, "swim", SMALL),
    "CMP-SNUCA-3D/mgrid": SimSpec(Scheme.CMP_SNUCA_3D, "mgrid", SMALL),
    "CMP-SNUCA-3D/art@4L": SimSpec(Scheme.CMP_SNUCA_3D, "art", SMALL, layers=4),
    "CMP-DNUCA/swim": SimSpec(Scheme.CMP_DNUCA, "swim", SMALL),
    "CMP-DNUCA-2D/mgrid": SimSpec(Scheme.CMP_DNUCA_2D, "mgrid", SMALL),
    "CMP-DNUCA-3D/swim+dead-pillar": SimSpec(
        Scheme.CMP_DNUCA_3D, "swim", SMALL, faults=FaultSpec(dead_pillars=1)
    ),
    # Fig 17: two pillars carry every inter-layer packet, so the order
    # of per-pillar bus-load updates inside a query round shows.
    "CMP-DNUCA-3D/swim@2P-fixed": SimSpec(
        Scheme.CMP_DNUCA_3D, "swim", SMALL, pillars=2, fixed_floorplan=True
    ),
    # Fig 16: a 32 MB L2 has more clusters, so the step-1 and step-2
    # rounds query different numbers of tag arrays.
    "CMP-DNUCA-3D/mgrid@32MB": SimSpec(
        Scheme.CMP_DNUCA_3D, "mgrid", SMALL, cache_mb=32
    ),
}


def _canonical(stats: dict) -> str:
    return json.dumps(stats, sort_keys=True, indent=1)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_model_cell_matches_golden(golden, name):
    stats = run_spec(CELLS[name]).to_dict()
    assert _canonical(stats) == _canonical(golden[name])


if __name__ == "__main__":
    records = {name: run_spec(spec).to_dict() for name, spec in CELLS.items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_canonical(records) + "\n")
    print(f"wrote {len(records)} cells to {GOLDEN}")
