"""Output checks: golden RunStats, digests and structural invariants.

Simulated statistics are deterministic functions of the spec, so they
are checked, never scored.  On the default seed every cell must
reproduce the golden ``RunStats.to_dict()`` recorded in ``golden.json``;
on any seed the structural invariants below must hold, and a per-cell
``stats_digest`` lets two commits be compared on that seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Optional

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: The seed the golden file was recorded on (``ExperimentScale.seed``).
DEFAULT_SEED = 2006


def stats_digest(stats_dict: dict) -> str:
    """Short content hash of one cell's ``RunStats.to_dict()``."""
    canonical = json.dumps(stats_dict, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def load_golden() -> dict:
    try:
        return json.loads(GOLDEN_PATH.read_text())
    except FileNotFoundError:
        return {}


def invariant_errors(stats_dict: dict, mode: str) -> list[str]:
    """Structural invariants every cell satisfies on every seed.

    The analytic model delivers every packet by construction.  A cycle
    cell may end with the last transaction's fire-and-forget packets
    (invalidations, refills, migrations) still in the fabric, because
    ``run_trace`` collects its statistics without draining them; what
    must never happen is a stranded packet, so every packet still in
    flight must be younger than one off-chip access.
    """
    from repro.core.system import SystemConfig

    errors = []
    if stats_dict["l2_hits"] + stats_dict["l2_misses"] <= 0:
        errors.append("no L2 accesses")
    for key in ("avg_l2_hit_latency", "avg_l2_miss_latency", "ipc", "cycles"):
        if not math.isfinite(stats_dict[key]):
            errors.append(f"{key} is not finite: {stats_dict[key]}")
    if stats_dict["ipc"] <= 0:
        errors.append(f"ipc {stats_dict['ipc']} is not positive")
    if mode == "model":
        if stats_dict["delivered_fraction"] != 1.0:
            errors.append(
                f"delivered_fraction {stats_dict['delivered_fraction']} "
                "!= 1.0 in model mode"
            )
    else:
        horizon = SystemConfig().memory_latency
        if stats_dict["in_flight_max_age"] >= horizon:
            errors.append(
                f"stranded packet: in_flight_max_age "
                f"{stats_dict['in_flight_max_age']} >= {horizon} cycles"
            )
        if (stats_dict["delivered_fraction"] < 1.0) != (
            stats_dict["in_flight_packets"] > 0
        ):
            errors.append(
                f"delivered_fraction {stats_dict['delivered_fraction']} "
                f"disagrees with {stats_dict['in_flight_packets']} "
                "packet(s) in flight"
            )
    return errors


def golden_error(
    golden: dict, workload: str, cell: str, stats_dict: dict
) -> Optional[str]:
    """Mismatch against the recorded golden, or None when it matches."""
    expected = golden.get(workload, {}).get(cell)
    if expected is None:
        return f"no golden recorded for {workload}/{cell}"
    if expected != stats_dict:
        diff = sorted(
            key for key in expected if expected[key] != stats_dict.get(key)
        )
        return f"golden mismatch for {workload}/{cell} in {diff}"
    return None
