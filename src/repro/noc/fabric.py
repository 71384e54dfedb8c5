"""Fabric selection: which NoC implementation a network is built from.

``FabricKind`` replaces the stringly-typed ``Network(fabric=...)`` /
``SystemConfig.noc_fabric`` selector.  :meth:`FabricKind.parse` is the
single validator: plain strings are still accepted at the CLI/spec
boundary, and anything else raises a ``ValueError`` naming the invalid
value and listing the valid choices.
"""

from __future__ import annotations

import enum
from typing import Union


class FabricKind(enum.Enum):
    """Which interconnect implementation to build."""

    # The allocation-free hot path (PR 3): cached route tables, shared
    # link pipeline, posted credits, flit pooling, blocked-evaluate cache.
    OPTIMIZED = "optimized"
    # The frozen pre-PR-3 fabric kept verbatim as a differential oracle.
    REFERENCE = "reference"
    # The batched structure-of-arrays fabric: the whole 3D mesh held as
    # numpy state and advanced in bulk array operations once per cycle.
    # Distribution-level equivalent to the object fabrics (arbitration
    # rotation differs under contention — see DESIGN.md "Vector fabric").
    VECTOR = "vector"

    @classmethod
    def parse(cls, value: Union["FabricKind", str]) -> "FabricKind":
        """Coerce a string or enum to a ``FabricKind``.

        The single point of fabric validation: ``Network`` and
        ``SystemConfig`` both funnel through here.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value)
            except ValueError:
                pass
        choices = [kind.value for kind in cls]
        raise ValueError(f"unknown fabric {value!r}; choose from {choices}")


# Valid fabric names, for help strings and backwards compatibility.
FABRIC_NAMES = tuple(kind.value for kind in FabricKind)

#: CLI/spec sentinel resolved by :func:`resolve_fabric` before it ever
#: reaches ``FabricKind.parse`` (and therefore before serialization, so
#: spec hashes only ever name concrete fabrics).
AUTO_FABRIC = "auto"


def resolve_fabric(mode: str) -> tuple[str, str]:
    """Resolve the ``"auto"`` fabric selector to a concrete name.

    Returns ``(fabric_name, reason)``.  Vector is the default for
    cycle-mode whenever numpy imports, and model-mode specs and
    numpy-less environments fall back to the optimized object fabric.
    Vector wins ≥10x at saturation, but it is slower at the sparse load
    of a real cell: a cycle-mode CMP-DNUCA-3D/swim cell at 40 refs/CPU
    takes about 1.8x as long on vector as on optimized, with identical
    ``RunStats`` (medians of 62 and 35 ru over ten runs of perfbench's
    ``cycle_3d`` workload, which runs both).
    """
    if mode != "cycle":
        return (
            FabricKind.OPTIMIZED.value,
            f"mode={mode!r} is not cycle-accurate; "
            "recording the optimized default",
        )
    try:
        import numpy  # noqa: F401
    except ImportError:
        return (
            FabricKind.OPTIMIZED.value,
            "numpy unavailable; the vector fabric requires it",
        )
    return (
        FabricKind.VECTOR.value,
        "cycle mode with numpy available",
    )
