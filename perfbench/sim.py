"""The simulated-cell workloads: model_3d, model_2d and cycle_3d.

Each workload is a fixed list of cells run in-process, one after
another, through ``repro.api.run`` with no result cache.  A *round* runs
every cell of the workload once; the benchmark runs rounds until its
time is up and reports medians over rounds.  Round ``r`` runs its cells
on ``seed + r``, so one run samples several workloads and the per-seed
differences in work average out; the first round runs on ``seed``.
Each cell's time is also read in reference units (``perfbench.hostspeed``)
against the reference loop timed just before and just after it.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro import api
from repro.core.schemes import Scheme
from repro.experiments.config import ExperimentScale

from perfbench import checks
from perfbench.hostspeed import reference_s
from perfbench.layers import instrument_sim, layer_metrics
from perfbench.spans import SpanRecorder

#: References per CPU of a model-mode cell (warm-up included).
MODEL_REFS_PER_CPU = 750
#: References per CPU of a cycle-mode cell (warm-up included).
CYCLE_REFS_PER_CPU = 40
#: References per CPU of the throw-away cell timed as set-up.
SETUP_REFS_PER_CPU = 20

# (scheme, benchmark, SimSpec overrides) per workload.  The default 60%
# warm-up of ExperimentScale applies; caches start empty.
_CELLS = {
    "model_3d": [
        (Scheme.CMP_DNUCA_3D, "swim", {}),
        (Scheme.CMP_SNUCA_3D, "mgrid", {}),
        (Scheme.CMP_SNUCA_3D, "art", {"layers": 4}),
    ],
    "model_2d": [
        (Scheme.CMP_DNUCA, "swim", {}),
        (Scheme.CMP_DNUCA_2D, "mgrid", {}),
        (Scheme.CMP_DNUCA_2D, "art", {}),
    ],
    "cycle_3d": [
        (Scheme.CMP_DNUCA_3D, "swim", {"mode": "cycle", "fabric": "optimized"}),
        (Scheme.CMP_DNUCA_3D, "swim", {"mode": "cycle", "fabric": "auto"}),
    ],
}

WORKLOADS = tuple(_CELLS)


@dataclass(frozen=True)
class Cell:
    """One named cell of a workload; ``name`` keys the golden file."""

    name: str
    spec: api.SimSpec

    @property
    def refs(self) -> int:
        return self.spec.num_cpus * self.spec.scale.refs_per_cpu


def cells(workload: str, seed: int, refs_per_cpu: Optional[int] = None) -> list[Cell]:
    """The workload's cells on ``seed`` (``SimSpec.seed``)."""
    out = []
    for scheme, benchmark, overrides in _CELLS[workload]:
        mode = overrides.get("mode", "model")
        refs = refs_per_cpu or (
            CYCLE_REFS_PER_CPU if mode == "cycle" else MODEL_REFS_PER_CPU
        )
        scale = ExperimentScale(name="perfbench", refs_per_cpu=refs)
        name = f"{scheme.value}/{benchmark}"
        if "layers" in overrides:
            name += f"@{overrides['layers']}L"
        if mode == "cycle":
            name += f"@cycle:{overrides['fabric']}"
        spec = api.SimSpec(
            scheme=scheme, benchmark=benchmark, scale=scale, seed=seed,
            **overrides,
        )
        out.append(Cell(name, spec))
    return out


def setup_cell(workload: str, seed: int) -> Cell:
    """The minimal throw-away cell timed as the workload's set-up."""
    return cells(workload, seed, refs_per_cpu=SETUP_REFS_PER_CPU)[0]


@dataclass
class CellRun:
    cell: Cell
    seconds: float
    ref_s: float            # mean reference time just before and after
    stats: Optional[dict]   # RunStats.to_dict(), None if the cell raised
    error: Optional[str] = None

    @property
    def ru(self) -> float:
        """The cell's time in reference units."""
        return self.seconds / self.ref_s


def run_round(workload_cells: list[Cell]) -> list[CellRun]:
    """Run every cell once, timing each ``api.run`` call and the
    reference loop between calls."""
    runs = []
    ref_before = reference_s()
    for cell in workload_cells:
        start = time.perf_counter()
        try:
            stats = api.run(cell.spec).stats.to_dict()
            error = None
        except Exception as exc:  # a failing cell is counted, not fatal
            stats, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        ref_after = reference_s()
        runs.append(CellRun(
            cell, seconds, (ref_before + ref_after) / 2, stats, error
        ))
        ref_before = ref_after
    return runs


class Checker:
    """Checks every cell run; the first run of a cell on a seed is its
    reference, which every later run on that seed must reproduce."""

    def __init__(
        self,
        workload: str,
        seed: int,
        say: Callable[[str], None],
        refs_per_cpu: Optional[int] = None,
    ):
        self.workload = workload
        self.seed = seed
        # The golden file holds the default-seed, default-size cells.
        self.golden = checks.load_golden() if refs_per_cpu is None else None
        self.reference: dict[tuple[str, int], dict] = {}
        self.say = say
        self.attempted = 0
        self.failed = 0

    def check(self, run: CellRun) -> bool:
        """Count one cell run; True when it passed every check."""
        self.attempted += 1
        errors = [run.error] if run.error else []
        name, seed = run.cell.name, run.cell.spec.seed
        if run.stats is not None:
            reference = self.reference.get((name, seed))
            if reference is None:
                self.reference[name, seed] = run.stats
                errors += checks.invariant_errors(run.stats, run.cell.spec.mode)
                if self.golden is not None and seed == checks.DEFAULT_SEED:
                    mismatch = checks.golden_error(
                        self.golden, self.workload, name, run.stats
                    )
                    if mismatch:
                        errors.append(mismatch)
                if seed == self.seed:
                    self.say(
                        f"cell {name} seed {seed} stats_digest="
                        f"{checks.stats_digest(run.stats)}"
                    )
            elif run.stats != reference:
                errors.append(f"RunStats on seed {seed} differ from the first run")
        for error in errors:
            self.say(f"FAILED {name}: {error}")
        if errors:
            self.failed += 1
        return not errors


def _keep_going(start: float, rounds: int, seconds: float) -> bool:
    """Start another round only if it should end within ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds <= seconds


def measure(
    workload: str,
    seed: int,
    seconds: float,
    say: Callable[[str], None],
    refs_per_cpu: Optional[int] = None,
) -> tuple[Checker, dict[str, float]]:
    """Untraced rounds for ``seconds``; returns the end-to-end metrics.

    Each cell's cost is its median over rounds in reference units; the
    metrics combine those medians.  The same figures in wall seconds are
    printed beside them.
    """
    workload_cells = cells(workload, seed, refs_per_cpu)
    checker = Checker(workload, seed, say, refs_per_cpu)
    times: dict[str, list[float]] = {cell.name: [] for cell in workload_cells}
    costs: dict[str, list[float]] = {cell.name: [] for cell in workload_cells}
    rounds = 0
    start = time.perf_counter()
    while True:
        for run in run_round(cells(workload, seed + rounds, refs_per_cpu)):
            checker.check(run)
            times[run.cell.name].append(run.seconds)
            costs[run.cell.name].append(run.ru)
        rounds += 1
        if not _keep_going(start, rounds, seconds):
            break
    refs = sum(cell.refs for cell in workload_cells)
    cell_s = [statistics.median(times[cell.name]) for cell in workload_cells]
    cell_ru = [statistics.median(costs[cell.name]) for cell in workload_cells]
    for cell, seconds_, ru in zip(workload_cells, cell_s, cell_ru):
        say(f"cell {cell.name} {seconds_:.6f} s {ru:.4f} ru "
            f"(median of {rounds} run(s))")
    say(f"refs_per_s {refs / sum(cell_s):.6g} 1/s")
    say(f"cell_s_p50 {statistics.median(cell_s):.6g} s")
    say(f"cell_s_max {max(cell_s):.6g} s")
    return checker, {
        "work_per_ru": refs / sum(cell_ru),
        "op_ru_p50": statistics.median(cell_ru),
        "slow_op_ru": max(cell_ru),
    }


def measure_traced(
    workload: str,
    seed: int,
    seconds: float,
    say: Callable[[str], None],
    refs_per_cpu: Optional[int] = None,
    trace_path: Optional[str] = None,
) -> tuple[Checker, dict[str, float]]:
    """Pairs of (untraced, traced) rounds; returns the per-layer metrics.

    Both rounds of pair ``i`` run on ``seed + i``.  Every aggregate is a
    median over traced rounds; ``trace.overhead`` is the median
    traced/untraced wall-time ratio of a pair.
    """
    checker = Checker(workload, seed, say, refs_per_cpu)
    recorders: list[SpanRecorder] = []
    overheads = []
    start = time.perf_counter()
    while True:
        workload_cells = cells(workload, seed + len(recorders), refs_per_cpu)
        plain = run_round(workload_cells)
        for run in plain:
            checker.check(run)
        # Only the first traced round's spans are exported.
        recorder = SpanRecorder() if not recorders else SpanRecorder(keep=0)
        instrument_sim(recorder)
        try:
            traced = run_round(workload_cells)
        finally:
            recorder.restore()
        # The untraced run on the same seed is the reference, so this
        # proves the wrappers leave RunStats unchanged.
        for run in traced:
            checker.check(run)
        recorders.append(recorder)
        overheads.append(
            sum(r.seconds for r in traced) / sum(r.seconds for r in plain)
        )
        if not _keep_going(start, len(recorders), seconds):
            break
    passes = [rec.totals() for rec in recorders]
    totals = {
        name: {
            key: statistics.median(p.get(name, {}).get(key, 0) for p in passes)
            for key in first
        }
        for name, first in passes[0].items()
    }
    if trace_path is not None:
        recorders[0].write_chrome_trace(
            trace_path, {"workload": workload, "seed": seed}
        )
        say(f"wrote {trace_path}")
    return checker, layer_metrics(
        recorders[0],
        totals=totals,
        extra={"trace.overhead": statistics.median(overheads)},
    )
