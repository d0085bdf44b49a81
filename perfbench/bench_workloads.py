"""The benchmark's three workloads: inputs, execution and output checks.

A workload is a sequence of *units*.  Unit ``k`` of workload seed ``s``
takes its inputs only from ``base_seed = s * UNIT_STRIDE + k``, passed
through :meth:`ScenarioMatrix.build` or :class:`HuntConfig` — the program
never sees the workload seed itself.  Unit 0 is the warm-up every fresh
process runs during set-up, shrunk to the least work that still runs
every lazy initialization (imports, topologies, the MT base state, the
full-size stacked state bank); timed units start at 1.

Entry points are called through their modules (``batch.run_batch``,
``strategies.run_hunt``) so the traced run's wrappers see these calls.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from typing import Any, Dict, List, Optional

from repro.errors import SimulationError, SpecViolation
from repro.search import strategies
from repro.search.shrink import replay_identical
from repro.sim import batch

#: Distance between the unit seeds of consecutive workload seeds.
UNIT_STRIDE = 100_000

#: The crash adversaries of the paper's model (Section 3).
CRASH_ADVERSARIES = ("random:rate=0.1", "targeted", "sandwich", "half-split")


@dataclasses.dataclass
class UnitResult:
    """One executed unit: its trial results plus hunt context."""

    trials: List[Any]
    hunt: Any = None

    def rows_digest(self) -> str:
        """SHA-256 over every trial's row and decided names, in order."""
        h = hashlib.sha256()
        for trial in self.trials:
            h.update(json.dumps(trial.to_row(), sort_keys=True).encode())
            h.update(repr(trial.names).encode())
        return h.hexdigest()


class Workload:
    """Base: subclasses define :meth:`run_unit` and :meth:`gate`."""

    name = ""
    #: Nominal seconds per unit on a 2-core x86 box; sizes the traced run.
    unit_seconds = 1.0
    #: Trials one unit attempts.
    unit_trials = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def base_seed(self, k: int) -> int:
        return self.seed * UNIT_STRIDE + k

    def run_unit(self, k: int) -> UnitResult:
        raise NotImplementedError

    def warm_up(self) -> UnitResult:
        """Unit 0: the first result a fresh process produces."""
        return self.run_unit(0)

    def attempt(self, k: int) -> Optional[UnitResult]:
        """Unit ``k``, or None when it raised (``check=True`` raises on a
        spec violation): then all :attr:`unit_trials` trials failed."""
        try:
            return self.run_unit(k)
        except (SimulationError, SpecViolation) as error:
            print(f"gate: unit {k}: {type(error).__name__}: {error}", file=sys.stderr)
            return None

    def gate(self, unit: UnitResult) -> List[str]:
        """Problems found by the output gate (empty = the unit is correct)."""
        raise NotImplementedError


def check_names(trial) -> List[str]:
    """The benchmark's own renaming check on one result row."""
    spec = trial.spec
    names = [name for _, name in trial.names]
    problems = []
    if len(names) != spec.n - trial.failures:
        problems.append(
            f"{spec.digest()}: {len(names)} names for "
            f"{spec.n - trial.failures} correct processes"
        )
    if len(set(names)) != len(names):
        problems.append(f"{spec.digest()}: duplicate names")
    if any(not 0 <= name < spec.n for name in names):
        problems.append(f"{spec.digest()}: name outside 0..{spec.n - 1}")
    if len({pid for pid, _ in trial.names}) != len(names):
        problems.append(f"{spec.digest()}: a process named twice")
    return problems


def reference_rerun(trial) -> List[str]:
    """Re-run one trial on the reference kernel; names and rounds must match."""
    spec = dataclasses.replace(trial.spec, kernel="reference")
    again = batch.run_trial(spec)
    if (again.names, again.rounds) != (trial.names, trial.rounds):
        return [f"{trial.spec.digest()}: reference kernel disagrees"]
    return []


def matrix_gate(unit: UnitResult) -> List[str]:
    """Spec-level checks on every trial, reference re-run per cell."""
    problems = []
    first_of_cell: Dict[Any, Any] = {}
    for trial in unit.trials:
        first_of_cell.setdefault(trial.cell, trial)
        if trial.error is not None:
            problems.append(f"{trial.spec.digest()}: {trial.error}")
        if trial.violations:
            problems.append(f"{trial.spec.digest()}: monitor violations")
        problems += check_names(trial)
    for trial in first_of_cell.values():
        problems += reference_rerun(trial)
    return problems


class SweepBil(Workload):
    """Failure-free n=1024 matrix: one full 2**17-stream stack per unit."""

    name = "sweep-bil"
    unit_seconds = 1.0
    unit_trials = 128
    #: 128 x 1024 streams: exactly the default stacked-call budget, so
    #: the warm-up (a full unit) allocates the full-size state bank.
    trials = 128

    def run_unit(self, k: int) -> UnitResult:
        matrix = batch.ScenarioMatrix.build(
            ["balls-into-leaves"],
            [1024],
            ["none"],
            trials=self.trials,
            base_seed=self.base_seed(k),
            seed_mode="derived",
            check=True,
        )
        return UnitResult(batch.run_batch(matrix, executor="serial").trials)

    def gate(self, unit: UnitResult) -> List[str]:
        return matrix_gate(unit)


class CrashGauntlet(Workload):
    """n=256 under the four crash adversaries, monitored, per-trial."""

    name = "crash-gauntlet"
    unit_seconds = 1.8
    trials = 25
    unit_trials = trials * len(CRASH_ADVERSARIES)

    def run_unit(self, k: int, trials: int = 0) -> UnitResult:
        matrix = batch.ScenarioMatrix.build(
            ["balls-into-leaves"],
            [256],
            CRASH_ADVERSARIES,
            trials=trials or self.trials,
            base_seed=self.base_seed(k),
            seed_mode="derived",
            check=True,
            monitor="cheap",
        )
        return UnitResult(batch.run_batch(matrix, executor="serial").trials)

    def warm_up(self) -> UnitResult:
        return self.run_unit(0, trials=1)

    def gate(self, unit: UnitResult) -> List[str]:
        return matrix_gate(unit)


class HuntEvolve(Workload):
    """One evolutionary rounds hunt at n=32 (default 200-trial budget) per unit."""

    name = "hunt-evolve"
    unit_seconds = 0.5
    unit_trials = strategies.HuntConfig().budget

    def run_unit(self, k: int, **budget) -> UnitResult:
        config = strategies.HuntConfig(
            n=32, objective="rounds", seed=self.base_seed(k), **budget
        )
        hunt = strategies.run_hunt(config, "evolve", executor="serial")
        trials = [t for e in hunt.evaluations for t in e.results]
        return UnitResult(trials, hunt=hunt)

    def warm_up(self) -> UnitResult:
        # One generation: the strategy, planner and columnar crash
        # engine all run once.
        return self.run_unit(0, budget=strategies.Evolutionary.population)

    def gate(self, unit: UnitResult) -> List[str]:
        problems = []
        for trial in unit.trials:
            if trial.error is None:
                problems += check_names(trial)
            elif not trial.error.startswith("RoundLimitExceeded"):
                # A captured deadlock is a finding; anything else failed.
                problems.append(f"{trial.spec.digest()}: {trial.error}")
        best = unit.hunt.best
        found = best.best_result
        try:
            reference, _ = replay_identical(
                best.schedule, unit.hunt.config, found.spec.seed
            )
        except SimulationError as error:  # the kernels diverged
            return problems + [f"best schedule replay: {error}"]
        if (reference.rounds, reference.names) != (found.rounds, found.names):
            problems.append(f"best schedule {best.schedule.digest} replays differently")
        return problems


WORKLOADS = {w.name: w for w in (SweepBil, CrashGauntlet, HuntEvolve)}

