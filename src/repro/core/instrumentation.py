"""Per-phase tree statistics and runtime stage telemetry.

Two instrumentation layers live here:

* :class:`TreeStatsObserver` samples a *reference view* (the lowest-
  labelled ball still alive) after every position round — the moment the
  paper's per-phase quantities are well defined — and records the
  measures used in the complexity analysis: ``bmax`` (Lemma 6), the
  maximum path population (Lemmas 9-10), and how many balls have reached
  leaves.

* :class:`StageTimers` is lightweight wall-clock telemetry over the
  runtime's hot stages (RNG ``seeding``, MT ``twist`` passes, engine
  ``movement`` rounds, ``monitor`` screens).  It is **off by default**
  and costs one attribute read per hook when disabled.  Timings are
  wall-clock by nature, so they never touch a result row — the CLI
  emits them as a separate trailing ``telemetry`` jsonl record, and
  lint rule D106 statically bans clock reads inside trace/telemetry
  *payload* recording.  The module-level :data:`TIMERS` collector is
  per-process: under the process executor it observes the coordinating
  process only (worker time shows up as executor elapsed, not stages).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.views import SharedViewStore, ViewStore
from repro.errors import SimulationError

#: The runtime stages :class:`StageTimers` knows how to attribute.
TELEMETRY_STAGES = ("seeding", "twist", "movement", "monitor")


@dataclass
class StageStats:
    """Accumulated wall-clock time and call count for one stage."""

    calls: int = 0
    seconds: float = 0.0


@dataclass
class StageTimers:
    """Opt-in per-stage wall-clock accumulators (see module docstring).

    Usage at a hook site::

        started = TIMERS.start()
        ...the timed stage...
        TIMERS.stop("movement", started)

    ``start`` returns 0.0 when disabled, and ``stop`` is then a no-op;
    both clock reads live inside this class so hook sites stay free of
    wall-clock calls (and of D102 waivers).
    """

    enabled: bool = False
    stages: Dict[str, StageStats] = field(default_factory=dict)

    def enable(self) -> None:
        """Start collecting (cleared first, so snapshots are per-run)."""
        self.reset()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.stages.clear()

    def start(self) -> float:
        """A stage start mark, or 0.0 when telemetry is off."""
        if not self.enabled:
            return 0.0
        # repro: lint-ok[D102] wall-clock telemetry only; stage timings never feed a result row or an RNG
        return time.perf_counter()

    def stop(self, stage: str, started: float) -> None:
        """Attribute the time since ``started`` to ``stage``."""
        if not self.enabled:
            return
        # repro: lint-ok[D102] wall-clock telemetry only; stage timings never feed a result row or an RNG
        elapsed = time.perf_counter() - started
        stats = self.stages.get(stage)
        if stats is None:
            stats = self.stages[stage] = StageStats()
        stats.calls += 1
        stats.seconds += elapsed

    def split(self, started: float, weights: Dict[str, float]) -> None:
        """Attribute the time since ``started`` across several stages,
        in proportion to ``weights`` (for stages that ran interleaved on
        worker threads, whose own durations overlap in wall time)."""
        if not self.enabled:
            return
        # repro: lint-ok[D102] wall-clock telemetry only; stage timings never feed a result row or an RNG
        elapsed = time.perf_counter() - started
        total = sum(weights.values())
        for stage, weight in weights.items():
            stats = self.stages.get(stage)
            if stats is None:
                stats = self.stages[stage] = StageStats()
            stats.calls += 1
            stats.seconds += elapsed * weight / total if total else 0.0

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready ``{stage: {calls, seconds}}`` in stage order."""
        ordered = [s for s in TELEMETRY_STAGES if s in self.stages]
        ordered += sorted(set(self.stages) - set(TELEMETRY_STAGES))
        return {
            stage: {
                "calls": self.stages[stage].calls,
                "seconds": self.stages[stage].seconds,
            }
            for stage in ordered
        }


#: The process-wide collector every hook reports to.  Enable with
#: ``TIMERS.enable()`` (the CLI's ``--telemetry`` flag does) and read
#: with ``TIMERS.snapshot()``.
TIMERS = StageTimers()


@dataclass(frozen=True)
class PhaseStats:
    """Tree measures at the end of one phase, in the reference view."""

    phase: int
    round_no: int
    balls: int
    balls_at_leaves: int
    bmax_inner: int
    max_path_population: int
    occupancy_by_depth: Dict[int, int]
    view_classes: int


class TreeStatsObserver:
    """Simulator observer collecting :class:`PhaseStats` each phase.

    Attach via ``Simulation(observers=[observer])``; it is cheap for the
    tree sizes used in experiments (O(occupied nodes * height) per phase).
    """

    def __init__(self, store: ViewStore) -> None:
        self._store = store
        self.phases: List[PhaseStats] = []

    def __call__(self, simulation: Any, round_no: int) -> None:
        # Rounds: 1 = hello, then (2*phi, 2*phi + 1) = phase phi.  Sample
        # at the end of each position round.
        if round_no < 3 or round_no % 2 == 0:
            return
        reference = self._reference_pid(simulation)
        if reference is None:
            return
        try:
            view = self._store.view_of(reference)
        except SimulationError:
            # The reference ball crashed before its view was initialized
            # ("ball ... has no initialized view"); skip the sample.  Any
            # other failure is an engine bug and must propagate.
            return
        classes = (
            self._store.class_count()
            if isinstance(self._store, SharedViewStore)
            else len(simulation.alive())
        )
        self.phases.append(
            PhaseStats(
                phase=(round_no - 1) // 2,
                round_no=round_no,
                balls=len(view),
                balls_at_leaves=view.balls_at_leaves(),
                bmax_inner=view.max_inner_occupancy(),
                max_path_population=view.max_path_population(),
                occupancy_by_depth=view.occupancy_by_depth(),
                view_classes=classes,
            )
        )

    def bmax_trajectory(self) -> List[int]:
        """``bmax`` per phase, the quantity bounded by Lemma 6."""
        return [stats.bmax_inner for stats in self.phases]

    def path_population_trajectory(self) -> List[int]:
        """Maximum path population per phase (Lemmas 9-10)."""
        return [stats.max_path_population for stats in self.phases]

    @staticmethod
    def _reference_pid(simulation: Any) -> Optional[object]:
        candidates = simulation.alive()
        if not candidates:
            return None
        return min(candidates, key=repr)
