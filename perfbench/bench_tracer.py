"""Span tracing for the benchmark's traced run, from outside the program.

:class:`Tracer` replaces the public entry points of each ``repro`` layer
with timing wrappers for the duration of a ``with`` block and puts the
originals back afterwards.  Module-level functions are swapped in every
loaded ``repro`` module that holds them (``from x import f`` copies the
name), methods on their defining classes.  Each wrapper records a span:
calls, inclusive seconds and self seconds (inclusive minus the time of
the spans it caused).  The wrappers keep references to the arguments and
return values the metrics need; digests and counts are computed after
the block, so that work is not charged to any span.

The runtime stage timers (``repro.core.instrumentation.TIMERS``) run
alongside.  On the stacked path their stages nest — ``movement`` covers
the lazily built MT bank's ``seeding``, every ``twist`` pass and the
stacked ``monitor`` screens — so the wrapper around ``run_stacked_cell``
measures how much of those stages ran inside it and
:meth:`Tracer.movement_self_s` subtracts exactly that.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple


@dataclass
class Span:
    """Accumulated timing of one wrapped entry point."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: List[float] = field(default_factory=list)


def _stage_seconds(timers, stages) -> float:
    return sum(
        timers.stages[s].seconds for s in stages if s in timers.stages
    )


class Tracer:
    """Wraps the layer entry points; read :attr:`spans` and the captures."""

    #: Stages that nest inside stacked ``movement``.
    NESTED_STAGES = ("seeding", "twist", "monitor")

    def __init__(self) -> None:
        self.spans: Dict[str, Span] = {}
        self._stack: List[float] = []
        self._restore: List[Callable[[], None]] = []
        #: plan_tasks (specs, tasks) pairs.
        self.plans: List[Tuple[Any, Any]] = []
        #: Schedules scored per Evaluator.evaluate call.
        self.evaluated: List[Any] = []
        #: Trials covered by stacked vectorized spec screens.
        self.stacked_checks = 0
        #: Streams (trials x n) per stacked cell.
        self.streams = 0
        #: Nested-stage seconds measured inside run_stacked_cell.
        self.nested_in_movement_s = 0.0

    # ------------------------------------------------------------- wrapping
    def _wrap(self, name: str, fn: Callable, after=None) -> Callable:
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                children = stack.pop()
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - children
                span.durations.append(elapsed)
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _patch_function(
        self, module, attr: str, name: str, after=None, inner=None
    ) -> None:
        original = getattr(module, attr)
        target = original if inner is None else inner(original)
        wrapper = self._wrap(name, target, after)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "") or ""
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append(
                        lambda m=mod, k=key: setattr(m, k, original)
                    )

    def _patch_method(self, cls, attr: str, name: str, after=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original, after))
        self._restore.append(lambda: setattr(cls, attr, original))

    def __enter__(self) -> "Tracer":
        from repro.core.instrumentation import TIMERS
        from repro.search import strategies
        from repro.sim import batch, checker, columnar, reference, runner
        from repro.sim import vectorized

        self._timers = TIMERS

        def stacked_cell(args, kwargs, result):
            self.streams += len(args[0]) * len(args[1])

        def planned(args, kwargs, tasks):
            self.plans.append((args[0], tasks))

        def stacked_check(args, kwargs, result):
            self.stacked_checks += args[0].trials

        def evaluated(args, kwargs, result):
            self.evaluated.append([e.schedule for e in result])

        self._patch_function(batch, "run_batch", "batch")
        self._patch_function(batch, "plan_tasks", "plan", planned)
        self._patch_function(batch, "run_cell", "cell")
        self._patch_function(batch, "run_trial", "trial")
        self._patch_function(runner, "run_renaming", "runner")
        self._patch_function(checker, "check_renaming", "checker")
        self._patch_function(strategies, "run_hunt", "hunt")
        self._patch_method(batch.AdversarySpec, "build", "adversary")
        self._patch_method(strategies.Evaluator, "evaluate", "evaluate", evaluated)
        self._patch_method(reference.ReferenceKernel, "run", "reference")
        self._patch_method(columnar.ColumnarKernel, "run", "columnar")
        self._patch_method(vectorized.VectorizedKernel, "run", "vectorized_kernel")
        self._patch_method(
            vectorized.StackedCellRun, "check", "stacked_check", stacked_check
        )
        # run_stacked_cell additionally measures the TIMERS stages that
        # ran inside it (all nested in its ``movement``).
        def measuring_nested(original):
            @functools.wraps(original)
            def measured(*args, **kwargs):
                before = _stage_seconds(TIMERS, self.NESTED_STAGES)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.nested_in_movement_s += (
                        _stage_seconds(TIMERS, self.NESTED_STAGES) - before
                    )

            return measured

        self._patch_function(
            vectorized,
            "run_stacked_cell",
            "stacked",
            stacked_cell,
            inner=measuring_nested,
        )
        TIMERS.enable()
        return self

    def __exit__(self, *exc) -> None:
        self._timers.disable()
        while self._restore:
            self._restore.pop()()

    # -------------------------------------------------------------- readers
    def span(self, name: str) -> Span:
        return self.spans.get(name, Span())

    def stage_s(self, stage: str) -> float:
        stats = self._timers.stages.get(stage)
        return 0.0 if stats is None else stats.seconds

    def movement_self_s(self) -> float:
        """Engine movement time less the stages nested inside it."""
        return self.stage_s("movement") - self.nested_in_movement_s


def _share_repeated(keys) -> float:
    """Share of ``keys`` already seen earlier in the sequence."""
    keys = list(keys)
    return 0.0 if not keys else 1.0 - len(set(keys)) / len(keys)


def _quantile_ms(durations, q: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1000.0 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _improvement_ratio(units) -> float:
    """Evaluations that raised their hunt's best score, per evaluation."""
    improved = evaluated = 0
    for unit in units:
        if unit.hunt is None:
            continue
        best = None
        for evaluation in unit.hunt.evaluations:
            evaluated += 1
            if best is not None and evaluation.score > best:
                improved += 1
            best = evaluation.score if best is None else max(best, evaluation.score)
    return improved / evaluated if evaluated else 0.0


def layer_metrics(tracer: Tracer, units, traced_s: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``{name: (value, unit)}``."""
    trials = [trial for unit in units for trial in unit.trials]
    count = max(1, len(trials))
    planned = [spec for specs, _ in tracer.plans for spec in specs]
    tasks = [task for _, plan in tracer.plans for task in plan]
    stacked = sum(len(task) for task in tasks if isinstance(task, tuple))
    schedules = [s.digest for batch in tracer.evaluated for s in batch]
    span = tracer.span
    seeding, twist = tracer.stage_s("seeding"), tracer.stage_s("twist")
    runner = span("runner").durations
    return {
        "batch.calls": (span("batch").calls, "count"),
        "batch.tasks": (len(tasks), "count"),
        "batch.plan_s": (span("plan").self_s, "s"),
        "batch.self_s": (
            sum(span(name).self_s for name in ("batch", "cell", "trial")), "s"
        ),
        "batch.stacked_share": (stacked / len(planned) if planned else 0.0, "ratio"),
        "batch.duplicate_spec_share": (
            _share_repeated(spec.digest() for spec in planned), "ratio"
        ),
        "runner.calls": (span("runner").calls, "count"),
        "runner.self_s": (span("runner").self_s, "s"),
        "runner.trial_p50_ms": (_quantile_ms(runner, 0.5), "ms"),
        "runner.trial_p90_ms": (_quantile_ms(runner, 0.9), "ms"),
        "vectorized.cells": (span("stacked").calls, "count"),
        "vectorized.streams": (tracer.streams, "count"),
        "vectorized.cell_s": (span("stacked").self_s, "s"),
        "columnar.runs": (span("columnar").calls, "count"),
        "columnar.run_s": (span("columnar").self_s, "s"),
        "rng.seeding_s": (seeding, "s"),
        "rng.twist_s": (twist, "s"),
        "rng.share": ((seeding + twist) / traced_s, "ratio"),
        "engine.movement_self_s": (tracer.movement_self_s(), "s"),
        "monitor.screen_s": (tracer.stage_s("monitor"), "s"),
        "monitor.violations": (sum(len(t.violations) for t in trials), "count"),
        "adversary.builds": (span("adversary").calls, "count"),
        "adversary.builds_per_trial": (span("adversary").calls / count, "ratio"),
        "adversary.build_s": (span("adversary").self_s, "s"),
        "checker.checks": (span("checker").calls + tracer.stacked_checks, "count"),
        "checker.check_s": (
            span("checker").self_s + span("stacked_check").self_s, "s"
        ),
        "search.evaluate_calls": (span("evaluate").calls, "count"),
        "search.evaluate_self_s": (span("evaluate").self_s, "s"),
        "search.propose_s": (span("hunt").self_s, "s"),
        "search.duplicate_share": (_share_repeated(schedules), "ratio"),
        "search.improvement_ratio": (_improvement_ratio(units), "ratio"),
        "sim.trials": (len(trials), "count"),
        "sim.rounds_mean": (sum(t.rounds for t in trials) / count, "rounds"),
        "sim.messages_per_trial": (
            sum(t.messages_sent for t in trials) / count, "count"
        ),
        "traced_wall_s": (traced_s, "s"),
    }
