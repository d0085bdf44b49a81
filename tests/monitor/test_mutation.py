"""Mutation suite: every monitor fires on its seeded violation.

A monitor that never fires is indistinguishable from no monitor.  Each
test here corrupts a *real* engine state into one specific known-bad
shape (duplicate name, over-capacity leaf, announced ball off its leaf,
crashed-ball retention, frozen progress) and asserts the corresponding
invariant — and only it — fires, with correct round/ball/node
attribution.  The wedged-engine tests drive the corruption through the
full ``run_renaming`` / batch stack to pin the abort and capture paths.
"""

from __future__ import annotations

import pytest

from repro.core.columnar import ColumnarBallsEngine, ColumnarCrashEngine
from repro.adversary import RandomCrashAdversary
from repro.core.mt19937 import HAVE_NUMPY
from repro.errors import MonitorViolation, SimulationError
from repro.ids import sparse_ids
from repro.monitor.invariants import (
    STALL_WINDOW,
    RunMonitor,
    observe_crash_engine,
)
from repro.sim.batch import AdversarySpec, TrialSpec, run_trial
from repro.sim.runner import run_renaming
from repro.tree.topology import cached_topology

N = 16


def fresh_engine(halt_on_name=False, seed=3):
    ids = sparse_ids(N)
    engine = ColumnarBallsEngine(
        ids, seed=seed, policy="random", halt_on_name=halt_on_name
    )
    return ids, engine


def fresh_monitor(ids, halt_on_name=False):
    return RunMonitor(
        sorted(ids), cached_topology(N).arrays(), halt_on_name=halt_on_name
    )


def run_to_completion(engine):
    round_no = 0
    while engine.running_count:
        round_no += 1
        engine.step(round_no)
    return round_no


def leaf_and_inner(n=N):
    arrays = cached_topology(n).arrays()
    leaves = [i for i, span in enumerate(arrays.span) if span == 1]
    inner = [i for i, span in enumerate(arrays.span) if span > 1]
    return leaves, inner


class TestSeededColumnarMutations:
    def test_duplicate_name_fires_uniqueness(self):
        ids, engine = fresh_engine()
        last = run_to_completion(engine)
        engine.decision[4] = engine.decision[2]
        monitor = fresh_monitor(ids)
        observe_crash_engine(monitor, engine, last)
        assert [v.invariant for v in monitor.violations] == ["uniqueness"]
        violation = monitor.violations[0]
        assert violation.round_no == last and violation.ball == 4
        labels = sorted(ids)
        assert repr(labels[2]) in violation.detail
        assert repr(labels[4]) in violation.detail

    def test_out_of_range_name_fires_namespace(self):
        ids, engine = fresh_engine()
        last = run_to_completion(engine)
        engine.decision[0] = N + 7
        monitor = fresh_monitor(ids)
        observe_crash_engine(monitor, engine, last)
        assert [v.invariant for v in monitor.violations] == ["namespace"]
        assert monitor.violations[0].ball == 0
        assert f"outside 0..{N - 1}" in monitor.violations[0].detail

    def test_over_capacity_leaf_fires_leaf_capacity(self):
        ids, engine = fresh_engine()
        engine.step(1)
        engine.step(2)
        leaves, _ = leaf_and_inner()
        engine.pos[0] = leaves[0]
        engine.pos[1] = leaves[0]
        monitor = fresh_monitor(ids)
        observe_crash_engine(monitor, engine, 2)
        found = [v for v in monitor.violations if v.invariant == "leaf-capacity"]
        assert len(found) == 1
        assert found[0].node == leaves[0] and found[0].round_no == 2
        # At least the two teleported balls (plus any legitimate tenant).
        assert f"leaf {leaves[0]} holds" in found[0].detail
        assert "(0 announced)" in found[0].detail

    def test_announced_ball_off_its_leaf_fires_retention(self):
        ids, engine = fresh_engine(halt_on_name=True)
        engine.step(1)
        engine.step(2)
        _, inner = leaf_and_inner()
        engine.halted[3] = True
        engine.pos[3] = inner[0]
        monitor = fresh_monitor(ids, halt_on_name=True)
        observe_crash_engine(monitor, engine, 2)
        found = [v for v in monitor.violations if v.invariant == "retention"]
        assert len(found) == 1
        assert found[0].ball == 3 and found[0].node == inner[0]

    def test_crashed_ball_retention_fires_after_deadline(self):
        ids = sparse_ids(N)
        engine = ColumnarCrashEngine(
            ids,
            seed=5,
            policy="random",
            adversary=RandomCrashAdversary(0.0, seed=1),
        )
        engine.step(1)
        engine.step(2)
        # Forge a crash the views never processed: the ball stays ACTIVE
        # in every survivor's view past the purge deadline.
        victim = 2
        engine.crashed[victim] = True
        monitor = fresh_monitor(ids)
        observe_crash_engine(monitor, engine, 2)  # deadline round: silent
        assert monitor.violations == []
        observe_crash_engine(monitor, engine, 3)
        found = [
            v for v in monitor.violations if v.invariant == "crash-retention"
        ]
        assert found, monitor.report()
        assert all(v.ball == victim for v in found)
        assert "crashed in round 2" in found[0].detail

    def test_frozen_engine_fires_progress(self):
        ids, engine = fresh_engine()
        engine.step(1)
        engine.step(2)
        assert engine.running_count > 0
        monitor = fresh_monitor(ids)
        # The engine stops being stepped: its observable state freezes
        # with balls still running — the monitor must call the deadlock
        # instead of spinning to the round limit.
        for round_no in range(2, 2 + STALL_WINDOW + 2):
            observe_crash_engine(monitor, engine, round_no)
        assert monitor.deadlocked
        stalls = [v for v in monitor.violations if v.invariant == "progress"]
        assert len(stalls) == 1
        assert f"no state change for {STALL_WINDOW} rounds" in stalls[0].detail


class _WedgedBallsEngine(ColumnarBallsEngine):
    """A columnar engine whose balls stop moving after ``WEDGE_ROUND``."""

    WEDGE_ROUND = 2

    def step(self, round_no):
        if round_no > self.WEDGE_ROUND:
            return
        super().step(round_no)


class TestEndToEndAbort:
    """Corruption surfaces through the full runner/batch stack."""

    def _wedge(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.columnar.ColumnarBallsEngine", _WedgedBallsEngine
        )

    def test_wedged_run_raises_monitor_violation(self, monkeypatch):
        self._wedge(monkeypatch)
        with pytest.raises(MonitorViolation) as caught:
            run_renaming(
                "balls-into-leaves",
                sparse_ids(N),
                seed=3,
                kernel="columnar",
                monitor="cheap",
            )
        assert any(
            v.invariant == "progress" for v in caught.value.violations
        )
        assert "[progress]" in str(caught.value)

    def test_unmonitored_wedged_run_spins_to_the_round_limit(self, monkeypatch):
        # Without the monitor the same wedge burns the whole round
        # budget — the "silent spin" the progress monitor exists to end.
        from repro.errors import RoundLimitExceeded

        self._wedge(monkeypatch)
        with pytest.raises(RoundLimitExceeded):
            run_renaming(
                "balls-into-leaves", sparse_ids(N), seed=3, kernel="columnar"
            )

    def test_batch_captures_violations_as_data(self, monkeypatch):
        self._wedge(monkeypatch)
        spec = TrialSpec(
            algorithm="balls-into-leaves",
            n=N,
            seed=3,
            adversary=AdversarySpec(),
            kernel="columnar",
            capture_errors=True,
            monitor="cheap",
        )
        result = run_trial(spec)
        assert result.error is not None
        assert result.monitor == "cheap"
        assert any("[progress]" in line for line in result.violations)
        row = result.to_row()
        assert row["monitor"] == "cheap"
        assert row["violations"] == list(result.violations)


needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy not installed (the .[fast] extra)"
)


def _wedged_stack_engine():
    """A stacked failure-free engine whose trial 0 stops moving after
    ``_WedgedBallsEngine.WEDGE_ROUND`` (the other trials run on)."""
    from repro.core.vectorized import VectorizedCellEngine

    class WedgedFirstTrial(VectorizedCellEngine):
        def _wedge(self, round_no, active):
            if round_no > _WedgedBallsEngine.WEDGE_ROUND:
                active = active.copy()
                active[0] = False
            return active

        def _path_round(self, round_no, active):
            super()._path_round(round_no, self._wedge(round_no, active))

        def _position_round(self, round_no, active):
            super()._position_round(round_no, self._wedge(round_no, active))

    return WedgedFirstTrial


@needs_numpy
class TestStackedStallAbort:
    """A stacked monitored run stops a wedged trial at its proven stall,
    exactly where the per-trial kernel aborts — never at the round limit."""

    def _wedged_error(self, monkeypatch, kernel):
        monkeypatch.setattr(
            "repro.core.columnar.ColumnarBallsEngine", _WedgedBallsEngine
        )
        monkeypatch.setattr(
            "repro.core.vectorized.VectorizedCellEngine", _wedged_stack_engine()
        )
        with pytest.raises(SimulationError) as caught:
            run_renaming(
                "balls-into-leaves",
                sparse_ids(N),
                seed=3,
                kernel=kernel,
                monitor="cheap",
            )
        return caught.value

    def test_wedged_run_raises_the_same_error_on_both_kernels(self, monkeypatch):
        columnar = self._wedged_error(monkeypatch, "columnar")
        vectorized = self._wedged_error(monkeypatch, "vectorized")
        assert type(vectorized) is type(columnar) is MonitorViolation
        assert str(vectorized) == str(columnar)
        assert "[progress]" in str(vectorized)

    @pytest.mark.parametrize(
        "monitor, error", [("cheap", "MonitorViolation"), ("off", "RoundLimitExceeded")]
    )
    def test_healthy_trial_of_a_wedged_stack_keeps_its_row(
        self, monkeypatch, monitor, error
    ):
        from repro.sim import batch

        specs = tuple(
            TrialSpec(
                algorithm="balls-into-leaves",
                n=N,
                seed=seed,
                adversary=AdversarySpec(),
                kernel="vectorized",
                capture_errors=True,
                monitor=monitor,
            )
            for seed in (3, 4)
        )
        healthy = run_trial(specs[1]).to_row()
        monkeypatch.setattr(
            "repro.core.vectorized.VectorizedCellEngine", _wedged_stack_engine()
        )

        def no_rerun(spec):
            raise AssertionError("a stacked cell must not re-run a trial")

        monkeypatch.setattr(batch, "run_trial", no_rerun)
        assert batch.plan_tasks(specs) == [specs]
        wedged, rest = batch._run_task(specs)
        assert rest.to_row() == healthy
        assert wedged.error.startswith(f"{error}: ")
        assert any("[progress]" in line for line in wedged.violations) == (
            monitor == "cheap"
        )


def _crash_pair(rounds=4, seeds=(21, 22), halt_on_name=False):
    """A 2-trial ``VectorizedCrashEngine`` paused after ``rounds``, and
    the ``ColumnarCrashEngine`` running its trial 1 alone to the same
    round (identical state by the stacked-crash differential contract)."""
    from repro.core.vectorized import VectorizedCrashEngine

    ids = sparse_ids(N)

    def adversary(seed):
        return RandomCrashAdversary(0.15, seed=seed)

    stack = VectorizedCrashEngine(
        ids,
        list(seeds),
        halt_on_name=halt_on_name,
        adversaries=[adversary(seed) for seed in seeds],
        crash_budget=N - 1,
    )
    stack.run(stop_after=rounds)
    alone = ColumnarCrashEngine(
        ids,
        seed=seeds[1],
        policy="random",
        halt_on_name=halt_on_name,
        adversary=adversary(seeds[1]),
        crash_budget=N - 1,
    )
    for round_no in range(1, rounds + 1):
        alone.step(round_no)
    assert alone.running_count == int(stack.running[1]) > 0
    return ids, stack, alone


def _class_row(stack, alone, j):
    """Ball ``j``'s view in both engines: the stack's class row of
    trial 1 and the columnar class object (same content)."""
    row = int(stack.cls_of[N + j])
    view = alone._class_of[j]
    assert stack._cpos[row].tolist() == list(view.pos)
    assert stack._cstat[row].tobytes() == bytes(view.status)
    return row, view


def _running_ball(alone):
    return next(
        j for j in range(N) if not alone.crashed[j] and not alone.halted[j]
    )


@needs_numpy
class TestSeededStackedCrashMutations:
    """Each seeded violation in a mid-stack crash engine yields exactly
    the :class:`Violation` records the columnar crash engine's
    :class:`RunMonitor` gives for the same corruption."""

    def _verdicts(self, ids, stack, alone, rounds, halt_on_name=False):
        from repro.monitor.invariants import StackedMonitor

        stacked = StackedMonitor(stack)
        scalar = fresh_monitor(ids, halt_on_name=halt_on_name)
        for round_no in rounds:
            stacked(stack, round_no, stack.running > 0)
            observe_crash_engine(scalar, alone, round_no)
        if len(rounds) == 1:  # a re-observed trial 0 is frozen as well
            assert stacked.violations(0) == []
        assert scalar.violations, "the corruption must be caught"
        assert stacked.violations(1) == scalar.violations
        return scalar.violations

    def test_duplicate_name(self):
        ids, stack, alone = _crash_pair()
        a, b = [j for j in range(N) if not alone.crashed[j]][:2]
        for decision, base in ((stack.decision, N), (alone.decision, 0)):
            decision[base + a] = decision[base + b] = 3
        found = self._verdicts(ids, stack, alone, [4])
        assert "uniqueness" in {v.invariant for v in found}

    def test_out_of_range_name(self):
        ids, stack, alone = _crash_pair()
        j = _running_ball(alone)
        stack.decision[N + j] = alone.decision[j] = N + 7
        found = self._verdicts(ids, stack, alone, [4])
        assert [v.invariant for v in found] == ["namespace"]

    def test_over_capacity_leaf_on_a_class_row(self):
        ids, stack, alone = _crash_pair()
        row, view = _class_row(stack, alone, _running_ball(alone))
        leaves, _ = leaf_and_inner()
        a, b = [j for j in range(N) if view.pos[j] >= 0][:2]
        for j in (a, b):
            stack._cpos[row, j] = view.pos[j] = leaves[0]
        found = self._verdicts(ids, stack, alone, [4])
        assert "leaf-capacity" in {v.invariant for v in found}

    def test_announced_ball_off_its_leaf(self):
        from repro.core.lifecycle import BallStatus

        ids, stack, alone = _crash_pair(halt_on_name=True)
        row, view = _class_row(stack, alone, _running_ball(alone))
        _, inner = leaf_and_inner()
        j = next(k for k in range(N) if view.pos[k] >= 0)
        stack._cpos[row, j] = view.pos[j] = inner[0]
        stack._cstat[row, j] = view.status[j] = int(BallStatus.ANNOUNCED)
        found = self._verdicts(ids, stack, alone, [4], halt_on_name=True)
        assert [v.invariant for v in found] == ["retention"]
        assert found[0].ball == j and found[0].node == inner[0]

    def test_crashed_ball_retention_past_its_deadline(self):
        ids, stack, alone = _crash_pair()
        victim = _running_ball(alone)
        stack.crashed[N + victim] = alone.crashed[victim] = True
        found = self._verdicts(ids, stack, alone, [4, 5])
        assert {v.invariant for v in found} == {"crash-retention"}
        assert all(v.round_no == 5 for v in found)
        assert victim in {v.ball for v in found}

    def test_frozen_trial(self):
        ids, stack, alone = _crash_pair()
        rounds = range(4, 4 + STALL_WINDOW + 1)
        found = self._verdicts(ids, stack, alone, rounds)
        stalls = [v for v in found if v.invariant == "progress"]
        assert len(stalls) == 1 and stalls[0] is found[-1]
        assert stalls[0].round_no == 4 + STALL_WINDOW


def _wedged_crash_stack_engine():
    """A stacked crash engine whose trial 0 stops advancing after
    ``_WedgedBallsEngine.WEDGE_ROUND`` (the other trials run on)."""
    from repro.core.vectorized import VectorizedCrashEngine

    class WedgedFirstTrial(VectorizedCrashEngine):
        def step(self, round_no):
            if round_no > _WedgedBallsEngine.WEDGE_ROUND:
                self._active = self._active.copy()
                self._active[0] = False
            super().step(round_no)

    return WedgedFirstTrial


@needs_numpy
class TestStackedCrashStallAbort:
    def test_healthy_trial_of_a_wedged_crash_stack_keeps_its_row(
        self, monkeypatch
    ):
        from repro.sim import batch

        monkeypatch.setenv("REPRO_VEC_CRASH_MIN_STREAMS", "0")
        specs = tuple(
            TrialSpec(
                algorithm="balls-into-leaves",
                n=N,
                seed=seed,
                adversary=AdversarySpec.parse("random:rate=0.2"),
                kernel="vectorized",
                capture_errors=True,
                monitor="cheap",
            )
            for seed in (3, 4)
        )
        healthy = run_trial(specs[1]).to_row()
        monkeypatch.setattr(
            "repro.core.vectorized.VectorizedCrashEngine",
            _wedged_crash_stack_engine(),
        )

        def no_rerun(spec):
            raise AssertionError("a stacked cell must not re-run a trial")

        monkeypatch.setattr(batch, "run_trial", no_rerun)
        assert batch.plan_tasks(specs) == [specs]
        wedged, rest = batch._run_task(specs)
        assert rest.to_row() == healthy
        assert wedged.error.startswith("MonitorViolation: ")
        assert any("[progress]" in line for line in wedged.violations)
