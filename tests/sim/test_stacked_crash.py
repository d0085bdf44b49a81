"""Differential suite: the trial-stacked crash engine.

The stacked crash engine extends the PR-4 failure-free stack with
per-trial status columns, per-round crash masks, and an exact
reproduction of the columnar engine's AdversaryContext/clamp protocol —
so whole crash cells (certified adversaries, halt-on-name, schedule
candidates from the hunt) run as one ``(T*n,)`` pass.  The contract is
inherited unchanged: every trial of a stacked crash cell must be
**bit-for-bit identical** to running it alone on the columnar (and
hence reference) kernel — same rounds, names, failures, message
counts, error strings, and metrics rows.

Thread-count invariance rides along: the seeding/twist fanout
partitions stream columns contiguously and never shares one, so any
``REPRO_VEC_THREADS`` produces byte-identical draws and therefore
byte-identical trials.
"""

from __future__ import annotations

import itertools

import pytest

from repro.errors import ConfigurationError, RoundLimitExceeded
from repro.ids import sparse_ids
from repro.search.schedule import CrashEvent, Schedule
from repro.search.strategies import HuntConfig, SearchStrategy, run_hunt
from repro.sim.batch import (
    AdversarySpec,
    ScenarioMatrix,
    TrialSpec,
    plan_tasks,
    run_batch,
    run_cell,
    run_trial,
)
from repro.sim.runner import run_renaming
from repro.sim.vectorized import run_stacked_cell, vectorized_available

needs_numpy = pytest.mark.skipif(
    not vectorized_available(), reason="numpy not installed (the .[fast] extra)"
)

#: Every certified crashing-adversary family, in spec-string form.
ADVERSARIES = (
    "random:rate=0.3",
    "sandwich",
    "half-split:victims_per_round=2,last_round=9",
    "targeted:every_k_phases=1",
)
ALGORITHMS = ("balls-into-leaves", "rank-descent", "leftmost", "early-terminating")

COMPARED_FIELDS = (
    "rounds",
    "failures",
    "messages_sent",
    "messages_delivered",
    "last_round_named",
    "names",
    "error",
    "violations",
)


def _crash_specs(algorithm, n, seeds, adversary, *, halt_on_name=False):
    return [
        TrialSpec(
            algorithm=algorithm,
            n=n,
            seed=seed,
            adversary=(
                adversary
                if isinstance(adversary, AdversarySpec)
                else AdversarySpec.parse(adversary)
            ),
            halt_on_name=halt_on_name,
            check=True,
            kernel="auto",
            capture_errors=True,
        )
        for seed in seeds
    ]


def assert_stack_matches_per_trial(specs):
    """The stacked cell's rows == the per-trial columnar/auto rows."""
    per_trial = [run_trial(spec) for spec in specs]
    stacked = run_cell(specs)
    assert len(stacked) == len(per_trial)
    for want, got in zip(per_trial, stacked):
        for field in COMPARED_FIELDS:
            assert getattr(got, field) == getattr(want, field), (
                field,
                want.spec,
            )


@needs_numpy
class TestStackedCrashDifferential:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("adversary", ADVERSARIES)
    def test_grid_bit_identical(self, algorithm, adversary):
        for n, halt in itertools.product((5, 13), (False, True)):
            assert_stack_matches_per_trial(
                _crash_specs(
                    algorithm, n, [1000 + s for s in range(3)], adversary,
                    halt_on_name=halt,
                )
            )

    def test_mined_schedule_stacks_to_nine_rounds(self):
        """PR 5's mined counterexample, stacked: same 9-round stall."""
        mined = Schedule.of(16, [CrashEvent(3, 6, ())]).spec()
        seeds = [4301463716303469878 + k for k in range(4)]
        specs = _crash_specs("balls-into-leaves", 16, seeds, mined)
        assert_stack_matches_per_trial(specs)
        rows = run_cell(specs)
        assert rows[0].rounds == 9

    def test_partial_receiver_schedules_bit_identical(self):
        schedule = Schedule.of(
            12,
            [
                CrashEvent(2, 3, (0, 1, 5)),
                CrashEvent(5, 7, (2,)),
                CrashEvent(4, 1, ()),
            ],
        ).spec()
        for algorithm in ALGORITHMS:
            assert_stack_matches_per_trial(
                _crash_specs(algorithm, 12, [77 + k for k in range(4)], schedule)
            )

    def test_pinned_vectorized_crash_run_matches_columnar(self):
        schedule = Schedule.of(
            12, [CrashEvent(2, 3, (0, 1, 5)), CrashEvent(5, 7, (2,))]
        ).spec()
        for seed in (11, 13):
            vectorized = run_renaming(
                "balls-into-leaves", sparse_ids(12), seed=seed,
                adversary=schedule.build(seed), kernel="vectorized",
            )
            columnar = run_renaming(
                "balls-into-leaves", sparse_ids(12), seed=seed,
                adversary=schedule.build(seed), kernel="columnar",
            )
            assert vectorized.kernel == "vectorized"
            assert columnar.kernel == "columnar"
            assert vectorized.rounds == columnar.rounds
            assert vectorized.names == columnar.names
            assert vectorized.crashed == columnar.crashed
            assert vectorized.last_round_named == columnar.last_round_named
            assert vectorized.result == columnar.result

    def test_round_limit_message_parity(self):
        """Overruns raise the same RoundLimitExceeded text as columnar."""
        schedule = Schedule.of(
            12, [CrashEvent(2, 3, (0, 1, 5)), CrashEvent(5, 7, (2,))]
        ).spec()
        messages = {}
        for kernel in ("vectorized", "columnar"):
            with pytest.raises(RoundLimitExceeded) as caught:
                run_renaming(
                    "balls-into-leaves", sparse_ids(12), seed=11,
                    adversary=schedule.build(11), kernel=kernel, max_rounds=3,
                )
            messages[kernel] = str(caught.value)
        assert messages["vectorized"] == messages["columnar"]

    def test_overrun_is_isolated_per_trial(self):
        """One trial hitting the limit must not distort its stack-mates."""
        mined = Schedule.of(16, [CrashEvent(3, 6, ())]).spec()
        seeds = [4301463716303469878, 4301463716303469879]
        adversaries = [mined.build(seed) for seed in seeds]
        cell = run_stacked_cell(
            sparse_ids(16), seeds, policy="random", max_rounds=8,
            adversaries=adversaries,
        )
        expected = []
        for seed in seeds:
            try:
                run = run_renaming(
                    "balls-into-leaves", sparse_ids(16), seed=seed,
                    adversary=mined.build(seed), kernel="columnar", max_rounds=8,
                )
                expected.append(("done", run.rounds))
            except RoundLimitExceeded as error:
                expected.append(("overrun", str(error)))
        got = [
            ("overrun", str(RoundLimitExceeded(cell.limit, int(cell.running_at_limit[t]))))
            if bool(cell.overrun[t])
            else ("done", int(cell.rounds[t]))
            for t in range(cell.trials)
        ]
        assert got == expected
        assert any(flag for flag, _ in [(o, None) for o in cell.overrun.tolist()])


@needs_numpy
class TestCrashCellPlanning:
    def test_small_crash_cells_respect_the_stream_floor(self, monkeypatch):
        """Below REPRO_VEC_CRASH_MIN_STREAMS the per-trial path stays."""
        specs = _crash_specs(
            "balls-into-leaves", 9, [40 + k for k in range(8)],
            "random:rate=0.25",
        )
        assert plan_tasks(specs) == specs  # 72 streams < the default floor
        monkeypatch.setenv("REPRO_VEC_CRASH_MIN_STREAMS", "72")
        tasks = plan_tasks(specs)
        assert len(tasks) == 1 and isinstance(tasks[0], tuple)
        # Failure-free cells take no floor.
        free = [
            TrialSpec(algorithm="balls-into-leaves", n=9, seed=40 + k)
            for k in range(8)
        ]
        monkeypatch.delenv("REPRO_VEC_CRASH_MIN_STREAMS")
        assert len(plan_tasks(free)) == 1

    @pytest.mark.parametrize("parts", [1, 2, 4])
    def test_worker_split_keeps_the_crash_floor(self, monkeypatch, parts):
        """A pool split never cuts a crash run below the floor: four
        trials at n=256 are exactly the 1024-stream floor, so they stay
        one stack whatever the worker count."""
        monkeypatch.delenv("REPRO_VEC_CRASH_MIN_STREAMS", raising=False)
        specs = _crash_specs(
            "balls-into-leaves", 256, [60 + k for k in range(4)], "sandwich"
        )
        assert plan_tasks(specs, parts=parts) == [tuple(specs)]

    @pytest.mark.parametrize("parts", [1, 2, 8])
    def test_long_crash_runs_cut_between_floor_and_cap(self, monkeypatch, parts):
        from repro.sim.batch import CRASH_MAX_STREAMS, DEFAULT_CRASH_MIN_STREAMS

        monkeypatch.delenv("REPRO_VEC_CRASH_MIN_STREAMS", raising=False)
        n = 256
        specs = _crash_specs(
            "balls-into-leaves", n, [70 + k for k in range(100)],
            "random:rate=0.1",
        )
        tasks = plan_tasks(specs, parts=parts)
        assert all(isinstance(task, tuple) for task in tasks)
        assert [spec for task in tasks for spec in task] == specs
        sizes = [len(task) for task in tasks]
        assert min(sizes) * n >= DEFAULT_CRASH_MIN_STREAMS
        assert max(sizes) * n <= CRASH_MAX_STREAMS
        assert max(sizes) - min(sizes) <= 1
        assert len(tasks) >= parts

    def test_run_batch_auto_stacks_crash_cells(self, monkeypatch):
        monkeypatch.setenv("REPRO_VEC_CRASH_MIN_STREAMS", "0")
        specs = _crash_specs(
            "balls-into-leaves", 9, [40 + k for k in range(8)],
            "random:rate=0.25",
        )
        tasks = plan_tasks(specs)
        assert len(tasks) == 1 and isinstance(tasks[0], tuple)
        batch = run_batch(specs)
        per_trial = [run_trial(spec) for spec in specs]
        assert {trial.kernel for trial in batch.trials} == {"vectorized"}
        for want, got in zip(per_trial, batch.trials):
            for field in COMPARED_FIELDS:
                assert getattr(got, field) == getattr(want, field)

    def test_distinct_schedules_stack_as_one_cell(self, monkeypatch):
        """A hunt generation: same cell shape, different plans."""
        monkeypatch.setenv("REPRO_VEC_CRASH_MIN_STREAMS", "0")
        specs = []
        for k in range(6):
            schedule = Schedule.of(10, [CrashEvent(2 + (k % 3), k, ())])
            specs.append(
                TrialSpec(
                    algorithm="balls-into-leaves", n=10, seed=5000 + k,
                    adversary=schedule.spec(), check=False, kernel="auto",
                    capture_errors=True,
                )
            )
        tasks = plan_tasks(specs)
        assert len(tasks) == 1 and isinstance(tasks[0], tuple)
        batch = run_batch(specs)
        per_trial = [run_trial(spec) for spec in specs]
        assert {trial.kernel for trial in batch.trials} == {"vectorized"}
        for want, got in zip(per_trial, batch.trials):
            for field in COMPARED_FIELDS:
                assert getattr(got, field) == getattr(want, field)


class _FixedGeneration(SearchStrategy):
    """A hunt strategy scoring one fixed generation of schedules."""

    name = "fixed"

    def __init__(self, schedules):
        self.schedules = schedules

    def run(self, evaluator):
        evaluator.evaluate(self.schedules)


class TestPlanningBuilds:
    """Planning builds adversaries only where a stack is possible."""

    @staticmethod
    def _count_builds(monkeypatch):
        calls = []
        original = AdversarySpec.build

        def counting(self, seed):
            calls.append(self)
            return original(self, seed)

        monkeypatch.setattr(AdversarySpec, "build", counting)
        return calls

    def test_below_floor_crash_group_builds_nothing(self, monkeypatch):
        monkeypatch.delenv("REPRO_VEC_CRASH_MIN_STREAMS", raising=False)
        calls = self._count_builds(monkeypatch)
        specs = _crash_specs(
            "balls-into-leaves", 9, [40 + k for k in range(8)],
            "random:rate=0.25",
        )
        assert plan_tasks(specs) == specs  # 72 streams < the default floor
        # A hunt-sized generation: 12 distinct schedules x 32 streams.
        generation = [
            TrialSpec(
                algorithm="balls-into-leaves", n=32, seed=k,
                adversary=Schedule.of(32, [CrashEvent(2, k, ())]).spec(),
                check=False, capture_errors=True,
            )
            for k in range(12)
        ]
        assert plan_tasks(generation) == generation
        assert calls == []

    def test_above_floor_builds_once_per_distinct_adversary(self, monkeypatch):
        monkeypatch.setenv("REPRO_VEC_CRASH_MIN_STREAMS", "0")
        calls = self._count_builds(monkeypatch)
        specs = _crash_specs(
            "balls-into-leaves", 9, range(4), "random:rate=0.25"
        ) + _crash_specs("balls-into-leaves", 9, range(4), "sandwich")
        plan_tasks(specs)
        assert [spec.key for spec in calls] == ["random:rate=0.25", "sandwich"]


@needs_numpy
class TestMergedStackPaths:
    def test_omit_schedules_never_stack_onto_the_crash_engine(self, monkeypatch):
        """Mixed-family generations: each trial's own adversary decides.

        A crash-only first schedule must not carry omit-carrying
        candidates onto the crash-only stacked engine (which would drop
        their omissions).
        """
        monkeypatch.setenv("REPRO_VEC_CRASH_MIN_STREAMS", "0")
        schedules = [
            Schedule.of(10, [CrashEvent(2, 3, ())]),
            Schedule.of(
                10,
                [
                    CrashEvent(2, 4, (0, 1), kind="omit"),
                    CrashEvent(4, 5, (), kind="omit"),
                ],
            ),
            Schedule.of(10, [CrashEvent(3, 1, (2,), kind="omit")]),
        ]
        hunt = run_hunt(
            HuntConfig(n=10, budget=3, seed=3, fault_family="mixed"),
            _FixedGeneration(schedules),
        )
        rows = [evaluation.results[0] for evaluation in hunt.evaluations]
        assert len(rows) == 3
        assert sum(row.omissions for row in rows) > 0
        for got in rows:
            want = run_trial(got.spec)
            for field in COMPARED_FIELDS + ("omissions",):
                assert getattr(got, field) == getattr(want, field), (
                    field,
                    got.spec.adversary.key,
                )

    def test_run_stacked_cell_rejects_what_the_gate_rejects(self):
        crash = Schedule.of(10, [CrashEvent(2, 3, ())]).spec()
        omit = Schedule.of(10, [CrashEvent(2, 4, (), kind="omit")]).spec()
        with pytest.raises(ConfigurationError, match="omission"):
            run_stacked_cell(
                sparse_ids(10), [1, 2], policy="random",
                adversaries=[crash.build(1), omit.build(2)],
            )
        specs = _crash_specs("balls-into-leaves", 10, [1], crash) + (
            _crash_specs("balls-into-leaves", 10, [2], omit)
        )
        with pytest.raises(ConfigurationError, match="omission"):
            run_cell(specs)

    def test_adjacent_same_name_cells_plan_as_one_stack(self):
        """Two 640-stream cells merge into one 1280-stream stack."""
        matrix = ScenarioMatrix.build(
            ["balls-into-leaves"], [16],
            ["random:rate=0.1", "random:rate=0.3"],
            trials=40, base_seed=7, seed_mode="derived",
        )
        specs = matrix.expand()
        tasks = plan_tasks(specs)
        assert len(tasks) == 1 and len(tasks[0]) == 80
        batch = run_batch(matrix)
        assert {trial.kernel for trial in batch.trials} == {"vectorized"}
        for spec, got in zip(specs, batch.trials):
            want = run_trial(spec).to_row()
            got_row = got.to_row()
            del want["kernel"], got_row["kernel"]
            assert got_row == want

    def test_scalar_accessors_on_a_mixed_zero_crash_stack(self):
        """result/metrics/trace(t) of crashing and zero-crash trials."""
        ids = sparse_ids(12)
        seeds = [31 + k for k in range(4)]
        specs = [
            AdversarySpec.parse("random:rate=0.3"),
            AdversarySpec(),
            AdversarySpec.parse("sandwich"),
            AdversarySpec(),
        ]
        cell = run_stacked_cell(
            ids, seeds, policy="random",
            adversaries=[spec.build(seed) for spec, seed in zip(specs, seeds)],
        )
        assert cell.failures.tolist()[1] == cell.failures.tolist()[3] == 0
        assert cell.failures.sum() > 0
        for t, (spec, seed) in enumerate(zip(specs, seeds)):
            run = run_renaming(
                "balls-into-leaves", ids, seed=seed,
                adversary=spec.build(seed), kernel="columnar", trace="cheap",
            )
            assert cell.metrics(t) == run.metrics
            assert cell.result(t).decisions == run.result.decisions
            assert cell.result(t).crashed == run.result.crashed
            assert cell.result(t).halted == run.result.halted
            assert cell.result(t).rounds == run.result.rounds
            expected = [
                (e.round_no, e.kind, e.data) for e in run.trace if e.kind != "pos"
            ]
            got = [(e.round_no, e.kind, e.data) for e in cell.trace(t)]
            assert got == expected
        assert cell.check() == [None] * len(seeds)


#: Per-ball outcome columns and per-trial columns both engines fill.
ENGINE_COLUMNS = (
    "decision", "round_named", "round_halted", "halted", "rounds", "overrun",
)
#: The per-round metrics trail, one (T,) row per executed round.
METRICS_TRAIL = (
    "round_sent", "round_delivered", "round_crashes", "round_alive",
    "round_running",
)


@needs_numpy
class TestZeroCrashEngines:
    """The two stacked engines on the failure-free grid: the crash
    engine without adversaries is the failure-free engine, column for
    column and metrics row for metrics row."""

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
    @pytest.mark.parametrize("halt_on_name", [False, True])
    @pytest.mark.parametrize("policy", ["random", "hybrid", "rank", "leftmost"])
    def test_engines_agree(self, policy, halt_on_name, n):
        from repro.core.vectorized import (
            VectorizedCellEngine,
            VectorizedCrashEngine,
        )

        ids = sparse_ids(n)
        seeds = [101 + k for k in range(3)]
        cell = VectorizedCellEngine(
            ids, seeds, policy=policy, halt_on_name=halt_on_name
        )
        crash = VectorizedCrashEngine(
            ids, seeds, policy=policy, halt_on_name=halt_on_name,
            adversaries=None,
        )
        cell.run()
        crash.run()
        for column in ENGINE_COLUMNS:
            assert getattr(cell, column).tolist() == getattr(
                crash, column
            ).tolist(), column
        for trail in METRICS_TRAIL:
            assert [row.tolist() for row in getattr(cell, trail)] == [
                row.tolist() for row in getattr(crash, trail)
            ], trail
        assert not cell.overrun.any()


@needs_numpy
class TestStreamBankTiming:
    """One bank rule for both engines: built before round 1 only for the
    random policy (round 2 always draws), on first draw otherwise."""

    @pytest.mark.parametrize("engine", ["cell", "crash"])
    @pytest.mark.parametrize(
        "policy, eager", [("random", True), ("hybrid", False), ("rank", False)]
    )
    def test_bank_before_round_one_only_for_random(self, engine, policy, eager):
        from repro.core.vectorized import (
            VectorizedCellEngine,
            VectorizedCrashEngine,
        )

        cls = VectorizedCellEngine if engine == "cell" else VectorizedCrashEngine
        stack = cls(sparse_ids(8), [1, 2], policy=policy)
        stack.run(stop_after=0)
        assert (stack._bank is not None) == eager

    def test_hybrid_sandwich_stack_finishing_in_phase_one_builds_no_bank(self):
        """Hybrid draws only from phase 2 on: a crash stack that finishes
        in phase 1 never seeds a stream."""
        from repro.adversary.sandwich import SandwichAdversary
        from repro.core.vectorized import VectorizedCrashEngine

        n = 16
        seeds = [5 + k for k in range(4)]
        stack = VectorizedCrashEngine(
            sparse_ids(n), seeds, policy="hybrid",
            adversaries=[SandwichAdversary(seed=seed) for seed in seeds],
            crash_budget=n // 2,
        )
        stack.run()
        assert stack.crashed_count.tolist() == [1] * len(seeds)
        assert stack.rounds.tolist() == [3] * len(seeds)
        assert stack._bank is None


@needs_numpy
class TestThreadInvariance:
    def test_thread_count_cannot_change_bits(self, monkeypatch):
        """REPRO_VEC_THREADS in {1, 2, 8}: byte-identical cells.

        The fanout floor is lowered so a 16-ball cell actually splits
        across workers; column partitioning is contiguous and disjoint,
        so every thread count must reproduce the serial stream bank.
        """
        import repro.core.mt19937 as mt19937

        monkeypatch.setattr(mt19937, "MIN_STREAMS_PER_THREAD", 4)
        monkeypatch.setenv("REPRO_VEC_CRASH_MIN_STREAMS", "0")
        outcomes = []
        for threads in ("1", "2", "8"):
            monkeypatch.setenv("REPRO_VEC_THREADS", threads)
            specs = _crash_specs(
                "balls-into-leaves", 16, [7 + k for k in range(5)],
                "random:rate=0.2", halt_on_name=True,
            )
            batch = run_batch(specs)
            assert {trial.kernel for trial in batch.trials} == {"vectorized"}
            outcomes.append(
                [
                    tuple(getattr(trial, field) for field in COMPARED_FIELDS)
                    for trial in batch.trials
                ]
            )
        assert outcomes[0] == outcomes[1] == outcomes[2]


@pytest.mark.tier2
@needs_numpy
class TestDeepStackedCrashDifferential:
    """Nightly: the crash grid at n >= 512."""

    @pytest.mark.parametrize("adversary", ADVERSARIES)
    def test_deep_crash_grid_bit_identical(self, adversary):
        for n in (256, 512):
            assert_stack_matches_per_trial(
                _crash_specs(
                    "balls-into-leaves", n, [s * 7 + 1 for s in range(6)],
                    adversary, halt_on_name=True,
                )
            )
