"""The paper's invariants as cheap flat-array predicates, always on.

The reference engine can instrument every movement step
(``check_invariants=True`` walks the whole subtree audit of
:func:`repro.core.movement.assert_capacity_invariant`), but that forces
the slow engine, so every fast-path sweep used to run blind.  This
module reformulates the safety/liveness conditions as per-round
predicates over the columnar state the fast engines already expose —
cheap enough to leave enabled in production sweeps (``monitor="cheap"``):

* **namespace** — every decided name lies in ``0..n-1``;
* **uniqueness** — no two correct balls decide the same name;
* **leaf-capacity** — in every local view, a leaf holds at most one ball
  plus its announced (retained) terminators, the per-leaf core of the
  headroom rule of :func:`~repro.core.movement.assert_capacity_invariant`;
* **retention** — an ``ANNOUNCED`` ball (the
  :class:`~repro.core.lifecycle.BallStatus` lifecycle) only ever holds a
  leaf, never an inner node;
* **crash-retention** — a crashed ball that never announced is purged
  from every view by the end of the round after its crash (ACTIVE
  silence means removal; announced terminators are retained forever);
* **progress** — the run's observable state (views, decisions, crashes)
  must not freeze while balls are still running.  A frozen full phase
  consumes no RNG draws (a consumed draw implies a ball had capacity
  below it and the first such ball in ``<R`` order moves), so the state
  is a deterministic fixed point: a true deadlock, reported after
  :data:`STALL_WINDOW` identical rounds instead of a silent spin to the
  round limit.

Verdicts are engine-independent: the same :class:`Violation` records —
round, invariant, ball/node attribution, message — come out of the
reference, columnar, and vectorized kernels (asserted by the
differential monitor suite), so jsonl rows can be compared across
kernels byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.lifecycle import BallStatus
from repro.core.mt19937 import HAVE_NUMPY
from repro.errors import ConfigurationError, MonitorViolation

if HAVE_NUMPY:
    import numpy as np

#: Monitor modes accepted by ``run_renaming``, the batch engine, and the
#: CLI: "off" (no checking), "cheap" (per-round flat-array predicates on
#: any kernel), "full" (cheap predicates plus the instrumented reference
#: movement audit; pins the reference engine).
MONITOR_MODES = ("off", "cheap", "full")

#: Identical consecutive fingerprints before the progress monitor calls
#: a deadlock.  Any full frozen phase (two rounds) is already a fixed
#: point; eight rounds is a four-phase margin against transient
#: re-merging of diverged views.
STALL_WINDOW = 8

_ACTIVE = int(BallStatus.ACTIVE)
_ANNOUNCED = int(BallStatus.ANNOUNCED)


def check_monitor_mode(monitor: str) -> str:
    """Validate a monitor-mode name (returns it for chaining)."""
    if monitor not in MONITOR_MODES:
        raise ConfigurationError(
            f"unknown monitor mode {monitor!r}; choose from {MONITOR_MODES}"
        )
    return monitor


@dataclass(frozen=True)
class Violation:
    """One violated invariant, with round and ball/node attribution."""

    invariant: str
    round_no: int
    detail: str
    #: Label rank of the offending ball (None for view-level findings).
    ball: Optional[int] = None
    #: Node index in the run's :class:`~repro.tree.arrays.TopologyArrays`.
    node: Optional[int] = None

    def render(self) -> str:
        """The jsonl/report form, identical across kernels."""
        return f"round {self.round_no} [{self.invariant}] {self.detail}"

    def sort_key(self) -> Tuple:
        return (
            self.round_no,
            self.invariant,
            -1 if self.ball is None else self.ball,
            -1 if self.node is None else self.node,
            self.detail,
        )


#: One local view in monitor form: positions by label rank (-1 = the
#: ball is absent from this view) and lifecycle bytes (None = all
#: ACTIVE).  The flat-array twin of ``LocalTreeView.state_set()``.
MonitorView = Tuple[Sequence[int], Optional[bytes]]


def _view_key(view: MonitorView) -> Tuple[Tuple[int, ...], Optional[bytes]]:
    pos, status = view
    return (tuple(pos), None if status is None else bytes(bytearray(status)))


def evaluate_round(
    round_no: int,
    arrays,
    labels: Sequence,
    *,
    views: Iterable[MonitorView],
    decisions: Sequence[Optional[int]],
    crashed: Optional[Sequence[bool]] = None,
    crash_rounds: Optional[Dict[int, int]] = None,
    silenced_rounds: Optional[Dict[int, int]] = None,
) -> List[Violation]:
    """All violated invariants of one observed round, sorted.

    Pure function of the observed state: ``arrays`` is the run's
    :class:`~repro.tree.arrays.TopologyArrays`, ``views`` the distinct
    live local views in :data:`MonitorView` form, ``decisions`` the
    decided names by label rank (None = undecided), ``crashed`` the
    crash flags, and ``crash_rounds`` the first round each crashed rank
    was observed crashed (for the purge-deadline check).

    ``silenced_rounds`` maps each rank silenced by a message-omission
    adversary to the first silenced round.  Omission is outside the
    paper's crash-fault model, and a silenced-but-alive ball genuinely
    can collide on a name (its peers purged it, its own view never
    learns); the monitor still reports that uniqueness violation — the
    honest verdict — but annotates it so a fault-injection sweep can
    tell algorithmic bugs from injected, expected degradation.
    """
    n = len(labels)
    span = arrays.span
    violations: List[Violation] = []

    # Namespace + uniqueness over the decisions of correct balls.
    first_owner: Dict[int, int] = {}
    for j in range(n):
        name = decisions[j]
        if name is None or name < 0 or (crashed is not None and crashed[j]):
            continue
        if name >= n:
            violations.append(
                Violation(
                    "namespace",
                    round_no,
                    f"ball {labels[j]!r} decided name {name} outside 0..{n - 1}",
                    ball=j,
                )
            )
            continue
        owner = first_owner.get(name)
        if owner is None:
            first_owner[name] = j
        else:
            detail = (
                f"balls {labels[owner]!r} and {labels[j]!r} both "
                f"decided name {name}"
            )
            if silenced_rounds:
                for rank in (owner, j):
                    if rank in silenced_rounds:
                        detail += (
                            f" (ball {labels[rank]!r} silenced by omission "
                            f"since round {silenced_rounds[rank]}, "
                            f"not crashed)"
                        )
            violations.append(
                Violation("uniqueness", round_no, detail, ball=j)
            )

    # Per-view structural checks, deduplicated by view content.
    seen = set()
    for view in views:
        key = _view_key(view)
        if key in seen:
            continue
        seen.add(key)
        pos, status = key
        occupancy: Dict[int, int] = {}
        announced_at: Dict[int, int] = {}
        for j in range(n):
            p = pos[j]
            if p < 0:
                continue
            st = status[j] if status is not None else _ACTIVE
            if span[p] == 1:
                occupancy[p] = occupancy.get(p, 0) + 1
                if st == _ANNOUNCED:
                    announced_at[p] = announced_at.get(p, 0) + 1
            elif st == _ANNOUNCED:
                violations.append(
                    Violation(
                        "retention",
                        round_no,
                        f"announced ball {labels[j]!r} parked at inner "
                        f"node {p}",
                        ball=j,
                        node=p,
                    )
                )
            if (
                crashed is not None
                and crashed[j]
                and st == _ACTIVE
                and crash_rounds is not None
                and round_no > crash_rounds.get(j, round_no)
            ):
                violations.append(
                    Violation(
                        "crash-retention",
                        round_no,
                        f"ball {labels[j]!r} crashed in round "
                        f"{crash_rounds[j]} but is still present as ACTIVE",
                        ball=j,
                        node=p,
                    )
                )
        for leaf, occ in occupancy.items():
            announced = announced_at.get(leaf, 0)
            if occ > 1 + announced:
                violations.append(
                    Violation(
                        "leaf-capacity",
                        round_no,
                        f"leaf {leaf} holds {occ} balls "
                        f"({announced} announced)",
                        node=leaf,
                    )
                )
    violations.sort(key=Violation.sort_key)
    return violations


class RunMonitor:
    """Stateful per-run monitor: per-round predicates + progress tracking.

    One instance observes one run, round by round, through an
    engine-specific adapter.  ``violations`` accumulates every finding;
    ``deadlocked`` latches once the progress monitor proves a fixed
    point, at which point the driving kernel aborts the run with
    :class:`~repro.errors.MonitorViolation` instead of spinning to the
    round limit.
    """

    def __init__(
        self,
        labels: Sequence,
        arrays,
        *,
        halt_on_name: bool = False,
        stall_window: int = STALL_WINDOW,
    ) -> None:
        self.labels = list(labels)
        self.n = len(self.labels)
        self.arrays = arrays
        self.halt_on_name = halt_on_name
        self.stall_window = stall_window
        self.violations: List[Violation] = []
        self.deadlocked = False
        self._crash_rounds: Dict[int, int] = {}
        self._silenced_rounds: Dict[int, int] = {}
        self._fingerprint = None
        self._streak = 0

    def observe(
        self,
        round_no: int,
        *,
        views: Iterable[MonitorView],
        decisions: Sequence[Optional[int]],
        crashed: Optional[Sequence[bool]] = None,
        running: int = 0,
        silenced: Optional[Dict[int, int]] = None,
    ) -> List[Violation]:
        """Record one round's state; returns that round's new findings.

        ``silenced`` maps ranks silenced by omission to their first
        silenced round (monotone per run; later observations may only
        add entries), used to annotate uniqueness findings.
        """
        views = [(_view_key(view)) for view in views]
        if crashed is not None:
            for j in range(self.n):
                if crashed[j] and j not in self._crash_rounds:
                    self._crash_rounds[j] = round_no
        if silenced:
            for j, since in silenced.items():
                self._silenced_rounds.setdefault(j, since)
        found = evaluate_round(
            round_no,
            self.arrays,
            self.labels,
            views=views,
            decisions=decisions,
            crashed=crashed,
            crash_rounds=self._crash_rounds,
            silenced_rounds=self._silenced_rounds,
        )
        # Progress: the observable state as an engine-independent
        # fingerprint.  Identical for STALL_WINDOW consecutive rounds
        # with balls still running = a deterministic fixed point.
        fingerprint = (
            tuple(sorted(set(views))),
            tuple(-1 if d is None else int(d) for d in decisions),
            tuple(bool(c) for c in crashed) if crashed is not None else None,
            int(running),
        )
        if running > 0 and fingerprint == self._fingerprint:
            self._streak += 1
            if self._streak == self.stall_window:
                self.deadlocked = True
                stall = Violation(
                    "progress",
                    round_no,
                    f"no state change for {self._streak} rounds with "
                    f"{running} ball(s) running",
                )
                found = found + [stall]
        else:
            self._streak = 0
        self._fingerprint = fingerprint
        self.violations.extend(found)
        return found

    def report(self) -> List[str]:
        """All findings rendered (jsonl-ready), in observation order."""
        return [violation.render() for violation in self.violations]


# --------------------------------------------------------------- adapters


def observe_crash_engine(monitor: RunMonitor, engine, round_no: int) -> None:
    """One observation of a columnar engine round.

    Reads the surface both columnar engines share: a
    ``ColumnarCrashEngine``, or a failure-free ``ColumnarBallsEngine`` as
    its zero-crash case (one shared view, no crash flags set).
    """
    monitor.observe(
        round_no,
        views=engine.monitor_views(),
        decisions=engine.decision,
        crashed=engine.crashed,
        running=engine.running_count,
        silenced=engine.silenced_round,
    )


class ReferenceMonitorAdapter:
    """A :class:`~repro.sim.simulator.Simulation` observer feeding the
    monitor the same state the columnar adapter sees.

    Attach to the reference kernel's observer list; after every round it
    extracts the distinct local views of running balls, converts node
    tuples to array indices, and aborts the simulation on a detected
    deadlock — byte-identical verdicts to the fast-path monitors.
    """

    def __init__(self, monitor: RunMonitor) -> None:
        self.monitor = monitor
        self._rank = {label: j for j, label in enumerate(monitor.labels)}
        self._index_of = monitor.arrays.index_of

    def __call__(self, simulation, round_no: int) -> None:
        monitor = self.monitor
        n = monitor.n
        rank = self._rank
        index_of = self._index_of
        crashed_set = simulation.crashed
        crashed = [False] * n
        for pid in crashed_set:
            crashed[rank[pid]] = True
        decisions: List[Optional[int]] = [None] * n
        raw_views = []
        seen_ids = set()
        running = 0
        for pid, proc in simulation.processes.items():
            decisions[rank[pid]] = proc.decision
            if pid in crashed_set or proc.halted:
                continue
            running += 1
            view = proc.view
            # repro: lint-ok[D104] identity dedup; raw_views keep deterministic pid order
            if id(view) not in seen_ids:
                # repro: lint-ok[D104] identity dedup; raw_views keep deterministic pid order
                seen_ids.add(id(view))
                raw_views.append(view)
        views = []
        for view in raw_views:
            pos = [-1] * n
            status = bytearray(n)
            for ball in view.balls():
                j = rank[ball]
                pos[j] = index_of[view.position(ball)]
                status[j] = view.status(ball)
            views.append((pos, bytes(status)))
        silenced = {
            rank[pid]: since
            for pid, since in simulation.silenced_rounds.items()
        }
        monitor.observe(
            round_no,
            views=views,
            decisions=decisions,
            crashed=crashed,
            running=running,
            silenced=silenced,
        )
        if monitor.deadlocked:
            raise MonitorViolation(monitor.violations)


class StackedMonitor:
    """Per-round monitoring of a stacked engine, all trials at once.

    Serves both stacked engines through their view *class rows*
    (``engine.monitor_rows()``): a ``VectorizedCrashEngine`` exposes the
    live rows of its class matrices, and a ``VectorizedCellEngine`` is
    the zero-crash case with one shared row per running trial — the
    stacked twin of :func:`observe_crash_engine` over
    ``monitor_views()``.  A row is live while its class has a running
    member (crashed and halted balls excluded); rows are distinct within
    a trial (the engines merge equal classes).

    The screens are O(C·n + S) ufunc passes over the C live rows and the
    S stacked balls; a trial flagged by any screen drops to the scalar
    :func:`evaluate_round` with its exact views for that round, so the
    violation strings are identical to :class:`RunMonitor`'s.
    """

    def __init__(self, engine, *, stall_window: int = STALL_WINDOW) -> None:
        self.labels = engine.labels
        self.n = n = engine.n
        self.trials = T = engine.trials
        self.stall_window = stall_window
        from repro.tree.topology import cached_topology

        self.arrays = cached_topology(n).arrays()
        topo = engine._topo
        # Node -> leaf slot: the leaf's rank at a leaf, ``n`` at an inner
        # node, plus a trailing ``n`` for the -1 "absent" position.
        self._leaf_slot = np.append(
            np.where(topo.is_leaf, topo.leaf_rank, n), n
        ).astype(np.int64)
        self._ball_trial = np.repeat(np.arange(T, dtype=np.int64), n)
        self._violations: Dict[int, List[Violation]] = {}
        #: First round each ball was observed crashed (-1 = never).
        self._crash_round = np.full(T * n, -1, dtype=np.int32)
        self._streak = np.zeros(T, dtype=np.int64)
        self._stalled = np.zeros(T, dtype=bool)
        #: Trials still observed: running at the previous observation and
        #: not stalled (a per-trial run stops being observed when it ends).
        self._observed = np.ones(T, dtype=bool)
        self._prev: Optional[Tuple] = None

    @property
    def deadlocked(self) -> bool:
        return bool(self._stalled.any())

    def violations(self, t: int) -> List[Violation]:
        """Trial ``t``'s findings, in observation order."""
        return list(self._violations.get(t, ()))

    # ------------------------------------------------------------- observing
    def __call__(self, engine, round_no: int, active: "np.ndarray") -> "np.ndarray":
        """Screen one completed round of every still-observed trial.

        Returns the latched stall mask: the trials the progress monitor
        proved wedged, which the engine stops (a per-trial kernel aborts
        such a run with :class:`~repro.errors.MonitorViolation`).  The
        round's predicate findings precede its stall finding, as in
        :class:`RunMonitor`.
        """
        n = self.n
        T = self.trials
        observed = self._observed
        decision = engine.decision
        crashed = engine.crashed
        running = engine.running
        pos, status, row_trial = engine.monitor_rows()
        ball_trial = self._ball_trial
        first_seen = crashed & (self._crash_round < 0) & np.repeat(observed, n)
        self._crash_round[first_seen] = round_no
        flagged = np.zeros(T, dtype=bool)

        # Namespace + uniqueness over the decisions of non-crashed balls.
        decided = (decision >= 0) & ~crashed
        bad_name = decided & (decision >= n)
        if bad_name.any():
            flagged[ball_trial[bad_name]] = True
        named = decided & ~bad_name
        if named.any():
            keys = ball_trial[named] * n + decision[named]
            dupes = np.flatnonzero(np.bincount(keys, minlength=T * n) > 1)
            flagged[dupes // n] = True

        # Leaf-capacity, retention and crash-retention over live rows.
        if row_trial.size:
            L = row_trial.size
            slot = self._leaf_slot[pos]
            announced = status == _ANNOUNCED
            if announced.any():
                bad_row = (announced & (pos >= 0) & (slot == n)).any(axis=1)
                # Announced terminators do not count against capacity.
                slot[announced] = n
            else:
                bad_row = np.zeros(L, dtype=bool)
            # Per-row leaf occupancy by non-announced balls; column n
            # collects inner and absent positions.
            slot += np.arange(0, L * (n + 1), n + 1, dtype=np.int64)[:, None]
            occupancy = np.bincount(slot.ravel(), minlength=L * (n + 1))
            bad_row |= (occupancy.reshape(L, n + 1)[:, :n] > 1).any(axis=1)
            stale = crashed & (self._crash_round >= 0) & (
                self._crash_round < round_no
            )
            if stale.any():
                ghosts = stale.reshape(T, n)[row_trial]
                ghosts &= (pos >= 0) & (status == _ACTIVE)
                bad_row |= ghosts.any(axis=1)
            flagged[row_trial[bad_row]] = True

        # Flagged trials re-run the scalar predicates for identical
        # attribution/wording (rare by construction: a screen only fires
        # on an actual violation).  Trials that ended or stalled in an
        # earlier round are no longer observed, like a per-trial run
        # that has returned or aborted.
        bounds = np.searchsorted(row_trial, np.arange(T + 1))
        for t in np.flatnonzero(flagged & observed).tolist():
            found = self._evaluate(
                t, round_no, engine, pos, status, bounds[t], bounds[t + 1]
            )
            if found:
                self._violations.setdefault(t, []).extend(found)

        # Progress: per-trial frozen-state streaks over RunMonitor's
        # fingerprint (live rows as a set, decisions, crash flags,
        # running count).  Cheap signals first; the trials none of them
        # moved compare their rows in order, and a trial whose rows
        # differ only in order compares them as sets.
        row_count = np.diff(bounds)
        current = (
            pos, status, row_trial, bounds, row_count,
            decision.copy(), crashed.copy(), running.copy(),
        )
        same = np.zeros(T, dtype=bool)
        if self._prev is not None:
            p_pos, p_stat, p_trial, p_bounds, p_count, p_dec, p_crash, p_run = (
                self._prev
            )
            same = (
                (running > 0)
                & observed
                & (running == p_run)
                & (row_count == p_count)
            )
            moved = (decision != p_dec) | (crashed != p_crash)
            if moved.any():
                same[ball_trial[moved]] = False
            if same.any():
                # Both row lists are trial-sorted and these trials have
                # equal counts, so their selected rows line up.
                cur = same[row_trial]
                prev = same[p_trial]
                differ = (pos[cur] != p_pos[prev]).any(axis=1) | (
                    status[cur] != p_stat[prev]
                ).any(axis=1)
                recheck = np.bincount(row_trial[cur][differ], minlength=T)
                for t in np.flatnonzero(recheck).tolist():
                    a, b = bounds[t], bounds[t + 1]
                    pa, pb = p_bounds[t], p_bounds[t + 1]
                    same[t] = b - a > 1 and _row_set(
                        pos[a:b], status[a:b]
                    ) == _row_set(p_pos[pa:pb], p_stat[pa:pb])
        self._streak = np.where(same, self._streak + 1, 0)
        firing = (self._streak == self.stall_window) & ~self._stalled
        if firing.any():
            self._stalled |= firing
            for t in np.flatnonzero(firing).tolist():
                self._violations.setdefault(t, []).append(
                    Violation(
                        "progress",
                        round_no,
                        f"no state change for {self.stall_window} "
                        f"rounds with {int(running[t])} ball(s) running",
                    )
                )
        self._prev = current
        self._observed = observed & (running > 0) & ~self._stalled
        return self._stalled

    def _evaluate(
        self, t: int, round_no: int, engine, pos, status, lo: int, hi: int
    ) -> List[Violation]:
        """Trial ``t``'s round through the scalar :func:`evaluate_round`."""
        n = self.n
        base = t * n
        crashed = engine.crashed[base : base + n].tolist()
        crash_round = self._crash_round[base : base + n].tolist()
        return evaluate_round(
            round_no,
            self.arrays,
            self.labels,
            views=[
                (pos[r].tolist(), status[r].tobytes()) for r in range(lo, hi)
            ],
            decisions=[
                None if d < 0 else d
                for d in engine.decision[base : base + n].tolist()
            ],
            crashed=crashed,
            crash_rounds={
                j: crash_round[j] for j in range(n) if crashed[j]
            },
        )


def _row_set(pos: "np.ndarray", status: "np.ndarray") -> set:
    """The rows of one trial as a set of bytes keys (view-set identity)."""
    return {
        p.tobytes() + s.tobytes() for p, s in zip(pos, status)
    }
