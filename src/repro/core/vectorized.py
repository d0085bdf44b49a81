"""Trial-stacked Balls-into-Leaves: a whole scenario cell as array passes.

The columnar engine (:mod:`repro.core.columnar`) removed the per-ball
object machinery but still advances *one trial at a time* with
Python-level loops over balls.  A scenario-matrix cell re-runs those
loops once per seed — for the paper's experiment shape (many independent
trials of one ``(algorithm, n, adversary)`` cell) the interpreter cost
dominates.  This module stacks an entire cell of ``T`` trials into
``(T * n,)`` NumPy columns over the shared array-indexed topology and
advances *all trials one lock-step round per ufunc pass*.

Exactness is the design constraint, not a best effort: every trial's
:class:`~repro.sim.simulator.SimulationResult` is bit-for-bit the
columnar/reference kernels' (asserted by
``tests/sim/test_vectorized_equivalence.py``).  Three ideas make the
stacking exact:

* **RNG** — per-ball Mersenne-Twister streams are reproduced by
  :class:`repro.core.mt19937.MTStreamBank` (vectorized CPython-MT), so a
  ball draws the same doubles at the same walk steps as under the
  scalar engines.
* **Movement** — the reference moves balls in ``<R`` order, each walking
  its candidate path while child capacity remains.  Because balls only
  ever *enter* subtrees during a round, a ball reaches node ``v`` iff
  its ``<R`` rank among the round's arrivals at ``v`` is below ``v``'s
  round-start free capacity.  That reformulation runs level by level as
  grouped admission quotas — no per-trial sequential loop — and only
  over-subscribed nodes (rare) need an actual within-group ranking.
* **Thresholds** — path-choice probabilities are pure functions of the
  frozen pre-round counts; recomputing them per ball vectorized yields
  the identical IEEE-754 doubles the scalar memo produced.

Two engines share one core.  :class:`VectorizedCellEngine` runs
failure-free cells in place over one shared view per trial;
:class:`VectorizedCrashEngine` runs cells under certified crash
adversaries over one view row per live receiver class.  The private
``_StackedEngine`` base owns everything the two do identically:
argument validation and the shared per-ball/per-trial columns, the
round loop with its per-round metrics row, the stream bank and its
build timing, path choice (the random walk, the k-th free leaf descent
and the policy dispatch, over flat count/occupancy columns addressed by
view-row base), the level-by-level ``<R`` admission loop, halting and
leaf-count bookkeeping, and ``last_round_named``.  Each engine keeps
only its round application (``step``), its ``monitor_rows`` and two
rank hooks for path choice — a ball's label rank among its view's
present balls, and its rank among the balls at its node; the
failure-free engine also keeps the splitting estimator's state
interchange.

Supported grid: the BiL-family policies on the shared view store,
matching :func:`vectorized_rejections`.  Everything else (faithful
views, full traces, ...) stays on the columnar or reference engines via
kernel fallback.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from itertools import compress
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from collections.abc import Mapping

from repro.adversary.base import AdversaryContext, clamp_plan
from repro.adversary.none import NoFailures
from repro.errors import ConfigurationError
from repro.tree.topology import cached_topology
from repro.core.columnar import (
    _ACTIVE,
    _ANNOUNCED,
    _ProcessIntrospectionUnavailable,
    _check_engine_args,
    columnar_rejections,
)
from repro.core.config import BallsIntoLeavesConfig
from repro.core.messages import hello_message, path_message, position_message
from repro.core.mt19937 import HAVE_NUMPY, MTStreamBank
from repro.core import sha256

if HAVE_NUMPY:
    import numpy as np

BallId = Hashable


def vectorized_rejections(config: BallsIntoLeavesConfig) -> List[str]:
    """Why this config cannot run trial-stacked (empty = it can).

    The stacked layout models exactly the columnar grid, so this is the
    columnar gate plus the NumPy install; the adversary/trace/phase-stat
    gates live in the kernel layer, which also knows about the run
    request.
    """
    reasons = []
    if not HAVE_NUMPY:
        reasons.append(
            "numpy is not installed (the vectorized kernel is the "
            "`pip install .[fast]` extra)"
        )
    return reasons + columnar_rejections(config)


def derive_ball_seeds(
    trial_seeds: Sequence[int], labels: Sequence[BallId]
) -> "np.ndarray":
    """``derive_seed(seed, "ball", label)`` for a whole cell, batched.

    Bit-identical to :func:`repro.sim.rng.derive_seed` (asserted in the
    stream tests): the SHA-256 material of a ball stream is
    ``repr((int(seed), repr("ball"), repr(label)))``, whose per-trial
    head and per-ball tail are each built once instead of ``T * n``
    times.  Every such message fits one padded SHA-256 block, so the
    whole cell hashes as a single :mod:`repro.core.sha256` lane pass —
    the block matrix is assembled head-row by head-row without ever
    materializing the ``T * n`` message strings.  Returns a ``(T * n,)``
    uint64 array, trial-major.
    """
    tails = [(repr(repr(label)) + ")").encode("utf-8") for label in labels]
    heads = [
        ("(%r, \"'ball'\", " % int(seed)).encode("utf-8")
        for seed in trial_seeds
    ]
    n = len(tails)
    lanes = len(heads) * n
    if tails and sha256.use_lanes(lanes):
        max_tail = max(len(tail) for tail in tails)
        max_head = max(len(head) for head in heads)
        if max_head + max_tail <= sha256.MAX_SINGLE_BLOCK:
            # Tail matrix (terminator folded in) built once per cell;
            # each trial stamps its head and shifts the tails in place.
            width = max_tail + 1
            tail_mat = np.zeros((n, width), dtype=np.uint8)
            tail_len = np.empty(n, dtype=np.uint16)
            for i, tail in enumerate(tails):
                tail_mat[i, : len(tail)] = np.frombuffer(tail, dtype=np.uint8)
                tail_mat[i, len(tail)] = 0x80
                tail_len[i] = len(tail)
            blocks = np.zeros((lanes, 64), dtype=np.uint8)
            for t, head in enumerate(heads):
                hl = len(head)
                rows = blocks[t * n : (t + 1) * n]
                rows[:, :hl] = np.frombuffer(head, dtype=np.uint8)
                rows[:, hl : hl + width] = tail_mat
                bits = (tail_len + hl) * np.uint16(8)
                rows[:, 62] = (bits >> np.uint16(8)).astype(np.uint8)
                rows[:, 63] = (bits & np.uint16(0xFF)).astype(np.uint8)
            state = sha256.compress_blocks(blocks)
            return (state[:, 0].astype(np.uint64) << np.uint64(32)) | (
                state[:, 1].astype(np.uint64)
            )
    # OpenSSL path: priming one context per trial head and C-copying it
    # per ball skips re-hashing the head 102k times; the 64-bit
    # truncation happens once, as a stride over the joined digests.
    sha = hashlib.sha256
    digests: List[bytes] = []
    append = digests.append
    for head in heads:
        primed = sha(head).copy
        for tail in tails:
            h = primed()
            h.update(tail)
            append(h.digest())
    return np.frombuffer(b"".join(digests), dtype=">u8")[0::4].astype(np.uint64)


class _VecTopology:
    """The :class:`~repro.tree.arrays.TopologyArrays` lists as ndarrays."""

    __slots__ = (
        "n", "node_count", "height", "root",
        "left", "right", "parent", "span", "depth", "leaf_rank",
        "mid", "lo", "hi", "is_leaf",
    )

    def __init__(self, n: int) -> None:
        arr = cached_topology(n).arrays()
        i32 = np.int32
        self.n = n
        self.node_count = len(arr.nodes)
        self.height = arr.topology.height
        self.root = arr.root
        self.left = np.array(arr.left, dtype=i32)
        self.right = np.array(arr.right, dtype=i32)
        self.parent = np.array(arr.parent, dtype=i32)
        self.span = np.array(arr.span, dtype=i32)
        self.depth = np.array(arr.depth, dtype=i32)
        self.leaf_rank = np.array(arr.leaf_rank, dtype=i32)
        self.mid = np.array(arr.mid, dtype=i32)
        self.lo = np.array([node[0] for node in arr.nodes], dtype=i32)
        self.hi = np.array([node[1] for node in arr.nodes], dtype=i32)
        self.is_leaf = self.left == -1


def _grouped_ranks(keys: "np.ndarray") -> "np.ndarray":
    """Rank of each element within its key group, input order preserved.

    The segmented-cumcount kernel shared by label ranking (rank policy)
    and over-subscribed admission: a stable sort groups equal keys while
    keeping the caller's order — which *is* the tie-break order (label
    rank, ``<R``) at every call site — so the in-group offset is the rank.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    new_group = np.empty(sorted_keys.size, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    offsets = np.arange(sorted_keys.size, dtype=np.int64)
    offsets -= np.repeat(starts, np.diff(np.append(starts, sorted_keys.size)))
    ranks = np.empty(keys.size, dtype=np.int64)
    ranks[order] = offsets
    return ranks


@lru_cache(maxsize=16)
def vectorized_topology(n: int) -> "_VecTopology":
    """Shared ndarray topology per ``n``.

    Bounded like ``cached_topology`` (same 16: the eight EXP-T2
    ``--scale deep`` sizes plus interleaved smoke sizes must not
    thrash), and strictly smaller per entry — flat ndarrays, no node
    dictionaries.
    """
    return _VecTopology(n)


class _StackedEngine:
    """The shared core of the two stacked engines: all but the round.

    Balls are indexed trial-major: stream/ball ``s`` is trial ``s // n``,
    label rank ``s % n``.  Views are rows of flat ``count`` /
    occupancy columns, one ``node_count`` block per row, addressed by
    the row base ``row * node_count`` — a trial per row on the
    failure-free engine, a live receiver class per row on the crash
    engine.  Subclasses supply :meth:`step` (one round for every active
    trial, ending in :meth:`_record_round`) and the two path-choice
    rank hooks, :meth:`_label_rank` and :meth:`_rank_at_node`.

    A trial still running when ``max_rounds`` rounds have completed is
    flagged in :attr:`overrun` (with the running count the columnar
    engine's raise would have carried) while the others keep going, and
    a trial the observer proves stalled is flagged in :attr:`stopped`
    and advances no further — the two ways a per-trial kernel raises
    mid-run, resolved per trial by the sim layer.
    """

    def __init__(
        self,
        ids: Sequence[BallId],
        trial_seeds: Sequence[int],
        *,
        policy: str,
        halt_on_name: bool,
        max_rounds: int,
    ) -> None:
        if not HAVE_NUMPY:
            raise ConfigurationError(
                "the vectorized engine requires numpy (pip install .[fast])"
            )
        _check_engine_args(ids, policy)
        if not trial_seeds:
            raise ConfigurationError("a stacked cell needs at least one trial")
        self.labels: List[BallId] = sorted(ids)
        self.n = n = len(self.labels)
        self.trials = T = len(trial_seeds)
        self._policy = policy
        self._halt_on_name = halt_on_name
        self.max_rounds = max_rounds
        self._topo = topo = vectorized_topology(n)
        self._S = S = T * n
        self._trial_seeds = list(trial_seeds)
        self._bank: Optional[MTStreamBank] = None
        self._jcol = np.tile(np.arange(n, dtype=np.int32), T)
        self._track_leaf_occ = policy in ("rank", "leftmost")
        # Per-ball outcome columns (trial-major, -1 sentinels like the
        # scalar engines' None).
        self.halted = np.zeros(S, dtype=bool)
        self.decision = np.full(S, -1, dtype=np.int32)
        self.round_named = np.full(S, -1, dtype=np.int32)
        self.round_halted = np.full(S, -1, dtype=np.int32)
        self.crashed = np.zeros(S, dtype=bool)
        #: Round each ball crashed (-1 = survived) — trace capture.
        self.round_crashed = np.full(S, -1, dtype=np.int32)
        # Per-trial termination state.
        self.running = np.full(T, n, dtype=np.int32)
        self.rounds = np.zeros(T, dtype=np.int32)
        self.overrun = np.zeros(T, dtype=bool)
        self.running_at_limit = np.zeros(T, dtype=np.int32)
        #: (T,) trials the observer stopped (a proven stall).
        self.stopped = np.zeros(T, dtype=bool)
        # Metrics trail: one (T,) row per executed round, inactive trials
        # zeroed so whole-column sums give per-trial totals directly.
        self.round_sent: List["np.ndarray"] = []
        self.round_delivered: List["np.ndarray"] = []
        self.round_crashes: List["np.ndarray"] = []
        self.round_alive: List["np.ndarray"] = []
        self.round_running: List["np.ndarray"] = []
        # Per-round candidate paths, rows indexed by absolute node depth.
        self._path = np.zeros((S, topo.height + 1), dtype=np.int32)
        self._end_depth = np.zeros(S, dtype=np.int32)
        self._active = np.zeros(T, dtype=bool)
        # Persistent round cursor: run() resumes here, so the engine can
        # be driven in segments (the importance-splitting estimator stops
        # at each level, clones survivors, and resumes the clones).
        self._round = 0

    # ------------------------------------------------------------------ driving
    def run(
        self,
        stop_after: Optional[int] = None,
        observer: Optional[Callable[..., Optional["np.ndarray"]]] = None,
    ) -> None:
        """All trials to completion, mirroring the kernel driving loop.

        ``stop_after`` pauses the stack once that round number has been
        completed (trials stay resumable); ``observer(engine, round_no,
        active)`` is called after every completed round — the hook the
        stacked invariant monitor attaches to — and may return a (T,)
        bool mask of trials to stop there.
        """
        if self._policy == "random":
            # Round 2 draws for every walker: build the bank before
            # round 1, while the stack holds little else — its build
            # scratch is freed before the round passes allocate theirs.
            # Other policies build it on first draw, if ever.
            self._stream_bank()
        round_no = self._round
        while True:
            active = (self.running > 0) & ~self.overrun & ~self.stopped
            if not active.any():
                break
            if stop_after is not None and round_no >= stop_after:
                break
            if round_no >= self.max_rounds:
                self.overrun |= active
                self.running_at_limit = np.where(
                    active, self.running, self.running_at_limit
                )
                break
            self._active = active
            round_no += 1
            self._round = round_no
            self.step(round_no)
            self.rounds[active] = round_no
            if observer is not None:
                stop = observer(self, round_no, active)
                if stop is not None:
                    self.stopped |= stop

    def step(self, round_no: int) -> None:
        """One full round for every trial in ``self._active``."""
        raise NotImplementedError

    def _record_round(
        self, sent: "np.ndarray", delivered: "np.ndarray",
        crashes: "np.ndarray", alive: "np.ndarray",
    ) -> None:
        """Append this round's metrics row (running counts after it)."""
        self.round_sent.append(sent)
        self.round_delivered.append(delivered)
        self.round_crashes.append(crashes)
        self.round_alive.append(alive)
        self.round_running.append(
            np.where(self._active, self.running.astype(np.int64), 0)
        )

    def _stream_bank(self) -> MTStreamBank:
        """The stack's per-ball streams, built on first use."""
        bank = self._bank
        if bank is None:
            # Block = tree height: a full root-to-leaf walk (the first
            # round's exact consumption) per extension.
            bank = self._bank = MTStreamBank(
                derive_ball_seeds(self._trial_seeds, self.labels),
                block=max(4, self._topo.height),
            )
        return bank

    # ------------------------------------------------------------- path choice
    def _choose_paths(
        self, round_no: int, idx: "np.ndarray", start: "np.ndarray",
        base: "np.ndarray", count: "np.ndarray", occ: Optional["np.ndarray"],
    ) -> "np.ndarray":
        """Fill the path rows of the non-leaf senders ``idx``; returns
        the ones that move.

        Each sender sits at ``start`` in the view row whose flat
        ``count``/``occ`` block begins at ``base``; the caller has
        recorded ``start`` at its depth.  All choices read the same
        frozen pre-round view, exactly like the scalar engines
        (broadcasts compose before any delivery).
        """
        topo = self._topo
        policy = self._policy
        if policy == "random" or (policy == "hybrid" and round_no // 2 > 1):
            self._walk_random(idx, start, base, count)
            return idx
        if policy == "hybrid":
            # Section 6, phase 1: ball bi aims at the leaf indexed by its
            # label rank, clamped inside its subtree as in the scalar
            # policy.
            rank = np.minimum(self._label_rank(idx), topo.span[start] - 1)
            self._walk_to_kth(idx, start, base, None, rank)
            return idx
        if occ is None or policy not in ("rank", "leftmost"):
            raise ConfigurationError(f"policy {policy!r} is not columnar-modeled")
        free = topo.span[start] - occ[base + start]
        go = free > 0  # full subtree: no free leaf below
        walkers = idx[go]
        if policy == "rank":
            # The k-th free leaf by rank at the node; a full subtree
            # keeps the ball put.
            if walkers.size:
                rank = self._rank_at_node(walkers, start[go], base[go])
                self._walk_to_kth(
                    walkers, start[go], base[go], occ,
                    np.minimum(rank, free[go] - 1),
                )
            return walkers
        if walkers.size:
            self._walk_to_kth(
                walkers, start[go], base[go], occ,
                np.zeros(walkers.size, dtype=np.int32),
            )
        full = ~go
        if full.any():
            # No free leaf below: aim at the subtree's leftmost leaf and
            # let the movement rule park the ball.
            self._walk_to_kth(
                idx[full], start[full], base[full], None,
                np.zeros(int(full.sum()), dtype=np.int32),
            )
        return idx

    def _label_rank(self, idx: "np.ndarray") -> "np.ndarray":
        """Label rank of each ball among its view's present balls."""
        raise NotImplementedError

    def _rank_at_node(
        self, idx: "np.ndarray", start: "np.ndarray", base: "np.ndarray"
    ) -> "np.ndarray":
        """Label rank of each ball among the balls at its node."""
        raise NotImplementedError

    def _walk_random(
        self, idx: "np.ndarray", cur: "np.ndarray", base: "np.ndarray",
        count: "np.ndarray",
    ) -> None:
        """Algorithm 1 lines 5-10 for every walker, one level per pass.

        Each ball consumes its private stream exactly where the scalar
        walk does: one draw per non-forced inner node, none when both
        children appear full (the larger raw residual wins, ties left).
        """
        topo = self._topo
        span = topo.span
        dcur = topo.depth[cur]
        while idx.size:
            left = topo.left[cur]
            right = topo.right[cur]
            raw_l = span[left] - count[base + left]
            raw_r = span[right] - count[base + right]
            cap_l = np.maximum(raw_l, 0)
            total = cap_l + np.maximum(raw_r, 0)
            forced = total <= 0
            go_left = np.empty(idx.size, dtype=bool)
            if forced.any():
                go_left[forced] = raw_l[forced] >= raw_r[forced]
            free = ~forced
            if free.any():
                draws = self._stream_bank().draws(idx[free])
                go_left[free] = draws < cap_l[free] / total[free]
            cur = np.where(go_left, left, right)
            dcur = dcur + 1
            self._path[idx, dcur] = cur
            done = topo.is_leaf[cur]
            if done.any():
                self._end_depth[idx[done]] = dcur[done]
                keep = ~done
                idx, cur, dcur, base = idx[keep], cur[keep], dcur[keep], base[keep]

    def _walk_to_kth(
        self, idx: "np.ndarray", cur: "np.ndarray", base: "np.ndarray",
        occ: Optional["np.ndarray"], k: "np.ndarray",
    ) -> None:
        """Descent to each walker's ``k``-th free leaf, left to right
        (``path_to_kth_free_leaf``; callers ensure free > 0).  Without
        ``occ`` every leaf is free: the descent to leaf rank
        ``lo + k`` (``path_to_rank``)."""
        topo = self._topo
        span = topo.span
        dcur = topo.depth[cur]
        remaining = k
        while idx.size:
            left = topo.left[cur]
            free_left = span[left]
            if occ is not None:
                free_left = np.maximum(free_left - occ[base + left], 0)
            go_left = remaining < free_left
            cur = np.where(go_left, left, topo.right[cur])
            remaining = np.where(go_left, remaining, remaining - free_left)
            dcur = dcur + 1
            self._path[idx, dcur] = cur
            done = topo.is_leaf[cur]
            if done.any():
                self._end_depth[idx[done]] = dcur[done]
                keep = ~done
                idx, cur, dcur, remaining, base = (
                    idx[keep], cur[keep], dcur[keep], remaining[keep], base[keep],
                )

    # -------------------------------------------------------------- movement
    def _admit(
        self,
        row: "np.ndarray",
        balls: "np.ndarray",
        start_depth: "np.ndarray",
        end_depth: "np.ndarray",
        count: "np.ndarray",
        quota: "np.ndarray",
        credit: Optional["np.ndarray"] = None,
        replay: Optional[Callable[..., None]] = None,
    ) -> Iterator[Tuple["np.ndarray", "np.ndarray", "np.ndarray"]]:
        """Lines 12-21's ``<R`` admission, level by level.

        Mover ``balls`` walk their recorded paths from ``start_depth`` to
        ``end_depth`` in view ``row``.  ``<R`` says deeper balls move
        first, ties by label.  Since balls only enter subtrees, node
        ``v`` admits the round's arrivals in ``<R`` order up to its
        frozen round-start free capacity ``quota`` — so each tree level
        is one grouped-quota pass over the flat ``count`` column
        (updated in place), and only over-subscribed nodes need an
        explicit within-group ranking.  Nodes holding purge ``credit``
        (the crash engine's capacity-credit events) are left to
        ``replay(gid, dirty, admitted, start_depth, balls)``.  Yields
        each level's admitted ``(rows, balls, children)``.
        """
        topo = self._topo
        height = topo.height
        # Stable sort by shallow-last start depth keeps label order
        # inside each depth bucket: the movers in <R order, per row.
        order = np.argsort(
            row * np.int64(height + 1) + (height - start_depth), kind="stable"
        )
        row = row[order]
        balls = balls[order]
        start_depth = start_depth[order]
        end_depth = end_depth[order]
        base = row * np.int64(topo.node_count)
        advancing = np.ones(balls.size, dtype=bool)
        path = self._path
        for level in range(1, height + 1):
            sel = np.flatnonzero(
                advancing & (start_depth < level) & (level <= end_depth)
            )
            if sel.size == 0:
                continue
            sel_balls = balls[sel]
            child = path[sel_balls, level]
            gid = base[sel] + child
            arrivals = np.bincount(gid, minlength=count.size)
            crowded = arrivals[gid] > quota[gid]
            dirty = None
            if credit is not None:
                dirty = credit[gid] > 0
                crowded &= ~dirty
            admitted = np.ones(sel.size, dtype=bool)
            if crowded.any():
                # Rank the contested arrivals: sel is already in <R
                # order, so within-node arrival rank is the grouped rank
                # and the first quota[node] arrivals win.
                cpos = np.flatnonzero(crowded)
                cgid = gid[cpos]
                admitted[cpos] = _grouped_ranks(cgid) < quota[cgid]
            if dirty is not None and replay is not None and dirty.any():
                replay(gid, dirty, admitted, start_depth[sel], sel_balls)
            if not admitted.all():
                advancing[sel[~admitted]] = False
                sel, sel_balls = sel[admitted], sel_balls[admitted]
                child, gid = child[admitted], gid[admitted]
                arrivals = np.bincount(gid, minlength=count.size)
            if sel.size:
                # The admitted arrivals histogram is the per-node entry
                # count.
                np.add(count, arrivals, out=count, casting="unsafe")
                yield row[sel], sel_balls, child

    def _chain_add(
        self,
        arr: "np.ndarray",
        base: "np.ndarray",
        start: "np.ndarray",
        delta: int,
    ) -> None:
        """``arr[base + v] += delta`` along every root chain from ``start``."""
        parent = self._topo.parent
        walk = start
        b = base
        while walk.size:
            np.add.at(arr, b + walk, delta)
            nxt = parent[walk]
            keep = nxt != -1
            walk = nxt[keep]
            b = b[keep]

    def _halt(
        self, round_no: int, idx: "np.ndarray", trials: "np.ndarray", node: "np.ndarray"
    ) -> None:
        """Balls ``idx`` of ``trials`` halt this round on leaf ``node``."""
        self.round_halted[idx] = round_no
        self.decision[idx] = self._topo.leaf_rank[node]
        self.halted[idx] = True
        self.running -= np.bincount(trials, minlength=self.trials).astype(np.int32)

    def _leaf_change(
        self, leaf_count: "np.ndarray", occ: Optional["np.ndarray"],
        rows: "np.ndarray", leaves: "np.ndarray", delta: int,
    ) -> None:
        """Balls of view ``rows`` entering (``delta`` 1) or leaving (-1)
        ``leaves``: the per-row leaf counts and, when tracked, the leaf
        occupancy up every root chain."""
        change = np.bincount(rows, minlength=leaf_count.size).astype(np.int32)
        if delta > 0:
            leaf_count += change
        else:
            leaf_count -= change
        if occ is not None:
            base = rows * np.int64(self._topo.node_count)
            self._chain_add(occ, base, leaves, delta)

    # ---------------------------------------------------------------- results
    def last_round_named(self, t: int) -> Optional[int]:
        """Latest naming round of a *correct* ball of trial ``t``."""
        s = slice(t * self.n, (t + 1) * self.n)
        named = self.round_named[s]
        ok = ~self.crashed[s] & (named >= 0)
        return int(named[ok].max()) if ok.any() else None


#: The per-ball columns of an exported trial state, in export order.
_BALL_STATE = ("pos", "halted", "decision", "round_named", "round_halted")


class VectorizedCellEngine(_StackedEngine):
    """``T`` stacked failure-free runs of one cell, lock-step by rounds.

    Drive with :meth:`run`; afterwards the per-ball outcome arrays
    (``decision``, ``round_named``, ``round_halted``) and the per-trial
    ``rounds`` / per-round metrics columns hold every trial's result, in
    the exact values the scalar engines produce trial by trial.

    The result surface is :class:`VectorizedCrashEngine`'s at its
    zero-crash values (``crashed``/``round_crashed`` never set,
    ``round_crashes`` all zero), so one stacked result type reads either
    engine.  Rounds apply in place: tree state is one shared view per
    trial, a ``(T * node_count,)`` flat column indexed by
    ``t * node_count + node``.
    """

    def __init__(
        self,
        ids: Sequence[BallId],
        trial_seeds: Sequence[int],
        *,
        policy: str = "random",
        halt_on_name: bool = False,
        max_rounds: int = 10_000,
    ) -> None:
        super().__init__(
            ids,
            trial_seeds,
            policy=policy,
            halt_on_name=halt_on_name,
            max_rounds=max_rounds,
        )
        T, n = self.trials, self.n
        topo = self._topo
        M = topo.node_count
        self._trial = np.repeat(np.arange(T, dtype=np.int64), n)
        self._tbase = self._trial * M
        self.pos = np.full(self._S, topo.root, dtype=np.int32)
        # Shared-view columns.
        self._count = np.zeros(T * M, dtype=np.int32)
        self._span_tiled = np.tile(topo.span, T)
        self._leaf_occ = (
            np.zeros(T * M, dtype=np.int32) if self._track_leaf_occ else None
        )
        self._n_at_leaf = np.zeros(T, dtype=np.int32)

    # -------------------------------------------------------- state interchange
    def export_trial_state(self, t: int) -> Dict[str, Any]:
        """Trial ``t``'s protocol state in the engine-independent form
        shared with ``ColumnarBallsEngine.export_state`` (plain lists,
        ``-1`` sentinels for undecided/unnamed)."""
        n = self.n
        M = self._topo.node_count
        balls = slice(t * n, (t + 1) * n)
        nodes = slice(t * M, (t + 1) * M)
        state: Dict[str, Any] = {
            key: getattr(self, key)[balls].tolist() for key in _BALL_STATE
        }
        state["count"] = self._count[nodes].tolist()
        leaf_occ = self._leaf_occ
        state["leaf_occ"] = leaf_occ[nodes].tolist() if leaf_occ is not None else None
        state["n_at_leaf"] = int(self._n_at_leaf[t])
        state["running"] = int(self.running[t])
        return state

    def inject_trial_states(
        self, states: Sequence[Dict[str, Any]], round_no: int
    ) -> None:
        """Load one exported state per trial, as of completed ``round_no``.

        The engine must be freshly constructed with one trial seed per
        state (the clones' derived seeds); the next :meth:`run` resumes
        at round ``round_no + 1`` with fresh per-ball streams — valid
        because the protocol is Markov given the exported state.
        """
        if len(states) != self.trials:
            raise ConfigurationError(
                f"{len(states)} state(s) for {self.trials} stacked trial(s)"
            )
        n = self.n
        M = self._topo.node_count
        for t, state in enumerate(states):
            balls = slice(t * n, (t + 1) * n)
            nodes = slice(t * M, (t + 1) * M)
            for key in _BALL_STATE:
                getattr(self, key)[balls] = state[key]
            self._count[nodes] = state["count"]
            if self._leaf_occ is not None:
                self._leaf_occ[nodes] = state["leaf_occ"]
            self._n_at_leaf[t] = state["n_at_leaf"]
            self.running[t] = state["running"]
        self.rounds[:] = round_no
        self._round = round_no

    # ------------------------------------------------------------------- rounds
    def step(self, round_no: int) -> None:
        """One round in place: every running ball broadcasts, and every
        running ball receives every broadcast (itself included)."""
        active = self._active
        sent = np.where(active, self.running, 0).astype(np.int64)
        if round_no == 1:
            self._init_round()
        elif round_no % 2 == 0:
            self._path_round(round_no, active)
        else:
            self._position_round(round_no, active)
        self._record_round(
            sent,
            sent * sent,
            np.zeros(self.trials, dtype=np.int64),
            np.where(active, np.int64(self.n), 0),
        )

    def _init_round(self) -> None:
        """Line 1: every ball announces its label; all start at the root."""
        topo = self._topo
        root_idx = np.arange(self.trials, dtype=np.int64) * topo.node_count + topo.root
        self._count[root_idx] = self.n
        if topo.span[topo.root] == 1:  # n == 1: the root already is a leaf
            if self._leaf_occ is not None:
                self._leaf_occ[root_idx] = self.n
            self._n_at_leaf[:] = self.n

    def _path_round(self, round_no: int, active: "np.ndarray") -> None:
        """Phase round 1: exchange candidate paths, move under ``<R``."""
        topo = self._topo
        ball_active = np.repeat(active, self.n) & ~self.halted
        # A leaf reached before this round's broadcast fixes the name now
        # (the columnar length-1 branch; in practice the n == 1 root-leaf).
        at_leaf = topo.is_leaf[self.pos]
        naming = ball_active & at_leaf & (self.round_named < 0)
        if naming.any():
            idx = np.flatnonzero(naming)
            self.round_named[idx] = round_no
            self.decision[idx] = topo.leaf_rank[self.pos[idx]]
        candidates = np.flatnonzero(ball_active & ~at_leaf)
        if candidates.size == 0:
            return
        start = self.pos[candidates]
        self._path[candidates, topo.depth[start]] = start
        movers = self._choose_paths(
            round_no, candidates, start, self._tbase[candidates],
            self._count, self._leaf_occ,
        )
        if movers.size:
            self._move(round_no, movers)

    def _position_round(self, round_no: int, active: "np.ndarray") -> None:
        """Phase round 2: re-synchronize positions, terminate."""
        topo = self._topo
        all_at_leaves = self._n_at_leaf == self.n
        ball_active = np.repeat(active, self.n) & ~self.halted
        halting = ball_active & np.repeat(all_at_leaves, self.n)
        if self._halt_on_name:
            halting |= ball_active & topo.is_leaf[self.pos]
        if halting.any():
            idx = np.flatnonzero(halting)
            self._halt(round_no, idx, self._trial[idx], self.pos[idx])

    def _label_rank(self, idx: "np.ndarray") -> "np.ndarray":
        # Failure-free, every ball is present in its trial's view.
        return self._jcol[idx]

    def _rank_at_node(
        self, idx: "np.ndarray", start: "np.ndarray", base: "np.ndarray"
    ) -> "np.ndarray":
        # Every ball at an inner node walks this round: ranking the
        # walkers ranks the node's balls.
        return _grouped_ranks(base + start)

    def _move(self, round_no: int, movers: "np.ndarray") -> None:
        """Lines 12-21 for all trials at once: admitted movers take their
        child, and a ball reaching a leaf fixes its name."""
        topo = self._topo
        for rows, moved, child in self._admit(
            self._trial[movers],
            movers,
            topo.depth[self.pos[movers]],
            self._end_depth[movers],
            self._count,
            self._span_tiled - self._count,
        ):
            self.pos[moved] = child
            leaf_hit = topo.is_leaf[child]
            if leaf_hit.any():
                landed = moved[leaf_hit]
                leaves = child[leaf_hit]
                self.round_named[landed] = round_no
                self.decision[landed] = topo.leaf_rank[leaves]
                self._leaf_change(
                    self._n_at_leaf, self._leaf_occ, rows[leaf_hit], leaves, 1
                )

    # ---------------------------------------------------------------- results
    def monitor_rows(self) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """The live view class rows in monitor form: ``(pos, status,
        trial)``, one shared row per trial with a running ball (the
        zero-crash case of :meth:`VectorizedCrashEngine.monitor_rows`).

        The stacked twin of ``ColumnarBallsEngine.monitor_views()``:
        halted balls keep their leaf, ANNOUNCED under halt-on-name.
        """
        T, n = self.trials, self.n
        live = np.flatnonzero(self.running > 0)
        pos = self.pos.reshape(T, n)[live]
        if self._halt_on_name:
            status = self.halted.reshape(T, n)[live].view(np.uint8) * np.uint8(
                _ANNOUNCED
            )
        else:
            status = np.zeros(pos.shape, dtype=np.uint8)
        return pos, status, live


# --------------------------------------------------------------------------
# Crash-capable stacked engine: every live view class of every trial is one
# matrix row; all trials advance one lock-step round per batch of passes.
# --------------------------------------------------------------------------


class _LazyOutbox(Mapping):
    """One round's outbox, payloads materialized on first access.

    Keyed and ordered exactly like the columnar engine's eager dict (the
    running pids in input order).  Certified adversaries are pure
    functions of the public context, so building ``path_message`` tuples
    only for the entries a plan actually touches is observationally
    identical — and most plans touch none.
    """

    __slots__ = ("_pids", "_members", "_fetch", "_memo")

    def __init__(
        self, pids: Sequence[BallId], fetch: Callable[[BallId], Any]
    ) -> None:
        self._pids = pids
        self._members = frozenset(pids)
        self._fetch = fetch
        self._memo: Dict[BallId, Any] = {}

    def __getitem__(self, key: BallId) -> Any:
        memo = self._memo
        if key in memo:
            return memo[key]
        if key not in self._members:
            raise KeyError(key)
        value = self._fetch(key)
        memo[key] = value
        return value

    def __iter__(self) -> Iterator[BallId]:
        return iter(self._pids)

    def __len__(self) -> int:
        return len(self._pids)


class VectorizedCrashEngine(_StackedEngine):
    """``T`` stacked trials of one cell under certified crash adversaries.

    :class:`~repro.core.columnar.ColumnarCrashEngine` advances one trial
    at a time, cloning and re-merging per-receiver view classes as Python
    list passes.  Here the live classes of *all* trials are rows of
    ``(C, n)`` / ``(C, node_count)`` matrices, and every round is a batch
    of ufunc passes over them; only the adversary ``plan`` calls (Python
    by contract) and the rare purge-dirtied admission nodes drop to
    scalar code.

    Exactness mirrors the columnar engine decision for decision — the
    same per-ball RNG streams, the same :class:`AdversaryContext` and
    clamping, the same frozen-capacity ``<R`` admission (purges enter the
    priority order as capacity-credit events), the same
    ``(pos, status)`` merge keys — asserted trial-for-trial by the
    stacked-crash differential suite.  Monitored stacks attach the
    stacked invariant monitor as :meth:`run`'s observer; it reads the
    live class rows (:meth:`monitor_rows`).
    """

    def __init__(
        self,
        ids: Sequence[BallId],
        trial_seeds: Sequence[int],
        *,
        policy: str = "random",
        halt_on_name: bool = False,
        adversaries: Optional[Sequence[Any]] = None,
        crash_budget: int = 0,
        max_rounds: int = 10_000,
    ) -> None:
        super().__init__(
            ids,
            trial_seeds,
            policy=policy,
            halt_on_name=halt_on_name,
            max_rounds=max_rounds,
        )
        T, n, S = self.trials, self.n, self._S
        if adversaries is None:
            adversaries = [None] * T
        if len(adversaries) != T:
            raise ConfigurationError(
                f"{len(adversaries)} adversar(ies) for {T} stacked trial(s)"
            )
        self._adversaries = list(adversaries)
        self._index_of: Dict[BallId, int] = {
            pid: j for j, pid in enumerate(self.labels)
        }
        # Adversary context exposes pids in *input* order (the reference
        # simulator's process-dict insertion order), not label order.
        self._input_order = np.array(
            [self._index_of[pid] for pid in ids], dtype=np.int64
        )
        self._input_labels: List[BallId] = list(ids)
        self._budget = crash_budget
        self._nodes = cached_topology(n).arrays().nodes
        M = self._topo.node_count
        #: Row of each *running* ball's view class in the class matrices
        #: (-1 before round 1 and for non-running balls).
        self.cls_of = np.full(S, -1, dtype=np.int64)
        self._victim = np.zeros(S, dtype=bool)
        # Class matrices: one row per live receiver equivalence class.
        self._crows = 0
        self._cpos = np.zeros((0, n), dtype=np.int32)
        self._cstat = np.zeros((0, n), dtype=np.uint8)
        self._ccount = np.zeros((0, M), dtype=np.int32)
        self._cocc = (
            np.zeros((0, M), dtype=np.int32) if self._track_leaf_occ else None
        )
        self._cpresent = np.zeros(0, dtype=np.int32)
        self._cleaf = np.zeros(0, dtype=np.int32)
        self._ctrial = np.zeros(0, dtype=np.int64)
        self.crashed_count = np.zeros(T, dtype=np.int32)
        self._start_depth = np.zeros(S, dtype=np.int32)
        self._announced = np.full(S, -1, dtype=np.int32)

    # ------------------------------------------------------------------ driving
    def step(self, round_no: int) -> None:
        """One full round for every active trial: compose, crash plan,
        deliver per (pre-class, signature) group, merge, halt."""
        n = self.n
        T = self.trials
        topo = self._topo
        M = topo.node_count
        active = self._active
        active_balls = np.repeat(active, n)
        sent_balls = active_balls & ~self.crashed & ~self.halted
        sent_row = np.where(active, self.running, 0).astype(np.int64)
        if round_no == 1:
            kind = "init"
        elif round_no % 2 == 0:
            kind = "path"
            senders = np.flatnonzero(sent_balls)
            if senders.size:
                # Each sender's candidate path against *its own* class
                # row; a sender at a leaf sends the one-node path.
                c = self.cls_of[senders]
                start = self._cpos[c, self._jcol[senders]]
                sd = topo.depth[start]
                self._path[senders, sd] = start
                self._start_depth[senders] = sd
                self._end_depth[senders] = sd
                walk = np.flatnonzero(~topo.is_leaf[start])
                if walk.size:
                    self._choose_paths(
                        round_no, senders[walk], start[walk],
                        c[walk] * np.int64(M), self._ccount.reshape(-1),
                        self._cocc.reshape(-1) if self._cocc is not None else None,
                    )
        else:
            kind = "pos"
            senders = np.flatnonzero(sent_balls)
            self._announced.fill(-1)
            if senders.size:
                self._announced[senders] = self._cpos[
                    self.cls_of[senders], self._jcol[senders]
                ]
        crashes_row, partial = self._plan_and_crash(
            round_no, kind, sent_balls, active
        )
        alive_row = np.where(
            active, n - self.crashed_count.astype(np.int64), 0
        )

        # Receivers: running balls after this round's crashes land.
        recv = np.flatnonzero(active_balls & ~self.crashed & ~self.halted)
        r_trial = recv // n
        r_j = recv - r_trial * n
        r_pre = self.cls_of[recv]
        r_pat = np.zeros(recv.size, dtype=np.int64)
        # Distinct delivery camps per trial: a receiver's signature is a
        # function of its camp-membership pattern (np.unique over the
        # pattern matrix), computed once per distinct pattern.
        trial_sig: Dict[int, Any] = {}
        npat = 1
        for t, (mem, vmask, vlen, _victims) in partial.items():
            where = np.flatnonzero(r_trial == t)
            if where.size == 0:
                continue
            ncamps = mem.shape[0]
            patterns = mem[:, r_j[where]].T
            if ncamps <= 62:
                # Row identity as one int64 key: a plain 1-D unique,
                # far cheaper than the axis-0 structured-view path.
                codes = patterns.astype(np.int64) @ (
                    np.int64(1) << np.arange(ncamps, dtype=np.int64)
                )
                _uc, fidx, inverse = np.unique(
                    codes, return_index=True, return_inverse=True
                )
                uniq = patterns[fidx]
            else:  # pragma: no cover - needs >62 distinct camps in a round
                uniq, inverse = np.unique(
                    patterns, axis=0, return_inverse=True
                )
            r_pat[where] = inverse.reshape(-1)
            # Boolean matmul: a pattern sees a victim iff any of its
            # camps holds it.
            trial_sig[t] = (uniq @ vmask, uniq.astype(np.int64) @ vlen)
            npat = max(npat, uniq.shape[0])

        # Delivery groups: (trial, pre-class, signature pattern).
        gkey = (
            r_trial * np.int64(self._crows + 1) + (r_pre + 1)
        ) * np.int64(npat) + r_pat
        _uk, first, inv = np.unique(
            gkey, return_index=True, return_inverse=True
        )
        inv = inv.reshape(-1)
        G = first.size
        g_trial = r_trial[first]
        g_pre = r_pre[first]
        g_pat = r_pat[first]
        g_sig = np.zeros((G, n), dtype=bool)
        g_siglen = np.zeros(G, dtype=np.int64)
        for t, (smask, slen) in trial_sig.items():
            rows = np.flatnonzero(g_trial == t)
            if rows.size:
                pat = g_pat[rows]
                g_sig[rows] = smask[pat]
                g_siglen[rows] = slen[pat]
        partial_count = np.zeros(T, dtype=np.int64)
        for t, camps in partial.items():
            partial_count[t] = camps[3]
        base_count = sent_row - partial_count
        delivered_row = np.zeros(T, dtype=np.int64)
        if recv.size:
            delivered_row = np.bincount(
                r_trial,
                weights=(base_count[r_trial] + g_siglen[inv]).astype(
                    np.float64
                ),
                minlength=T,
            ).astype(np.int64)

        # Gather each group's pre-class row and apply the round to it.
        # A group hears every sender but the victims outside its camps.
        sent_m = sent_balls.reshape(T, n)[g_trial]
        victim_m = self._victim.reshape(T, n)[g_trial]
        delivered = sent_m & (~victim_m | g_sig)
        if kind == "init":
            new_pos = np.where(delivered, np.int32(topo.root), np.int32(-1))
            new_stat = np.zeros((G, n), dtype=np.uint8)
            new_count = np.zeros((G, M), dtype=np.int32)
            mcount = delivered.sum(axis=1).astype(np.int32)
            new_count[:, topo.root] = mcount
            new_present = mcount.copy()
            new_leaf = np.zeros(G, dtype=np.int32)
            new_occ = (
                np.zeros((G, M), dtype=np.int32)
                if self._track_leaf_occ
                else None
            )
            if topo.span[topo.root] == 1:  # n == 1: the root is a leaf
                new_leaf = mcount.copy()
                if new_occ is not None:
                    new_occ[:, topo.root] = mcount
        else:
            new_pos = self._cpos[g_pre]
            new_stat = self._cstat[g_pre]
            new_count = self._ccount[g_pre]
            new_occ = self._cocc[g_pre] if self._cocc is not None else None
            new_present = self._cpresent[g_pre].copy()
            new_leaf = self._cleaf[g_pre].copy()
            if kind == "path":
                self._apply_path_groups(
                    new_pos, new_stat, new_count, new_occ,
                    new_present, new_leaf, g_trial, delivered,
                )
            else:
                self._apply_pos_groups(
                    new_pos, new_stat, new_count, new_occ,
                    new_present, new_leaf, g_trial, delivered,
                )

        # Merge classes whose (pos, status) coincide, then point every
        # receiver at its canonical row; stale rows drop out here.
        remap = np.empty(G, dtype=np.int64)
        canon: Dict[Any, int] = {}
        g_trial_l = g_trial.tolist()
        for g in range(G):
            mkey = (g_trial_l[g], new_pos[g].tobytes(), new_stat[g].tobytes())
            hit = canon.get(mkey)
            if hit is None:
                canon[mkey] = g
                remap[g] = g
            else:
                remap[g] = hit
        # Canonical rows map to themselves (a plain np.unique here would
        # also pull in numpy.ma, ~1.2 MB resident, for its masked check).
        keep = np.flatnonzero(remap == np.arange(G))
        ridx = np.full(G, -1, dtype=np.int64)
        ridx[keep] = np.arange(keep.size, dtype=np.int64)
        self._cpos = np.ascontiguousarray(new_pos[keep])
        self._cstat = np.ascontiguousarray(new_stat[keep])
        self._ccount = np.ascontiguousarray(new_count[keep])
        self._cocc = (
            np.ascontiguousarray(new_occ[keep]) if new_occ is not None else None
        )
        self._cpresent = new_present[keep]
        self._cleaf = new_leaf[keep]
        self._ctrial = g_trial[keep]
        self._crows = int(keep.size)
        cls = np.full(self._S, -1, dtype=np.int64)
        if recv.size:
            cls[recv] = ridx[remap[inv]]
        self.cls_of = cls

        if kind != "init":
            # Per-ball bookkeeping against the ball's own (post) view;
            # skipped on the hello round exactly like the scalar engines.
            c = self.cls_of[recv]
            p = self._cpos[c, r_j]
            at_leaf = topo.span[p] == 1
            naming = at_leaf & (self.round_named[recv] < 0)
            if naming.any():
                named = recv[naming]
                self.round_named[named] = round_no
                self.decision[named] = topo.leaf_rank[p[naming]]
            if kind == "pos":
                halt = self._cleaf[c] == self._cpresent[c]
                if self._halt_on_name:
                    halt |= at_leaf
                if halt.any():
                    self._halt(round_no, recv[halt], r_trial[halt], p[halt])
        self._record_round(sent_row, delivered_row, crashes_row, alive_row)

    def monitor_rows(self) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """The live view class rows in monitor form: ``(pos, status,
        trial)`` for every class with a running member, trial-sorted.

        The stacked twin of ``ColumnarCrashEngine.monitor_views()``:
        crashed and halted balls do not keep a class live.
        """
        members = self.cls_of[(self.cls_of >= 0) & ~self.crashed & ~self.halted]
        rows = np.flatnonzero(np.bincount(members, minlength=self._crows))
        return self._cpos[rows], self._cstat[rows], self._ctrial[rows]

    # -------------------------------------------------------------- adversary
    def _plan_and_crash(
        self,
        round_no: int,
        kind: str,
        sent_balls: "np.ndarray",
        active: "np.ndarray",
    ) -> Tuple["np.ndarray", Dict[int, Tuple[Any, ...]]]:
        """Plan, clamp and apply every active trial's crashes.

        Returns the per-trial crash counts and, per trial whose partial
        victims' broadcasts some receivers still see, those victims'
        delivery camps (:meth:`_camps`) — built as each plan lands, so
        the plans' receiver sets never pile up across the stack.
        """
        n = self.n
        T = self.trials
        labels = self.labels
        input_labels = self._input_labels
        nodes = self._nodes
        crashes_row = np.zeros(T, dtype=np.int64)
        partial: Dict[int, Tuple[Any, ...]] = {}
        self._victim.fill(False)
        for t in np.flatnonzero(active).tolist():
            adv = self._adversaries[t]
            if adv is None or type(adv) is NoFailures:
                continue
            remaining = self._budget - int(self.crashed_count[t])
            if remaining <= 0:
                continue
            base = t * n
            sent_list = sent_balls[base : base + n].tolist()
            in_order = base + self._input_order
            running_pids = tuple(
                compress(input_labels, sent_balls[in_order].tolist())
            )
            if kind == "init":
                hello = hello_message()

                def fetch(pid: BallId, _hello: Any = hello) -> Any:
                    return _hello

            elif kind == "path":

                def fetch(pid: BallId, base: int = base) -> Any:
                    s = base + self._index_of[pid]
                    sd = int(self._start_depth[s])
                    ed = int(self._end_depth[s])
                    return path_message(
                        tuple(
                            nodes[int(i)] for i in self._path[s, sd : ed + 1]
                        )
                    )

            else:

                def fetch(pid: BallId, base: int = base) -> Any:
                    return position_message(
                        nodes[int(self._announced[base + self._index_of[pid]])]
                    )

            crashed_row = self.crashed[base : base + n]
            alive = list(
                compress(input_labels, (~self.crashed[in_order]).tolist())
            )
            ctx = AdversaryContext(
                round_no=round_no,
                running=running_pids,
                alive=tuple(alive),
                outbox=_LazyOutbox(running_pids, fetch),
                crashed_so_far=frozenset(
                    compress(labels, crashed_row.tolist())
                ),
                budget_remaining=remaining,
                processes=_ProcessIntrospectionUnavailable(alive),
            )
            plan = adv.plan(ctx) or {}
            plan = clamp_plan(plan, alive=alive, budget_remaining=remaining)
            if not plan:
                continue
            crashes_row[t] = len(plan)
            events = []
            for pid, kept in plan.items():
                j = self._index_of[pid]
                s = base + j
                self.crashed[s] = True
                self.round_crashed[s] = round_no
                self.crashed_count[t] += 1
                if not self.halted[s]:
                    self.running[t] -= 1
                if sent_list[j]:
                    self._victim[s] = True
                    events.append((j, kept))
            if events:
                partial[t] = self._camps(events)
        return crashes_row, partial

    def _camps(self, events: List[Tuple[int, Any]]) -> Tuple[Any, ...]:
        """One trial's partial victims as delivery camps.

        Victims sharing a kept-receiver set form one camp.  Returns
        ``(mem, vmask, vlen, victims)``: camp membership by label rank
        ``(camps, n)``, each camp's victims as a ``(camps, n)`` mask and
        count, and the trial's partial-victim count.
        """
        n = self.n
        index_of = self._index_of
        camp_sets: List[Any] = []
        camp_victims: List[List[int]] = []
        camp_idx: Dict[Any, int] = {}
        for j, kept in events:
            k = camp_idx.get(kept)
            if k is None:
                camp_idx[kept] = k = len(camp_sets)
                camp_sets.append(kept)
                camp_victims.append([])
            camp_victims[k].append(j)
        ncamps = len(camp_sets)
        mem = np.zeros((ncamps, n), dtype=bool)
        for k, kept in enumerate(camp_sets):
            cols = [j for j in map(index_of.get, kept) if j is not None]
            if cols:
                mem[k, cols] = True
        vmask = np.zeros((ncamps, n), dtype=bool)
        vlen = np.zeros(ncamps, dtype=np.int64)
        for k, vs in enumerate(camp_victims):
            vmask[k, vs] = True
            vlen[k] = len(vs)
        return mem, vmask, vlen, len(events)

    # ------------------------------------------------------- round application
    def _apply_path_groups(
        self,
        new_pos: "np.ndarray",
        new_stat: "np.ndarray",
        new_count: "np.ndarray",
        new_occ: Optional["np.ndarray"],
        new_present: "np.ndarray",
        new_leaf: "np.ndarray",
        g_trial: "np.ndarray",
        delivered: "np.ndarray",
    ) -> None:
        """Lines 12-21 on every group row at once, level by level.

        The ``<R`` interleaving of movers and purges is realized against
        frozen round-start capacities: purges post capacity-credit events
        keyed by their priority, clean nodes admit by grouped rank, and
        only nodes holding both purge credit and arrivals replay the
        exact event merge sequentially (rare: a node's subtree must lose
        a silent ball and receive arrivals in the same round).
        """
        topo = self._topo
        M = topo.node_count
        n = self.n
        span = topo.span
        depth = topo.depth
        fc = new_count.reshape(-1)
        focc = new_occ.reshape(-1) if new_occ is not None else None
        present = new_pos >= 0
        # Frozen round-start capacity; purges must not open quota for
        # <R-earlier arrivals, so they go into the credit ledger instead.
        quota0 = (span[np.newaxis, :] - new_count).reshape(-1).copy()
        credit = None
        replay: Optional[Callable[..., None]] = None
        purged = self._purge(
            new_pos, new_stat, new_present, new_leaf, fc, focc,
            present & ~delivered,
        )
        if purged is not None:
            pg, pi, ppos = purged
            credit = np.zeros(fc.size, dtype=np.int32)
            self._chain_add(credit, pg * np.int64(M), ppos, 1)
            # Event lists for the (rare) purge-dirtied admission nodes
            # are reconstructed on demand in _admit_dirty from these.
            purges = (pg, pi, ppos, depth[ppos])

            def replay_purges(
                gid: "np.ndarray",
                dirty: "np.ndarray",
                admitted: "np.ndarray",
                dp: "np.ndarray",
                balls: "np.ndarray",
            ) -> None:
                self._admit_dirty(
                    gid, dirty, admitted, quota0, purges, dp, balls % n
                )

            replay = replay_purges

        # Movers: delivered balls whose recorded path resumes from this
        # class's position (the columnar ghost rule: the position must
        # sit on the path strictly before its end, else the ball stays).
        mg, mi = np.nonzero(present & delivered)
        if mg.size == 0:
            return
        mball = g_trial[mg] * np.int64(n) + mi
        sd = self._start_depth[mball]
        ed = self._end_depth[mball]
        p = new_pos[mg, mi]
        dp = depth[p]
        valid = np.flatnonzero(
            (sd <= dp) & (dp < ed) & (self._path[mball, dp] == p)
        )
        if valid.size == 0:
            return
        for rows, balls, child in self._admit(
            mg[valid], mball[valid], dp[valid], ed[valid],
            fc, quota0, credit, replay,
        ):
            new_pos[rows, balls % n] = child
            leaf_hit = span[child] == 1
            if leaf_hit.any():
                self._leaf_change(
                    new_leaf, focc, rows[leaf_hit], child[leaf_hit], 1
                )

    def _admit_dirty(
        self,
        gid: "np.ndarray",
        is_dirty: "np.ndarray",
        admitted: "np.ndarray",
        quota0: "np.ndarray",
        purges: Any,
        dp: "np.ndarray",
        mi: "np.ndarray",
    ) -> None:
        """Replay arrivals against purge-credit events at dirty nodes.

        Arrivals reach here already in ``<R`` order per node; a purge at
        ``p0`` posted one capacity credit at every ancestor, carrying the
        priority key the columnar depth buckets gave it, so a sorted
        two-stream merge reproduces the sequential capacity evolution
        exactly.  Each dirty node's event list is rebuilt here from the
        round's purge table (the purges whose position sits in the
        node's subtree) — almost every round has purges, almost no node
        has both credit and arrivals.
        """
        topo = self._topo
        M = topo.node_count
        lo = topo.lo
        hi = topo.hi
        pg, pi, ppos, pdep = purges
        by_gid: Dict[int, List[int]] = {}
        gid_l = gid.tolist()
        for k in np.flatnonzero(is_dirty).tolist():
            by_gid.setdefault(gid_l[k], []).append(k)
        dp_l = dp.tolist()
        mi_l = mi.tolist()
        for gidval, ks in by_gid.items():
            g, a = divmod(gidval, M)
            sel = (pg == g) & (lo[a] <= lo[ppos]) & (hi[ppos] <= hi[a])
            events = sorted(
                zip(pdep[sel].tolist(), pi[sel].tolist()),
                key=lambda e: (-e[0], e[1]),
            )
            cap = int(quota0[gidval])
            ei = 0
            ne = len(events)
            for k in ks:
                akey = (-dp_l[k], mi_l[k])
                while ei < ne and (-events[ei][0], events[ei][1]) < akey:
                    cap += 1
                    ei += 1
                if cap > 0:
                    cap -= 1
                else:
                    admitted[k] = False

    def _apply_pos_groups(
        self,
        new_pos: "np.ndarray",
        new_stat: "np.ndarray",
        new_count: "np.ndarray",
        new_occ: Optional["np.ndarray"],
        new_present: "np.ndarray",
        new_leaf: "np.ndarray",
        g_trial: "np.ndarray",
        delivered: "np.ndarray",
    ) -> None:
        """Lines 22-28 on every group row at once (order-independent)."""
        topo = self._topo
        M = topo.node_count
        n = self.n
        span = topo.span
        fc = new_count.reshape(-1)
        focc = new_occ.reshape(-1) if new_occ is not None else None
        lifecycle = self._halt_on_name
        present = new_pos >= 0
        ann = self._announced.reshape(self.trials, n)[g_trial]
        live = present & delivered
        tg, ti = np.nonzero(live & (ann != new_pos))
        if tg.size:
            old = new_pos[tg, ti]
            newp = ann[tg, ti]
            gb = tg * np.int64(M)
            self._chain_add(fc, gb, old, -1)
            self._chain_add(fc, gb, newp, 1)
            oldleaf = span[old] == 1
            newleaf = span[newp] == 1
            if oldleaf.any():
                self._leaf_change(new_leaf, focc, tg[oldleaf], old[oldleaf], -1)
            if newleaf.any():
                self._leaf_change(new_leaf, focc, tg[newleaf], newp[newleaf], 1)
            new_pos[tg, ti] = newp
        if lifecycle:
            lg, li = np.nonzero(live)
            if lg.size:
                a = ann[lg, li]
                new_stat[lg, li] = np.where(
                    span[a] == 1, np.uint8(_ANNOUNCED), np.uint8(_ACTIVE)
                )
        self._purge(
            new_pos, new_stat, new_present, new_leaf, fc, focc,
            present & ~delivered,
        )

    def _purge(
        self, new_pos: "np.ndarray", new_stat: "np.ndarray",
        new_present: "np.ndarray", new_leaf: "np.ndarray",
        fc: "np.ndarray", focc: Optional["np.ndarray"], silent: "np.ndarray",
    ) -> Optional[Tuple["np.ndarray", "np.ndarray", "np.ndarray"]]:
        """Drop the balls a group row did not hear from this round
        (announced balls stay put); returns the purged ``(row, ball,
        position)`` table, or None when nothing was purged."""
        if self._halt_on_name:
            silent &= new_stat != _ANNOUNCED
        pg, pi = np.nonzero(silent)
        if pg.size == 0:
            return None
        topo = self._topo
        G = new_pos.shape[0]
        ppos = new_pos[pg, pi]
        pleaf = topo.span[ppos] == 1
        new_pos[pg, pi] = -1
        new_stat[pg, pi] = _ACTIVE
        new_present -= np.bincount(pg, minlength=G).astype(np.int32)
        self._chain_add(fc, pg * np.int64(topo.node_count), ppos, -1)
        if pleaf.any():
            self._leaf_change(new_leaf, focc, pg[pleaf], ppos[pleaf], -1)
        return pg, pi, ppos

    # ------------------------------------------------------------- path choice
    def _label_rank(self, idx: "np.ndarray") -> "np.ndarray":
        # A class row holds only the balls its receivers still see.
        pres = self._cpos >= 0
        rank_all = np.cumsum(pres, axis=1) - pres
        return rank_all[self.cls_of[idx], self._jcol[idx]]

    def _rank_at_node(
        self, idx: "np.ndarray", start: "np.ndarray", base: "np.ndarray"
    ) -> "np.ndarray":
        # Ranked among every present ball of the class row at the node
        # (the columnar ``rank_here`` memo, all rows at once), not only
        # this round's walkers: a class row also holds other classes'
        # balls.
        M = self._topo.node_count
        cc, ii = np.nonzero(self._cpos >= 0)
        keys = cc * np.int64(M) + self._cpos[cc, ii]
        ranks = np.zeros((self._crows, self.n), dtype=np.int64)
        ranks[cc, ii] = _grouped_ranks(keys)
        return ranks[self.cls_of[idx], self._jcol[idx]]
