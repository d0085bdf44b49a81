"""Vectorized, bit-exact Mersenne-Twister streams for the stacked kernel.

The reference and columnar engines give every ball its own
:class:`random.Random` (CPython's C MT19937), seeded through
:func:`repro.sim.rng.derive_seed`.  A trial-stacked kernel needs the
*same* draws for tens of thousands of (trial, ball) streams at once —
one Python object and one ``random()`` call per draw is exactly the
interpreter cost it exists to amortize.

:class:`MTStreamBank` therefore reimplements the generator as NumPy
array passes, one column per stream, and keeps only what the walks
consume.  Balls-into-leaves finishes in O(log log n) rounds and a ball
draws at most one coin per tree level it descends, so a stream uses a
few dozen of the 312 doubles one MT19937 generation holds.  The bank is
a *prefix*: a ``(P, S)`` float64 matrix holding the first ``P`` doubles
of every stream (row ``d`` is every stream's ``d``-th draw), with ``P``
a small multiple of the engines' ``block`` (the tree height).  Building
it streams the columns through one bounded scratch buffer per thread,
chunk by chunk:

* seeding is CPython's ``init_by_array`` (the key is the seed's
  little-endian 32-bit words) advanced for every column of the chunk
  per step, with seeds batched *by key width* so unusual widths
  (sub-32-bit seeds, giant integers) still seed vectorized instead of
  one stream at a time; a build narrower than one chunk keeps only the
  ``4P + 1`` state rows its prefix reads (:func:`_mix_compact`), so a
  memory-shaped crash stack's scratch is a fraction of a full state;
* only the first ``2P`` words of the first generation are twisted and
  tempered, a few rows per pass so the pass stays cache-resident;
* doubles are assembled exactly as CPython's ``random()`` does
  (``(a >> 5) * 2**26 + (b >> 6)`` over two consecutive words, divided
  by ``2**53``) straight into the chunk's columns of the prefix.

No ``(624, S)`` state outlives construction.  A stream whose cursor
reaches ``P`` (rare by the choice of ``P``) continues on the ground
truth itself: a C ``random.Random(seed)`` advanced ``2P`` words, which
stays exact through every later generation rollover.

The seeding and twist passes are uint32 streams over independent
columns, and NumPy releases the GIL, so the chunks fan out across a
thread pool when ``REPRO_VEC_THREADS`` (default: the CPU count; the
CLI's ``--threads`` sets it) resolves above 1 and the bank is wide
enough to amortize the dispatch.  Columns are partitioned, never
shared, and every thread owns its scratch, so any thread count produces
byte-identical streams; ``REPRO_VEC_THREADS=1`` is exactly the serial
pass.

Bit-identity with ``random.Random(seed).random()`` is asserted for
every stream shape and draw count in
``tests/sim/test_mt19937_streams.py``; the vectorized kernel's
differential suite then rests on it.

NumPy is an optional extra (``pip install .[fast]``): this module
imports with :data:`HAVE_NUMPY` False when it is missing, and the
kernel layer degrades to the columnar engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple, TypeVar, Union

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import ThreadPoolExecutor

from repro import config as repro_config
from repro.core.instrumentation import TIMERS

try:  # pragma: no cover - exercised via the no-numpy CI leg
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

try:  # Same C base type the engines seed per ball (see core.columnar).
    from _random import Random as _MTRandom
except ImportError:  # pragma: no cover - CPython always has _random
    from random import Random as _MTRandom  # type: ignore[assignment]

_R = TypeVar("_R")

#: Stream seeds: ints, or the u64 array
#: :func:`~repro.core.vectorized.derive_ball_seeds` builds.
_Seeds = Union[Sequence[int], "np.ndarray"]

#: MT19937 parameters (Matsumoto & Nishimura), as used by CPython.
_N = 624
_M = 397
_MATRIX_A = 0x9908B0DF
_UPPER = 0x80000000
_LOWER = 0x7FFFFFFF

if HAVE_NUMPY:
    _U32_UPPER = np.uint32(_UPPER)
    _U32_LOWER = np.uint32(_LOWER)
    _U32_MATRIX_A = np.uint32(_MATRIX_A)
    _U32_TEMPER_B = np.uint32(0x9D2C5680)
    _U32_TEMPER_C = np.uint32(0xEFC60000)
    _U32_ONE, _U32_5, _U32_6, _U32_7, _U32_11, _U32_15, _U32_18, _U32_30 = (
        np.uint32(k) for k in (1, 5, 6, 7, 11, 15, 18, 30)
    )

#: Doubles produced per generation (two 32-bit words per double).
DOUBLES_PER_GENERATION = _N // 2

#: Prefix doubles kept per stream, in units of the bank's ``block``.
#: Engines pass the tree height; on the n=1024 sweep (height 10) the
#: prefix of 30 covers all but ~100 of 131072 streams (max draw 38,
#: mean 11.9), and those few continue on the scalar fallback.
PREFIX_BLOCKS = 3

#: Widest column chunk seeded and twisted per scratch pass (a
#: ``(624, C)`` u32 buffer, 2.5 KB per column); a worker splits its
#: columns into equal chunks no wider.  Each chunk pays ufunc dispatch
#: on ~6000 seeding calls, so narrow chunks are slow: one thread builds
#: 131072 streams in 0.38 s at 16384 columns, 0.35 s at 21846-24576 and
#: 0.33 s at 32768 (2-core Xeon).  24576 keeps within 0.02 s of the
#: widest measured chunk at three quarters of its scratch.  Narrower
#: builds seed in one compact pass instead (``4P + 1`` state rows, 1.5x
#: the steps): at 3840 streams and P=24 that is 13-15 ms with 2.4 MB of
#: scratch, against 26 ms for four 1024-column full-state chunks
#: (2.8 MB) or 11-13 ms for one (10.5 MB).
CHUNK_STREAMS = 24576

#: Words twisted, tempered and paired per pass (even): the few rows of
#: each pass stay in L2 (4 rows: 0.06 s per 131072 streams, 16: 0.09 s).
TWIST_ROWS = 4

#: Fewest columns per worker before the build fans out.  Threads hand
#: the GIL back and forth between ufunc calls, which only pays on wide
#: calls: at 131072 streams two threads over 21846-wide chunks match one
#: thread (0.36 s vs 0.35 s), and over 15360-wide chunks they lose
#: (61440 streams: 0.46-0.50 s vs 0.37-0.39 s).  Two full chunks per
#: worker keeps every threaded chunk at least 2/3 of ``CHUNK_STREAMS``.
MIN_STREAMS_PER_THREAD = 2 * CHUNK_STREAMS

_base_state_cache = None

_pool = None
_pool_workers = 0


def thread_count() -> int:
    """The resolved ``REPRO_VEC_THREADS`` (default: CPU count, >= 1).

    Read per pass (through the :mod:`repro.config` seam) rather than
    cached so the CLI knob and tests can set the environment variable
    at any point.
    """
    return repro_config.vec_threads()


def _executor(workers: int) -> "ThreadPoolExecutor":
    """The shared column-fanout pool, grown on demand."""
    global _pool, _pool_workers
    if _pool is None or _pool_workers < workers:
        from concurrent.futures import ThreadPoolExecutor

        if _pool is not None:
            _pool.shutdown(wait=False)
        _pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-vec"
        )
        _pool_workers = workers
    return _pool


def _fanout(work: Callable[[slice], _R], count: int) -> List[_R]:
    """Run ``work`` over the column axis, split across threads when the
    bank is wide enough, and return its results in column order;
    partitioning is by contiguous column slices, so results are
    byte-identical at every thread count."""
    workers = min(thread_count(), count // MIN_STREAMS_PER_THREAD)
    if workers <= 1:
        return [work(slice(0, count))]
    step = -(-count // workers)
    slices = [
        slice(start, min(count, start + step))
        for start in range(0, count, step)
    ]
    return list(_executor(len(slices)).map(work, slices))


def _base_state() -> "np.ndarray":
    """``init_genrand(19650218)`` — the key-independent seeding prefix."""
    global _base_state_cache
    if _base_state_cache is None:
        base = np.empty(_N, dtype=np.uint64)
        base[0] = 19650218
        for i in range(1, _N):
            prev = int(base[i - 1])
            base[i] = (1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF
        _base_state_cache = base.astype(np.uint32)
    return _base_state_cache


def _key_words(seed: int) -> List[int]:
    """CPython ``random_seed``'s init key: ``abs(seed)`` as little-endian
    32-bit words (zero is the single word ``[0]``)."""
    value = abs(int(seed))
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def _mix_group(mt: "np.ndarray", keys: "np.ndarray", tmp: "np.ndarray") -> None:
    """``init_by_array`` over one same-width group, all columns per step.

    ``mt`` is an *uninitialized* ``(624, G)`` buffer (written in place);
    ``keys`` the ``(W, G)`` key matrix with ``key[j] + j`` pre-folded
    (the reference loop adds both); ``tmp`` a ``(G,)`` u32 scratch row.
    Runs ``max(624, W)`` mixing steps then the 623 decay steps, exactly
    CPython's schedule for a ``W``-word key.

    The reference seeds ``init_genrand(19650218)`` first and xors each
    key-mixing step into that base state.  The base state is
    key-independent, and the first 623 steps each touch their row for
    the first time — so instead of broadcasting the base state up
    front, those steps fold ``base[i]`` in as a scalar and write the
    row fresh; only revisits (step >= 623) read the row back.
    """
    width = keys.shape[0]
    base = list(_base_state())
    rows = list(mt)  # one view per row, built once per chunk
    key_rows = list(keys)
    add, xor, mul, shift = np.add, np.bitwise_xor, np.multiply, np.right_shift
    mix1 = np.uint32(1664525)
    mix2 = np.uint32(1566083941)
    i = 1
    j = 0
    for step in range(max(_N, width)):
        row = rows[i]
        if step == 0:
            # Row 0 is never materialized before its first wrap copy;
            # the whole first step is scalar arithmetic on base[0]
            # folded into the key add.
            b0 = int(base[0])
            head = (int(base[1]) ^ ((1664525 * (b0 ^ (b0 >> 30))) & 0xFFFFFFFF)) & 0xFFFFFFFF
            add(key_rows[0], np.uint32(head), row)
        else:
            prev = rows[i - 1]
            shift(prev, _U32_30, tmp)
            xor(tmp, prev, tmp)
            mul(tmp, mix1, tmp)
            if step < _N - 1:  # first visit: fold base[i] as a scalar
                xor(tmp, base[i], row)
            else:
                xor(row, tmp, row)
            add(row, key_rows[j], row)
        i += 1
        j += 1
        if i >= _N:
            rows[0][...] = rows[_N - 1]
            i = 1
        if j >= width:
            j = 0
    sub = np.subtract
    for _ in range(_N - 1):
        prev = rows[i - 1]
        row = rows[i]
        shift(prev, _U32_30, tmp)
        xor(tmp, prev, tmp)
        mul(tmp, mix2, tmp)
        xor(row, tmp, row)
        sub(row, np.uint32(i), row)
        i += 1
        if i >= _N:
            rows[0][...] = rows[_N - 1]
            i = 1
    rows[0][...] = np.uint32(0x80000000)


def _mix_compact(
    state: "np.ndarray", keys: "np.ndarray", scratch: "np.ndarray"
) -> None:
    """``init_by_array`` keeping only the state rows a short prefix reads.

    Twisting the first ``R <= N - M`` words reads state rows ``0..R``
    and ``M..M+R-1``; ``state`` is a ``(2R + 1, G)`` buffer receiving
    exactly those (rows ``0..R``, then ``M..M+R-1``).  ``keys`` is the
    ``(W, G)`` folded key matrix (``W <= 624``) and ``scratch`` a
    ``(4, G)`` u32 buffer.

    :func:`_mix_group`'s schedule for such a key is 624 mixing steps
    (rows 1..623, then row 1 again) and 623 decay steps (rows 2..623,
    then row 1), and decay step ``i`` reads mixing row ``i`` — known
    since step ``i - 1`` — and decay row ``i - 1``.  Only the decay
    pass's start (mixing row 1's revisit) waits for the end of the
    mixing pass, so instead of holding all 624 mixing rows the mixing
    chain runs twice: once to that revisit, then again in lock-step
    with the decay pass.  Every step is the reference's arithmetic.
    """
    width = keys.shape[0]
    span = (state.shape[0] - 1) // 2
    base = list(_base_state())
    key_rows = list(keys)
    first, mix, decay, tmp = scratch
    shift, xor, mul = np.right_shift, np.bitwise_xor, np.multiply
    mix1 = np.uint32(1664525)
    mix2 = np.uint32(1566083941)

    def mix_step(row: "np.ndarray", prev: "np.ndarray", i: int) -> None:
        # First visit of mixing row ``i`` (step ``i - 1``), into ``row``.
        shift(prev, _U32_30, tmp)
        xor(tmp, prev, tmp)
        mul(tmp, mix1, tmp)
        xor(tmp, base[i], row)
        np.add(row, key_rows[(i - 1) % width], row)

    def decay_step(row: "np.ndarray", mixed: "np.ndarray", i: int) -> None:
        # Decay row ``i`` from mixing row ``i`` and decay row ``i - 1``
        # (``row`` holds the latter and is overwritten).
        shift(row, _U32_30, tmp)
        xor(tmp, row, tmp)
        mul(tmp, mix2, tmp)
        xor(mixed, tmp, row)
        np.subtract(row, np.uint32(i), row)

    b0 = int(base[0])
    head = (int(base[1]) ^ ((1664525 * (b0 ^ (b0 >> 30))) & 0xFFFFFFFF)) & 0xFFFFFFFF
    np.add(key_rows[0], np.uint32(head), first)
    mix[...] = first
    for i in range(2, _N):
        mix_step(mix, mix, i)
    # Mixing row 1's revisit (step 623) reads row 0 = row 623.
    shift(mix, _U32_30, tmp)
    xor(tmp, mix, tmp)
    mul(tmp, mix1, tmp)
    revisit = decay
    xor(first, tmp, revisit)
    np.add(revisit, key_rows[(_N - 1) % width], revisit)
    # Decay rows 2..623 beside a second run of mixing rows 2..623.
    mix[...] = first
    state[1] = revisit
    for i in range(2, _N):
        mix_step(mix, mix, i)
        decay_step(decay, mix, i)
        if i <= span:
            state[i] = decay
        elif _M <= i < _M + span:
            state[span + 1 + i - _M] = decay
    # Decay row 1 reads row 0 = decay row 623; row 0 is then fixed.
    shift(decay, _U32_30, tmp)
    xor(tmp, decay, tmp)
    mul(tmp, mix2, tmp)
    xor(state[1], tmp, state[1])
    np.subtract(state[1], np.uint32(1), state[1])
    state[0] = np.uint32(0x80000000)


def _key_matrix(seeds: _Seeds) -> Tuple["np.ndarray", Dict[int, List[int]]]:
    """The two-word keys of ``seeds`` plus the odd-width columns.

    Returns ``(keys, odd)``: ``keys`` is the ``(2, S)`` u32 key matrix
    (``+ j`` folded) of the ubiquitous 64-bit
    :func:`~repro.sim.rng.derive_seed` outputs, and ``odd`` maps every
    other key width — sub-32-bit seeds, >=2**64 integers — to its
    column indices, which the caller seeds as their own groups (their
    ``keys`` columns hold a placeholder).
    """
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        # The batched derive_ball_seeds path: uniform 64-bit values; the
        # (astronomically rare) sub-2**32 ones form a one-word group.
        seeds_arr = seeds
        small = np.flatnonzero(seeds_arr < np.uint64(2**32)).tolist()
        odd = {1: small} if small else {}
    else:
        odd = {}
        for i, s in enumerate(seeds):
            if not 2**32 <= s < 2**64:
                odd.setdefault(len(_key_words(s)), []).append(i)
        seeds_arr = np.array(
            [s if 2**32 <= s < 2**64 else 2**32 for s in seeds],
            dtype=np.uint64,
        )
    keys = np.empty((2, len(seeds_arr)), dtype=np.uint32)
    keys[0] = (seeds_arr & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    keys[1] = (seeds_arr >> np.uint64(32)).astype(np.uint32) + np.uint32(1)
    return keys, odd


def _odd_keys(seeds: _Seeds, width: int, idx: List[int]) -> "np.ndarray":
    """The ``(width, len(idx))`` folded key matrix of one odd group."""
    keys = np.zeros((width, len(idx)), dtype=np.uint32)
    for col, i in enumerate(idx):
        for j, word in enumerate(_key_words(int(seeds[i]))):
            keys[j, col] = np.uint32((word + j) & 0xFFFFFFFF)
    return keys


def seed_states(seeds: _Seeds) -> "np.ndarray":
    """CPython ``Random(seed)`` states for every seed, as ``(624, S)`` u32.

    The full-state form of the bank's seeding pass, for checking
    ``init_by_array`` against ``random.Random(seed).getstate()``; the
    bank itself never materializes it.
    """
    keys, odd = _key_matrix(seeds)
    mt = np.empty((_N, keys.shape[1]), dtype=np.uint32)
    _mix_group(mt, keys, np.empty(keys.shape[1], dtype=np.uint32))
    for width, idx in sorted(odd.items()):
        group = np.empty((_N, len(idx)), dtype=np.uint32)
        _mix_group(group, _odd_keys(seeds, width, idx), np.empty(len(idx), dtype=np.uint32))
        mt[:, idx] = group
    return mt


def _twist_rows(
    mt: "np.ndarray",
    words: "np.ndarray",
    lo: int,
    hi: int,
    y: "np.ndarray",
    mix_row: int = _M,
) -> None:
    """Untempered next-generation words ``lo..hi`` (exclusive) of state
    ``mt`` into ``words``, given every word below ``lo``.

    Rows below ``N - M`` read only the old state; higher rows also read
    the freshly twisted word ``N - M`` rows back (already produced, as a
    call spans fewer rows), and the final row pairs old word 623 with
    *new* word 0 — the wrap-around of the in-place reference loop.
    ``y`` is u32 scratch of at least ``hi - lo`` rows.  ``mix_row`` is
    where state row ``M`` sits in ``mt`` (a compact state from
    :func:`_mix_compact` keeps it right after rows ``0..hi``).
    """
    while lo < hi:
        if lo < _N - _M:
            top = min(hi, _N - _M)
            cur, nxt = mt[lo:top], mt[lo + 1 : top + 1]
            mixed = mt[lo + mix_row : top + mix_row]
        elif lo < _N - 1:
            top = min(hi, _N - 1)
            cur, nxt = mt[lo:top], mt[lo + 1 : top + 1]
            mixed = words[lo - (_N - _M) : top - (_N - _M)]
        else:
            top = _N
            cur, nxt, mixed = mt[_N - 1 :], words[0:1], words[_M - 1 : _M]
        out = words[lo:top]
        yy = y[: top - lo]
        np.bitwise_and(cur, _U32_UPPER, out=yy)
        np.bitwise_and(nxt, _U32_LOWER, out=out)
        np.bitwise_or(yy, out, out=yy)
        np.right_shift(yy, _U32_ONE, out=out)
        np.bitwise_xor(out, mixed, out=out)
        np.bitwise_and(yy, _U32_ONE, out=yy)
        np.multiply(yy, _U32_MATRIX_A, out=yy)
        np.bitwise_xor(out, yy, out=out)
        lo = top


def _prefix_doubles(
    mt: "np.ndarray",
    words: "np.ndarray",
    tmp: "np.ndarray",
    out: "np.ndarray",
    mix_row: int = _M,
) -> None:
    """The first ``len(out)`` ``random()`` doubles of state ``mt``.

    Twists, tempers and pairs ``TWIST_ROWS`` words per pass, so each
    pass works on cache-resident rows.  CPython's ``random()``:
    ``a = word0 >> 5``, ``b = word1 >> 6``, ``(a * 2**26 + b) / 2**53``
    — exact in float64 by construction.
    """
    y, t, u = tmp
    total = words.shape[0]
    for lo in range(0, total, TWIST_ROWS):
        hi = min(total, lo + TWIST_ROWS)
        rows = hi - lo
        _twist_rows(mt, words, lo, hi, y, mix_row)
        w, tt, uu = words[lo:hi], t[:rows], u[:rows]
        np.right_shift(w, _U32_11, out=tt)
        np.bitwise_xor(tt, w, out=tt)
        np.left_shift(tt, _U32_7, out=uu)
        np.bitwise_and(uu, _U32_TEMPER_B, out=uu)
        np.bitwise_xor(tt, uu, out=tt)
        np.left_shift(tt, _U32_15, out=uu)
        np.bitwise_and(uu, _U32_TEMPER_C, out=uu)
        np.bitwise_xor(tt, uu, out=tt)
        np.right_shift(tt, _U32_18, out=uu)
        np.bitwise_xor(tt, uu, out=tt)
        half = rows // 2
        a, b = uu[:half], uu[half:rows]
        np.right_shift(tt[0::2], _U32_5, out=a)
        np.right_shift(tt[1::2], _U32_6, out=b)
        dst = out[lo // 2 : hi // 2]
        np.multiply(a, 67108864.0, out=dst)
        np.add(dst, b, out=dst)
        np.multiply(dst, 1.0 / 9007199254740992.0, out=dst)


def _fill_prefix(keys: "np.ndarray", out: "np.ndarray") -> Tuple[float, float]:
    """Seed the streams of ``keys`` and write their first ``len(out)``
    doubles into ``out``.  Returns the seconds spent seeding and
    twisting (zeros unless telemetry is on).

    Wide builds run equal chunks of at most ``CHUNK_STREAMS`` columns
    through one full ``(624, C)`` scratch state.  A build narrower than
    one chunk (a memory-shaped crash stack, a small cell) seeds through
    :func:`_mix_compact` instead: one pass over all its columns with
    only the ``4P + 1`` state rows the prefix reads (97 of 624 at
    n=256) for 1.5x the seeding steps — as little scratch as splitting
    it into 1024-column full-state chunks, at about half their time.
    """
    count = keys.shape[1]
    nwords = 2 * out.shape[0]
    compact = (
        count < CHUNK_STREAMS and nwords <= _N - _M and keys.shape[0] <= _N
    )
    chunks = max(1, -(-count // CHUNK_STREAMS))
    width = max(1, -(-count // chunks))
    mt_buf = np.empty((2 * nwords + 1 if compact else _N, width), dtype=np.uint32)
    # Untempered next-generation words (later twist rows read them).
    words_buf = np.empty((nwords, width), dtype=np.uint32)
    tmp_buf = np.empty((3, TWIST_ROWS, width), dtype=np.uint32)
    clock = TIMERS.start
    seeding_s = twist_s = 0.0
    for lo in range(0, count, width):
        hi = min(count, lo + width)
        mt = mt_buf[:, : hi - lo]
        tmp = tmp_buf[:, :, : hi - lo]
        started = clock()
        if compact:
            _mix_compact(mt, keys[:, lo:hi], tmp[0])
        else:
            _mix_group(mt, keys[:, lo:hi], tmp[0, 0])
        seeded = clock()
        _prefix_doubles(
            mt,
            words_buf[:, : hi - lo],
            tmp,
            out[:, lo:hi],
            nwords + 1 if compact else _M,
        )
        seeding_s += seeded - started
        twist_s += clock() - seeded
    return seeding_s, twist_s


class MTStreamBank:
    """The first ``P`` doubles of S independent CPython-MT streams.

    ``draws(idx)`` returns the *next* ``random()`` value of each selected
    stream (``idx`` distinct), advancing only those cursors — exactly
    the consumption pattern of the per-ball walks.  ``P`` is
    ``PREFIX_BLOCKS * block`` (capped at one generation); the prefix is
    generated for all streams at construction, and a stream drawing
    past it continues on a per-stream C generator.
    """

    def __init__(self, seeds: _Seeds, *, block: int = 4) -> None:
        if not HAVE_NUMPY:
            raise RuntimeError("MTStreamBank requires numpy (pip install .[fast])")
        self.prefix = min(DOUBLES_PER_GENERATION, PREFIX_BLOCKS * max(1, int(block)))
        keys, odd = _key_matrix(seeds)
        count = keys.shape[1]
        #: Row ``d`` is every stream's ``d``-th draw.
        self._doubles = np.empty((self.prefix, count), dtype=np.float64)
        self.cursor = np.zeros(count, dtype=np.int64)
        # Kept for the streams that overflow the prefix.
        self._seeds: _Seeds = (
            seeds if isinstance(seeds, np.ndarray) else list(seeds)
        )
        self._tails: Dict[int, Tuple[_MTRandom, List[float]]] = {}
        self._build(keys, odd, self._seeds)

    def _build(
        self, keys: "np.ndarray", odd: Dict[int, List[int]], seeds: _Seeds
    ) -> None:
        timer_started = TIMERS.start()
        count = keys.shape[1]
        stages: List[Tuple[float, float]] = []
        if sum(len(idx) for idx in odd.values()) < count:
            # Two-word common case over every column; odd-width columns
            # are overwritten by their group below (the wasted mixing is
            # cheaper than excising scattered columns first).
            stages += _fanout(
                lambda cols: _fill_prefix(keys[:, cols], self._doubles[:, cols]),
                count,
            )
        for width, idx in sorted(odd.items()):
            group = np.empty((self.prefix, len(idx)), dtype=np.float64)
            stages.append(_fill_prefix(_odd_keys(seeds, width, idx), group))
            self._doubles[:, idx] = group
        # Threads overlap, so the wall time is split between the stages
        # in proportion to the time the workers spent in each.
        TIMERS.split(
            timer_started,
            {
                "seeding": sum(seeding for seeding, _ in stages),
                "twist": sum(twist for _, twist in stages),
            },
        )

    # ------------------------------------------------------------ consumption
    def draws(self, idx: "np.ndarray") -> "np.ndarray":
        """The next double of each stream in ``idx`` (cursors advance)."""
        cur = self.cursor[idx]
        self.cursor[idx] = cur + 1
        if not len(cur) or int(cur.max()) < self.prefix:
            return self._doubles[cur, idx]
        inside = cur < self.prefix
        out = np.empty(len(cur), dtype=np.float64)
        out[inside] = self._doubles[cur[inside], idx[inside]]
        outside = ~inside
        timer_started = TIMERS.start()
        out[outside] = [
            self._overflow(stream, draw)
            for stream, draw in zip(idx[outside].tolist(), cur[outside].tolist())
        ]
        TIMERS.stop("twist", timer_started)
        return out

    def _overflow(self, stream: int, draw: int) -> float:
        """Draw number ``draw >= P`` of ``stream``, from its C generator.

        The generator is the ground truth the prefix reproduces:
        ``random.Random(seed)`` with its first ``P`` doubles (``2P``
        words, one ``getrandbits`` call) skipped.
        """
        tail = self._tails.get(stream)
        if tail is None:
            rng = _MTRandom(int(self._seeds[stream]))
            rng.getrandbits(64 * self.prefix)
            tail = self._tails[stream] = (rng, [])
        rng, values = tail
        while len(values) <= draw - self.prefix:
            values.append(rng.random())
        return values[draw - self.prefix]
