"""The vectorized MT19937 bank against CPython's ``random.Random``.

Everything downstream (the trial-stacked kernel's differential identity)
rests on :class:`repro.core.mt19937.MTStreamBank` reproducing CPython's
generator bit for bit: seeding (``init_by_array`` over the seed's 32-bit
words), the twist, the tempering, and the two-word double assembly.
These tests pin each of those against the C implementation directly.

The whole module skips when NumPy is absent (the bank is part of the
``.[fast]`` extra); the no-NumPy CI leg instead asserts the fallback
behavior in ``test_vectorized_equivalence.py``.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from repro.core.mt19937 import HAVE_NUMPY

if not HAVE_NUMPY:
    pytest.skip("numpy not installed (the .[fast] extra)", allow_module_level=True)

import numpy as np

import repro.core.mt19937 as mt19937
from repro.core.mt19937 import (
    DOUBLES_PER_GENERATION,
    PREFIX_BLOCKS,
    MTStreamBank,
    seed_states,
)
from repro.core.vectorized import derive_ball_seeds
from repro.ids import sparse_ids, string_ids
from repro.sim.rng import derive_seed

#: Seed shapes with different key-word counts: tiny (1-word key, scalar
#: fallback), boundary values, typical 64-bit derive_seed outputs, and a
#: 3-word key (also the scalar fallback).
SEED_SHAPES = [
    0,
    1,
    3,
    12345,
    2**31,
    2**32 - 1,
    2**32,
    2**32 + 1,
    2**40 + 7,
    2**63 + 11,
    2**64 - 1,
    2**64,
    2**64 + 99,
    98765432101234567,
]


class TestSeedStates:
    def test_states_match_cpython_for_every_seed_shape(self):
        states = seed_states(SEED_SHAPES)
        for column, seed in enumerate(SEED_SHAPES):
            expected = random.Random(seed).getstate()[1][:-1]
            assert states[:, column].tolist() == list(expected), seed

    def test_uint64_array_input_matches_list_input(self):
        seeds = [2**32, 2**40 + 7, 7, 2**63 + 1]
        as_array = seed_states(np.array(seeds, dtype=np.uint64))
        as_list = seed_states(seeds)
        assert (as_array == as_list).all()


class TestStreamBank:
    def test_sequential_draws_match_random_random(self):
        bank = MTStreamBank(SEED_SHAPES)
        refs = [random.Random(seed) for seed in SEED_SHAPES]
        everyone = np.arange(len(SEED_SHAPES))
        for _ in range(50):
            got = bank.draws(everyone)
            for i, ref in enumerate(refs):
                assert got[i] == ref.random()

    def test_interleaved_uneven_consumption(self):
        """Streams advance independently, like per-ball walk draws."""
        seeds = SEED_SHAPES[:7]
        bank = MTStreamBank(seeds, block=3)
        refs = [random.Random(seed) for seed in seeds]
        chooser = random.Random(42)
        for _ in range(500):
            picked = sorted(chooser.sample(range(len(seeds)), chooser.randint(1, len(seeds))))
            got = bank.draws(np.array(picked))
            for value, i in zip(got, picked):
                assert value == refs[i].random()

    def test_generation_rollover_stays_identical(self):
        """> 312 doubles per stream forces full twists of the state."""
        seeds = [2**40 + 1, 5, derive_seed(9, "ball", 10097)]
        bank = MTStreamBank(seeds, block=16)
        refs = [random.Random(seed) for seed in seeds]
        everyone = np.arange(len(seeds))
        for _ in range(2 * DOUBLES_PER_GENERATION + 100):
            got = bank.draws(everyone)
            for i, ref in enumerate(refs):
                assert got[i] == ref.random()

    def test_empty_index_is_a_noop(self):
        bank = MTStreamBank([2**40 + 1])
        assert bank.draws(np.array([], dtype=np.int64)).size == 0
        assert bank.draws(np.array([0]))[0] == random.Random(2**40 + 1).random()


def _assert_matches(bank, seeds, draws):
    """``draws`` lock-step draws of every stream equal ``random.Random``."""
    refs = [random.Random(seed) for seed in seeds]
    everyone = np.arange(len(seeds))
    for k in range(draws):
        got = bank.draws(everyone).tolist()
        assert got == [ref.random() for ref in refs], f"draw {k}"


class TestPrefixAndOverflow:
    """The bank keeps a ``P``-double prefix; later draws are the fallback's."""

    SEEDS = [5, 2**40 + 1, derive_seed(9, "ball", 10097), 2**64 + 3]

    @pytest.mark.parametrize("min_prefix", [1, 30, 114, 228, 312])
    def test_every_cursor_through_draw_700(self, min_prefix):
        """Covers P-1, P, P+1 for prefixes whose 2P twisted words stop
        before, and run past, the N - M = 227 and 2(N - M) = 454 row
        boundaries and the whole generation (P = 312), then the rollover
        at 311/312/313 and draw 700."""
        block = -(-min_prefix // PREFIX_BLOCKS)
        bank = MTStreamBank(self.SEEDS, block=block)
        assert bank.prefix == min(DOUBLES_PER_GENERATION, PREFIX_BLOCKS * block)
        assert bank.prefix >= min_prefix
        _assert_matches(bank, self.SEEDS, 702)

    def test_one_call_mixes_overflowing_and_prefix_streams(self):
        seeds = self.SEEDS
        bank = MTStreamBank(seeds, block=2)
        refs = [random.Random(seed) for seed in seeds]
        ahead = bank.prefix + 5
        for _ in range(ahead):  # stream 0 runs past the prefix alone
            assert bank.draws(np.array([0]))[0] == refs[0].random()
        for _ in range(bank.prefix - 1):  # stream 1 stops just inside it
            assert bank.draws(np.array([1]))[0] == refs[1].random()
        for _ in range(4):  # 0 overflows, 1 crosses P, 2 and 3 start
            got = bank.draws(np.array([0, 1, 2, 3])).tolist()
            assert got == [ref.random() for ref in refs]
        assert bank.cursor.tolist() == [ahead + 4, bank.prefix + 3, 4, 4]

    def test_odd_width_seeds_on_chunk_edges(self, monkeypatch):
        """Sub-2**32 and >=2**64 keys seed as their own groups; placed on
        both sides of every 4-column chunk boundary."""
        monkeypatch.setattr(mt19937, "CHUNK_STREAMS", 4)
        common = [derive_seed(1, "ball", k) for k in range(12)]
        odd = [0, 7, 2**32 - 1, 2**64, 2**64 + 99, 2**96 + 5]
        seeds = list(common)
        for edge, seed in zip((0, 3, 4, 7, 8, 11), odd):
            seeds[edge] = seed
        bank = MTStreamBank(seeds, block=3)
        _assert_matches(bank, seeds, bank.prefix + 3)

    def test_thread_counts_are_byte_identical(self, monkeypatch):
        monkeypatch.setattr(mt19937, "CHUNK_STREAMS", 8)
        monkeypatch.setattr(mt19937, "MIN_STREAMS_PER_THREAD", 8)
        seeds = derive_ball_seeds(list(range(5)), sparse_ids(9))
        banks = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("REPRO_VEC_THREADS", threads)
            banks[threads] = MTStreamBank(seeds, block=4)
        assert banks["1"]._doubles.tobytes() == banks["2"]._doubles.tobytes()
        _assert_matches(banks["2"], seeds.tolist(), banks["2"].prefix + 2)


    @pytest.mark.parametrize("block", [1, 8, 37, 38])
    def test_compact_and_full_state_seeding_agree(self, monkeypatch, block):
        """Builds narrower than a chunk seed through the compact state
        (prefixes up to N - M = 227 words: block 37 is the last); wider
        ones through the full state.  Both give the same prefix."""
        seeds = derive_ball_seeds(list(range(3)), sparse_ids(11))
        seeds = seeds.tolist() + [0, 2**32 - 1, 2**64 + 3]
        compact = MTStreamBank(seeds, block=block)
        monkeypatch.setattr(mt19937, "CHUNK_STREAMS", 4)
        full = MTStreamBank(seeds, block=block)
        assert compact._doubles.tobytes() == full._doubles.tobytes()
        _assert_matches(compact, seeds, compact.prefix + 2)


class TestMemoryContract:
    """Only the prefix, the cursors and the seeds outlive construction."""

    def test_narrow_build_keeps_only_the_prefix_rows(self, monkeypatch):
        """A build narrower than one chunk holds ``4P + 1`` state rows
        per column while seeding, not 624."""
        monkeypatch.setenv("REPRO_VEC_THREADS", "1")
        seeds = derive_ball_seeds(list(range(8)), sparse_ids(512))
        S = len(seeds)
        mt19937._base_state()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            bank = MTStreamBank(seeds, block=8)
            P = bank.prefix
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        state = (4 * P + 1 + 2 * P + 3 * mt19937.TWIST_ROWS) * 4 * S
        slack = 256 * 1024
        assert peak <= S * (8 * P + 16) + state + 8 * S + slack
        assert peak < 624 * 4 * S  # one full-state scratch alone

    def test_bank_holds_no_state_and_frees_its_scratch(self, monkeypatch):
        monkeypatch.setenv("REPRO_VEC_THREADS", "1")
        chunk = 512
        monkeypatch.setattr(mt19937, "CHUNK_STREAMS", chunk)
        seeds = derive_ball_seeds(list(range(8)), sparse_ids(512))
        S = len(seeds)
        mt19937._base_state()  # the module's one permanent table
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            bank = MTStreamBank(seeds, block=10)
            P = bank.prefix
            after, peak = tracemalloc.get_traced_memory()
            arrays = [v for v in vars(bank).values() if isinstance(v, np.ndarray)]
            assert all(a.shape[0] != 624 for a in arrays)
            assert sum(a.nbytes for a in arrays) <= S * (8 * P + 16)
            scratch = (624 + 2 * P + 3 * mt19937.TWIST_ROWS) * 4 * chunk
            # Row views, scalar tables, the key temporaries.
            slack = 256 * 1024
            assert after - before <= S * (8 * P + 16) + slack
            # Building adds one chunk scratch and the (2, S) u32 keys.
            assert peak - before <= S * (8 * P + 16) + scratch + 8 * S + slack
            del bank, arrays
            gc.collect()
            # A surviving (624, S) state would be 8 MB here.
            assert tracemalloc.get_traced_memory()[0] - before <= slack
        finally:
            tracemalloc.stop()


class TestDeriveBallSeeds:
    @pytest.mark.parametrize("labels", [sparse_ids(9), string_ids(5), [3, -1, "x"]])
    def test_matches_derive_seed_exactly(self, labels):
        labels = sorted(labels, key=repr) if any(
            isinstance(label, str) for label in labels
        ) else sorted(labels)
        trial_seeds = [0, 7, 100_003, 2**40 + 5]
        got = derive_ball_seeds(trial_seeds, labels)
        expected = [
            derive_seed(seed, "ball", label)
            for seed in trial_seeds
            for label in labels
        ]
        assert got.tolist() == expected

    def test_streams_seeded_from_derived_seeds_match_engines(self):
        """End to end: bank draws equal the per-ball derive_rng draws."""
        from repro.sim.rng import derive_rng

        labels = sparse_ids(6)
        seeds = derive_ball_seeds([11, 12], labels)
        bank = MTStreamBank(seeds)
        everyone = np.arange(len(seeds))
        refs = [
            derive_rng(trial_seed, "ball", label)
            for trial_seed in (11, 12)
            for label in labels
        ]
        for _ in range(20):
            got = bank.draws(everyone)
            for i, ref in enumerate(refs):
                assert got[i] == ref.random()
