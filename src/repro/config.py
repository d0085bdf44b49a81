"""The process-environment seam: typed readers for every ``REPRO_*`` knob.

Determinism contract: environment variables must never influence
*results* — only wall-clock strategy (thread fanout, stacking floors,
SHA backend choice).  Every knob therefore lives here: one function per
variable, read per call (never cached, so the CLI and tests can set the
environment at any point), with validation and a documented default.

The D105 lint rule (:mod:`repro.lint.rules_determinism`) enforces the
seam: an ``os.environ`` read anywhere else in ``src/`` fails
``repro lint``.  Adding a knob means adding a reader here — which is
exactly the audit point the rule exists to create.

Knobs
-----
``REPRO_VEC_THREADS``
    Thread count for the vectorized kernel's seeding/twist column
    fanout.  Any value is byte-identical (partitioning is by contiguous
    column slices); this is wall-clock hygiene only.
``REPRO_VEC_MAX_STREAMS``
    Stream budget (trials x n) of one stacked vectorized call; bounds
    the resident stream bank (each stream's draw prefix, cursor and
    seed: 256 B per stream at n=1024) and the stacked engine's per-ball
    columns — the n=1024 sweep peaks at ~263 MB for 131072 streams
    (~2 KB per stream).  The bank's construction scratch is per thread,
    not per stream.
``REPRO_VEC_CRASH_MIN_STREAMS``
    Minimum stream count below which a *crash* cell stays on the
    per-trial columnar path (the stacked crash engine's fixed per-round
    costs only amortize across enough streams).  0 = always stack.
``REPRO_SHA256_LANES``
    SHA-256 backend for batched seed derivation: ``on`` forces the
    NumPy lane compiler, ``off`` pins hashlib's scalar path, ``auto``
    (default) currently resolves to scalar (OpenSSL wins on measured
    hardware — see the ``rng_share`` microbench in BENCH_kernel.json).
"""

from __future__ import annotations

import os

from repro.errors import ConfigurationError

#: Stream budget (trials x n) of one stacked vectorized call.
DEFAULT_MAX_STREAMS = 1 << 17

#: Measured crossover floor for stacking crash cells (streams).
DEFAULT_CRASH_MIN_STREAMS = 1 << 10

#: The three recognized SHA-256 lane modes (after normalization).
SHA256_LANE_MODES = ("auto", "on", "off")


def _read(name: str) -> str:
    """The raw knob text, stripped; empty string when unset."""
    # The seam's single environment read (D105 allowlists this module).
    return os.environ.get(name, "").strip()


def _int_knob(name: str, *, default: int, minimum: int) -> int:
    """Parse an integer knob, clamped to ``minimum``; unset -> default."""
    raw = _read(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    return max(minimum, value)


def vec_threads() -> int:
    """Resolved ``REPRO_VEC_THREADS`` (default: CPU count, always >= 1).

    Unparseable text degrades to 1 (the exact serial pass) rather than
    erroring: the knob cannot change results, so a typo should never
    kill a run that a conservative fanout completes correctly.
    """
    raw = _read("REPRO_VEC_THREADS")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            return 1
    return max(1, os.cpu_count() or 1)


def set_vec_threads(threads: int) -> None:
    """Pin the fanout width (the CLI's ``--threads``); validated.

    Writing the environment rather than module state keeps the knob
    visible to worker processes and to every per-pass read site.
    """
    if threads < 1:
        raise ConfigurationError(f"thread count must be >= 1, got {threads}")
    os.environ["REPRO_VEC_THREADS"] = str(threads)


def vec_max_streams() -> int:
    """Resolved ``REPRO_VEC_MAX_STREAMS`` (>= 1; default 2**17)."""
    return _int_knob(
        "REPRO_VEC_MAX_STREAMS", default=DEFAULT_MAX_STREAMS, minimum=1
    )


def crash_min_streams() -> int:
    """Resolved ``REPRO_VEC_CRASH_MIN_STREAMS`` (>= 0; default 2**10)."""
    return _int_knob(
        "REPRO_VEC_CRASH_MIN_STREAMS",
        default=DEFAULT_CRASH_MIN_STREAMS,
        minimum=0,
    )


def sha256_lanes() -> str:
    """Resolved ``REPRO_SHA256_LANES`` mode: ``"auto"``/``"on"``/``"off"``.

    ``1``/``on``/``force`` normalize to ``"on"``; ``0``/``off``/unset
    keep their historical meaning; anything unrecognized is ``"auto"``
    (which resolves to the scalar path) so a typo can only cost speed,
    never correctness — both backends are bit-identical by the
    word-exactness suite.
    """
    raw = _read("REPRO_SHA256_LANES").lower()
    if raw in ("1", "on", "force"):
        return "on"
    if raw in ("0", "off"):
        return "off"
    return "auto"
