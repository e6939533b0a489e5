"""Seeded random-number plumbing.

Every stochastic component in the library accepts either an integer seed, an
existing :class:`random.Random`, or ``None`` (fresh nondeterministic state).
:func:`ensure_rng` normalises those three forms so call sites stay one line.

A dedicated helper :func:`spawn` derives an independent child generator from a
parent, so that e.g. topology generation and workload generation driven by the
same experiment seed do not interleave draws (adding a draw to one would
otherwise perturb the other).
"""

from __future__ import annotations

import random
from typing import Union

RngLike = Union[int, random.Random, None]


def ensure_rng(seed: RngLike = None) -> random.Random:
    """Return a ``random.Random`` for *seed*.

    ``seed`` may be an ``int`` (seeds a fresh generator), an existing
    ``random.Random`` (returned as-is), or ``None`` (fresh, OS-seeded).
    """
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def spawn(rng: random.Random, label: str) -> random.Random:
    """Derive an independent child generator from *rng*, keyed by *label*.

    The child's seed is drawn from the parent, mixed with a stable hash of
    ``label`` so distinct labels yield distinct streams even when called in
    a different order across versions.
    """
    base = rng.getrandbits(64)
    mix = _stable_hash(label)
    return random.Random(base ^ mix)


def uniform_draws(rng: random.Random, count: int):
    """The next *count* values of ``rng.random()`` as a float array, bit for bit,
    leaving *rng* where *count* calls would: ``random()`` is ``((a >> 5) * 2**26
    + (b >> 6)) / 2**53`` over two successive 32-bit Mersenne-Twister outputs,
    and ``getrandbits(64 * count)`` is those outputs, least significant first."""
    import numpy as np

    raw = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
    words = np.frombuffer(raw, dtype="<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0


def _stable_hash(text: str) -> int:
    """A process-independent 64-bit FNV-1a hash of *text*.

    ``hash()`` is salted per process for strings, which would break
    reproducibility across runs; FNV-1a is stable.
    """
    value = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value
