"""Deterministic random stream derivation.

All randomness in the package flows through Philox, a counter-based
generator, keyed by small integer tuples. Two processes that derive a
stream from the same key produce bit-identical draws, which is what makes
repeated runs reproduce checkpoints exactly and lets Monte Carlo sampling
shard deterministically.
"""

import numpy as np

from srat.errors import DomainError


def _components(key):
    for k in key:
        if isinstance(k, (tuple, list)):
            yield from _components(k)
        else:
            yield int(k)


def derive_rng(*key) -> np.random.Generator:
    """Return a Generator on a Philox stream addressed by ``key``.

    Keys are tuples of non-negative integers, e.g. ``(seed, stream_tag,
    epoch, batch)``. Distinct keys give statistically independent streams.
    A tuple or list component is spliced in place, so a stream key can be
    extended: ``derive_rng((seed, tag), start)`` is
    ``derive_rng(seed, tag, start)``.
    """
    parts = list(_components(key))
    if not parts:
        raise DomainError("derive_rng requires at least one key component")
    for k in parts:
        if k < 0:
            raise DomainError(f"rng key components must be non-negative, got {k}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(parts)))
