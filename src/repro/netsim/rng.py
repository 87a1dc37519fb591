"""Deterministic named random streams.

Everything random in the simulation draws from a stream derived from a
root seed and a stable string key, so simulations are reproducible
across runs and processes (``random.Random(str)`` seeds via SHA-512,
which is stable — unlike built-in ``hash``).

Per-(entity, day) streams decouple the day-level snapshot fast path
from the event-driven fine-grained path: both ask for the same stream
and therefore see the same presence decisions.
"""

from __future__ import annotations

import random
from typing import Dict


class RngStreams:
    """A factory of deterministic, independent random streams."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._cache: Dict[str, random.Random] = {}

    def stream(self, *key_parts: object) -> random.Random:
        """A persistent stream for a key; same key -> same stream object."""
        key = self._key(key_parts)
        stream = self._cache.get(key)
        if stream is None:
            stream = random.Random(key)
            self._cache[key] = stream
        return stream

    def fresh(self, *key_parts: object) -> random.Random:
        """A newly-seeded throwaway stream for a key.

        Unlike :meth:`stream`, repeated calls with the same key restart
        the sequence — this is what per-(device, day) decisions use so
        that any caller, in any order, sees identical draws.
        """
        return random.Random(self._key(key_parts))

    def _key(self, key_parts: tuple) -> str:
        return ":".join((str(self.seed), *map(str, key_parts)))
