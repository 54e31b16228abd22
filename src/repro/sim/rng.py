"""Deterministic, named random-number streams.

Every stochastic component draws from its own stream derived from
``(root_seed, stream_name)``. This gives two properties the experiments
rely on:

* **bit-reproducibility** — the same seed always produces the same run;
* **stream independence** — adding a new noise source (a new stream name)
  does not perturb the draws seen by existing components, so A/B
  comparisons between tick modes share identical workload randomness.
"""

from __future__ import annotations

import hashlib

import numpy as np


class RngStreams:
    """Factory and cache of named :class:`numpy.random.Generator` streams."""

    def __init__(self, root_seed: int = 0):
        if not isinstance(root_seed, int):
            raise TypeError(f"root seed must be an int, got {type(root_seed).__name__}")
        self.root_seed = root_seed
        self._streams: dict[str, np.random.Generator] = {}

    @staticmethod
    def _derive(root_seed: int, name: str) -> np.random.SeedSequence:
        # Hash the stream name to integers so the derivation is stable
        # across Python versions (str hashing is salted, hashlib is not).
        digest = hashlib.sha256(name.encode("utf-8")).digest()
        words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
        return np.random.SeedSequence(entropy=root_seed, spawn_key=tuple(words))

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.Generator(np.random.PCG64(self._derive(self.root_seed, name)))
            self._streams[name] = gen
        return gen

    def exponential_ns(self, name: str, mean_ns: float) -> int:
        """One exponential draw in integer ns (>= 1) from stream ``name``."""
        if mean_ns <= 0:
            raise ValueError(f"mean must be positive, got {mean_ns}")
        return max(1, int(self.stream(name).exponential(mean_ns)))

    def normal_ns(self, name: str, mean_ns: float, sd_ns: float) -> int:
        """One truncated-at-1ns normal draw in integer ns."""
        return max(1, int(self.stream(name).normal(mean_ns, sd_ns)))

    def names(self) -> list[str]:
        """Names of the streams instantiated so far (sorted)."""
        return sorted(self._streams)
