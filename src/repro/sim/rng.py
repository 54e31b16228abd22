"""Deterministic, named random-number streams.

Every stochastic component draws from its own stream derived from
``(root_seed, stream_name)``. This gives two properties the experiments
rely on:

* **bit-reproducibility** — the same seed always produces the same run;
* **stream independence** — adding a new noise source (a new stream name)
  does not perturb the draws seen by existing components, so A/B
  comparisons between tick modes share identical workload randomness.

Bit-exactness contract: a stream is a pure-stdlib reimplementation of
NumPy's ``Generator(PCG64(SeedSequence(entropy=root_seed,
spawn_key=<first 4 little-endian uint32 words of sha256(name)>)))`` and
returns the very same doubles and integers, draw for draw, from its three
methods: ``normal(loc, scale)``, ``exponential(scale)`` and
``integers(low, high)`` for spans up to 2**32. Checked against NumPy
2.4.6 by ``tests/sim/test_rng_oracle.py`` (which also pins digests of the
first draws, so exactness is checked where NumPy is absent). The pieces:

* ``SeedSequence`` with pool size 4 (hashmix/mix; the run entropy is
  zero-padded to the pool size because a spawn key follows it), whose
  ``generate_state(4, uint64)`` seeds PCG64 through
  ``pcg_setseq_128_srandom_r``;
* PCG64: a 128-bit LCG stepped before each output, XSL-RR output;
  ``next_uint32`` hands out the low half of a fresh 64-bit output and
  buffers the high half for the next 32-bit request (64-bit draws leave
  the buffer alone, which is what keeps interleaved draws in step);
* NumPy's 256-layer ziggurats for the standard normal and exponential
  (tables in :mod:`repro.sim._ziggurat`) and Lemire's rejection method on
  32-bit words for ``integers``.

``math.exp`` and ``math.log1p`` call the same C library as NumPy.
"""

from __future__ import annotations

import hashlib
import math

from repro.sim._ziggurat import FE, FI, KE, KI, WE, WI

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1

# NumPy's SeedSequence constants (bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Ziggurat tail constants (distributions.c / ziggurat_constants.h).
_NOR_R = 3.6541528853610087963519472518
_NOR_INV_R = 0.27366123732975827203338247596
_EXP_R = 7.69711747013104971
_DOUBLE_UNIT = 1.0 / 9007199254740992.0


def _uint32_words(n: int) -> list[int]:
    """``n`` as little-endian uint32 words (NumPy's ``_int_to_uint32_array``)."""
    if n < 0:
        raise ValueError(f"seed must be non-negative, got {n}")
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def _seed_sequence_state(entropy: list[int]) -> list[int]:
    """``SeedSequence.generate_state(4, uint64)`` of an assembled entropy array."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * hash_const) & _M32
        state.append(value ^ (value >> 16))
    return [state[i] | (state[i + 1] << 32) for i in range(0, len(state), 2)]


class RngStream:
    """One PCG64 stream drawing exactly what NumPy's ``Generator`` would."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, root_seed: int, spawn_key: list[int]):
        run_entropy = _uint32_words(root_seed)
        run_entropy += [0] * (_POOL_SIZE - len(run_entropy))
        v = _seed_sequence_state(run_entropy + spawn_key)
        initstate = (v[0] << 64) | v[1]
        initseq = (v[2] << 64) | v[3]
        self._inc = ((initseq << 1) | 1) & _M128
        state = (self._inc + initstate) & _M128
        self._state = (state * _PCG_MULT + self._inc) & _M128
        self._half: int | None = None  # buffered high half for next_uint32

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        v = ((s >> 64) ^ s) & _M64
        rot = s >> 122
        return ((v >> rot) | (v << (64 - rot))) & _M64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        r = self._next64()
        self._half = r >> 32
        return r & _M32

    def _next_double(self) -> float:
        return (self._next64() >> 11) * _DOUBLE_UNIT

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        """One draw from N(loc, scale**2)."""
        if scale < 0:
            raise ValueError("scale < 0")
        while True:
            r = self._next64()
            idx = r & 0xFF
            r >>= 8
            rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
            x = rabs * WI[idx]
            if r & 1:
                x = -x
            if rabs < KI[idx]:
                break
            if idx == 0:
                while True:
                    xx = -_NOR_INV_R * math.log1p(-self._next_double())
                    yy = -math.log1p(-self._next_double())
                    if yy + yy > xx * xx:
                        x = -(_NOR_R + xx) if (rabs >> 8) & 1 else _NOR_R + xx
                        break
                break
            if (FI[idx - 1] - FI[idx]) * self._next_double() + FI[idx] < math.exp(-0.5 * x * x):
                break
        return loc + scale * x

    def exponential(self, scale: float = 1.0) -> float:
        """One draw from the exponential distribution with mean ``scale``."""
        if scale < 0:
            raise ValueError("scale < 0")
        while True:
            ri = self._next64() >> 3
            idx = ri & 0xFF
            ri >>= 8
            x = ri * WE[idx]
            if ri < KE[idx]:
                break
            if idx == 0:
                x = _EXP_R - math.log1p(-self._next_double())
                break
            if (FE[idx - 1] - FE[idx]) * self._next_double() + FE[idx] < math.exp(-x):
                break
        return scale * x

    def integers(self, low: int, high: int) -> int:
        """One uniform integer in ``[low, high)``; the span may be at most 2**32."""
        span = high - low
        if span <= 0:
            raise ValueError("low >= high")
        if span > 1 << 32:
            raise ValueError(f"span {span} exceeds 2**32")
        if span == 1:
            return low
        if span == 1 << 32:
            return low + self._next32()
        m = self._next32() * span
        if (m & _M32) < span:
            threshold = (1 << 32) % span
            while (m & _M32) < threshold:
                m = self._next32() * span
        return low + (m >> 32)


class RngStreams:
    """Factory and cache of named :class:`RngStream` streams."""

    def __init__(self, root_seed: int = 0):
        if not isinstance(root_seed, int):
            raise TypeError(f"root seed must be an int, got {type(root_seed).__name__}")
        self.root_seed = root_seed
        self._streams: dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """Return the stream for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            # Hash the stream name to integers so the derivation is stable
            # across Python versions (str hashing is salted, hashlib is not).
            digest = hashlib.sha256(name.encode("utf-8")).digest()
            words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
            gen = RngStream(self.root_seed, words)
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
