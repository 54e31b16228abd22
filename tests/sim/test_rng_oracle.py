"""Bit-exactness of the stdlib RNG streams against numpy's Generator.

:mod:`repro.sim.rng` promises the draws of numpy's
``Generator(PCG64(SeedSequence(seed, spawn_key)))``. Three checks:

* an oracle run against numpy itself, skipped where numpy is absent;
* SHA-256 digests of the first draws, captured from numpy, which keep
  checking exactness without it;
* a cell run in a fresh interpreter that cannot import numpy, proving
  the package stays stdlib-only.
"""

from __future__ import annotations

import hashlib
import os
import struct
import subprocess
import sys

import pytest

from repro.config import TickMode
from repro.experiments.parallel import RunSpec, WorkloadSpec, execute_spec
from repro.sim.rng import RngStreams

_NOR_R = 3.6541528853610087  # first x of the normal ziggurat's tail
_EXP_R = 7.69711747013105  # first x of the exponential ziggurat's tail

#: Integer spans (high - low): trivial, small, Lemire rejection-heavy
#: (just over 2**31, 3 * 2**30) and the raw 32-bit path (2**32).
SPANS = (1, 2, 3, 7, 1000, 10**9, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32)


def _numpy_stream(np, seed: int, name: str):
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    key = tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)))


class TestNumpyOracle:
    @pytest.mark.parametrize(
        "seed, name",
        [(0, "fio.rndr.4k.offs"), (1, "parsec.dedup.t3"), (7, "fleet.burst"),
         (2**61 + 12_345, "fuzz.scenario"), (2**140 + 3, "x")],
        ids=["seed0", "seed1", "seed7", "seed-2words", "seed-5words"],
    )
    def test_interleaved_draws_match_numpy(self, seed, name):
        np = pytest.importorskip("numpy")
        ours, ref = RngStreams(seed).stream(name), _numpy_stream(np, seed, name)
        tails = [0, 0]
        for k in range(45_000):  # 5 pairs x 45k = 225k draws
            kind = k % 5
            if kind == 0:
                a, b = ours.normal(), ref.normal()
                tails[0] += abs(a) > _NOR_R
            elif kind == 1:
                a, b = ours.exponential(2.5), ref.exponential(2.5)
                tails[1] += a > 2.5 * _EXP_R
            elif kind == 2:
                a, b = ours.normal(-40.0, 0.3), ref.normal(-40.0, 0.3)
            else:
                span = SPANS[(k // 5) % len(SPANS)]
                a, b = ours.integers(-3, span - 3), int(ref.integers(-3, span - 3))
            assert a == b and type(a) is type(b), (k, a, b)
        # Only the ziggurats' idx-0 tails produce values beyond their r.
        assert tails[0] > 0 and tails[1] > 0, tails


#: SHA-256 over the first 10k draws of stream ``pin.<method>``, packed as
#: little-endian doubles (normal(5, 2), exponential(3)) or int64
#: (integers(-7, 1_000_003)); captured from numpy 2.4.6.
PINNED = {
    (0, "normal"): "7deb2d36922f3fd48fa234beeeb31a557be601230f4fe1a3efe29a664c2250f3",
    (0, "exponential"): "5b1495b2af4e6d924d33c0d9ec165d4cce225182b97521378d29c92dc805b84d",
    (0, "integers"): "4401178c0813f80b18e529d771fa0eb4fe1aa9d39d482db947e780920b4cb8f1",
    (1, "normal"): "c4993ae5e4e616c55598d45008994522445591183f88d519ab4faaead5e647dd",
    (1, "exponential"): "1b2a9f54f265a3fc06b10ec2cd0ac7da76b3b4c00f5bd6f5bcd5bf56f18def08",
    (1, "integers"): "d7bdb14e56d8d19afab67d539e033a47b5b14361eb34cb415076e981c11ec5e7",
}


@pytest.mark.parametrize("seed, method", sorted(PINNED), ids=lambda v: str(v))
def test_pinned_digest(seed, method):
    s = RngStreams(seed).stream(f"pin.{method}")
    h = hashlib.sha256()
    for _ in range(10_000):
        if method == "normal":
            h.update(struct.pack("<d", s.normal(5.0, 2.0)))
        elif method == "exponential":
            h.update(struct.pack("<d", s.exponential(3.0)))
        else:
            h.update(struct.pack("<q", s.integers(-7, 1_000_003)))
    assert h.hexdigest() == PINNED[seed, method]


class TestRejectedArguments:
    def test_span_above_32_bits(self):
        with pytest.raises(ValueError):
            RngStreams(0).stream("s").integers(0, 2**32 + 1)

    @pytest.mark.parametrize("high", [5, 4])
    def test_empty_range(self, high):
        with pytest.raises(ValueError):
            RngStreams(0).stream("s").integers(5, high)

    def test_negative_scale(self):
        s = RngStreams(0).stream("s")
        with pytest.raises(ValueError):
            s.normal(0.0, -1.0)
        with pytest.raises(ValueError):
            s.exponential(-1.0)

    def test_negative_seed(self):
        with pytest.raises(ValueError):
            RngStreams(-1).stream("s")


def test_cell_runs_without_numpy():
    # A random-read fio cell draws offsets (integers), device jitter
    # (normal) and noise-daemon sleeps (exponential).
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from repro.config import TickMode\n"
        "from repro.experiments.parallel import RunSpec, WorkloadSpec, execute_spec\n"
        "spec = RunSpec(WorkloadSpec.make('fio', category='rndr', block_size=4096,\n"
        "               total_bytes=256 << 10), tick_mode=TickMode.PARATICK, seed=3)\n"
        "print(repr(execute_spec(spec)))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    spec = RunSpec(WorkloadSpec.make("fio", category="rndr", block_size=4096,
                                     total_bytes=256 << 10), tick_mode=TickMode.PARATICK, seed=3)
    assert out.strip() == repr(execute_spec(spec))
