"""Focused tests for the deterministic RNG streams."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.rng import RngStreams


class TestStreams:
    def test_same_name_same_stream_object(self):
        r = RngStreams(1)
        assert r.stream("a") is r.stream("a")

    def test_different_names_independent(self):
        r1, r2 = RngStreams(5), RngStreams(5)
        # Drawing heavily from "x" must not perturb "y".
        r1.stream("x").random(10_000)
        a = r1.stream("y").integers(0, 10**9, 100).tolist()
        b = r2.stream("y").integers(0, 10**9, 100).tolist()
        assert a == b

    def test_seed_type_checked(self):
        with pytest.raises(TypeError):
            RngStreams("not an int")  # type: ignore[arg-type]

    def test_names_listing(self):
        r = RngStreams(0)
        r.stream("b")
        r.stream("a")
        assert r.names() == ["a", "b"]

    def test_exponential_validation(self):
        with pytest.raises(ValueError):
            RngStreams(0).exponential_ns("s", 0)

    @given(mean=st.floats(min_value=1, max_value=1e9))
    @settings(max_examples=30)
    def test_property_draws_positive(self, mean):
        r = RngStreams(0)
        assert r.exponential_ns("e", mean) >= 1
        assert r.normal_ns("n", mean, mean) >= 1

    def test_exponential_mean_statistical(self):
        r = RngStreams(11)
        n = 20_000
        xs = [r.exponential_ns("m", 1000.0) for _ in range(n)]
        assert sum(xs) / n == pytest.approx(1000.0, rel=0.05)
