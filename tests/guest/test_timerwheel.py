"""Unit and property tests for the hierarchical timer wheel."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GuestError
from repro.guest.timerwheel import TimerWheel


class TestBasics:
    def test_empty(self):
        w = TimerWheel()
        assert len(w) == 0
        assert w.next_expiry() is None
        assert w.advance_to(1000) == []

    def test_fire_at_expiry(self):
        w = TimerWheel()
        fired = []
        w.add(5, lambda: fired.append(5))
        out = w.advance_to(10)
        assert [t.expires_jiffies for t in out] == [5]
        for t in out:
            t.callback()
        assert fired == [5]
        assert len(w) == 0

    def test_past_expiry_fires_next_jiffy(self):
        w = TimerWheel(start_jiffies=100)
        t = w.add(50, lambda: None)  # already past
        assert t.expires_jiffies == 101
        assert [x.expires_jiffies for x in w.advance_to(101)] == [101]

    def test_cannot_run_backwards(self):
        w = TimerWheel(start_jiffies=10)
        with pytest.raises(GuestError):
            w.advance_to(5)

    def test_next_expiry_scans_levels(self):
        w = TimerWheel()
        w.add(100_000, lambda: None)  # deep level
        w.add(3, lambda: None)
        assert w.next_expiry() == 3

    def test_fire_order_across_levels(self):
        w = TimerWheel()
        expiries = [1, 63, 64, 65, 4096, 5000, 262144]
        for e in expiries:
            w.add(e, lambda: None)
        out = w.advance_to(300_000)
        assert [t.expires_jiffies for t in out] == sorted(expiries)

    def test_long_range_timer_cascades_correctly(self):
        """A timer far in the future fires exactly at its jiffy."""
        w = TimerWheel()
        w.add(1_000_000, lambda: None, name="far")
        assert w.advance_to(999_999) == []
        out = w.advance_to(1_000_000)
        assert len(out) == 1 and out[0].expires_jiffies == 1_000_000


class TestProperties:
    @given(deltas=st.lists(st.integers(min_value=1, max_value=200_000), min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_every_timer_fires_exactly_at_expiry(self, deltas):
        """The wheel never fires early and, with per-jiffy stepping,
        never later than the expiry jiffy."""
        w = TimerWheel()
        fired: dict[int, int] = {}

        def make_cb(idx):
            return lambda: None

        expiries = []
        for i, d in enumerate(deltas):
            t = w.add(d, make_cb(i), name=str(i))
            expiries.append(t.expires_jiffies)
        horizon = max(expiries)
        seen = []
        for t in w.advance_to(horizon):
            assert t.expires_jiffies <= w.current_jiffies
            seen.append(t.expires_jiffies)
        assert sorted(seen) == sorted(expiries)
        assert len(w) == 0

    @given(
        start=st.integers(min_value=0, max_value=10**6),
        deltas=st.lists(st.integers(min_value=1, max_value=100_000), min_size=1, max_size=40),
    )
    @settings(max_examples=30, deadline=None)
    def test_firing_time_equals_expiry_even_with_offset_start(self, start, deltas):
        w = TimerWheel(start_jiffies=start)
        handles = [w.add(start + d, lambda: None) for d in deltas]
        by_expiry: dict[int, int] = {}
        cur = start
        horizon = max(t.expires_jiffies for t in handles)
        while cur < horizon:
            cur = min(cur + 1, horizon)
            for t in w.advance_to(cur):
                by_expiry.setdefault(t.expires_jiffies, cur)
        for t in handles:
            assert by_expiry[t.expires_jiffies] == t.expires_jiffies


def _landing(added_at: int, seq: int, expiry: int) -> tuple:
    """Where the cascade leaves a timer, as a sort key for same-jiffy ties.

    A timer sits in the level its distance to expiry selects. When that
    level's slot boundary is crossed, the timer is re-placed (cascaded)
    one or more levels down, until it lands in the bucket drained on its
    expiry jiffy. That jiffy drains level 0 first, then each higher level
    whose boundary it is; inside a bucket, timers keep arrival order, and
    cascades within a step come before adds made at that jiffy. The key
    is ``(final level, arrival)``, where ``arrival`` nests back to the add.
    """
    bits = TimerWheel.LVL_BITS
    arrival: tuple = (added_at, 1, seq)
    now = added_at
    while True:
        level, span = 0, TimerWheel.LVL_SIZE
        while expiry - now >= span and level < TimerWheel.LEVELS - 1:
            level += 1
            span <<= bits
        boundary = expiry >> (level * bits) << (level * bits)
        if level == 0 or boundary == expiry:
            return (level, arrival)
        arrival = (boundary, 0, level, arrival)
        now = boundary


class SortedListWheel:
    """Naive oracle: one flat table of live timers, fired by a sorted scan."""

    def __init__(self) -> None:
        self.now = 0
        self.live: dict[int, tuple[int, str, tuple]] = {}  # handle id -> (expiry, name, key)
        self.seq = 0

    def add(self, expiry: int, name: str) -> None:
        expiry = max(expiry, self.now + 1)
        self.seq += 1
        self.live[self.seq] = (expiry, name, _landing(self.now, self.seq, expiry))

    def advance_to(self, jiffies: int) -> list[tuple[int, str]]:
        self.now = jiffies
        due = sorted((v for v in self.live.values() if v[0] <= jiffies), key=lambda v: (v[0], v[2]))
        self.live = {h: v for h, v in self.live.items() if v[0] > jiffies}
        return [(e, name) for e, name, _ in due]

    def next_expiry(self):
        return min((e for e, _, _ in self.live.values()), default=None)

    def __len__(self) -> int:
        return len(self.live)


#: Expiry offsets that make ties and level boundaries likely: the same
#: jiffy from different adds, past-due adds, and slots beyond level 0.
_OFFSETS = st.one_of(
    st.integers(min_value=-3, max_value=70),
    st.sampled_from([63, 64, 65, 128, 4095, 4096, 4097, 8192]),
    st.integers(min_value=71, max_value=20_000),
)
#: Absolute expiries shared by adds made at different jiffies, so one
#: jiffy collects timers that arrived at different levels.
_TARGETS = st.sampled_from([5, 63, 64, 65, 128, 130, 4096, 4160, 8192])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _OFFSETS, st.sampled_from("abc")),
        st.tuples(st.just("at"), _TARGETS, st.sampled_from("xyz")),
        st.tuples(st.just("advance"), st.one_of(st.integers(0, 70), st.sampled_from([64, 4096]))),
        st.tuples(st.just("next"),),
    ),
    max_size=60,
)


class TestOracle:
    @given(ops=_OPS, flush=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_sorted_list_model(self, ops, flush):
        """Random add/advance/next_expiry interleavings fire the same
        timers, in the same order, as the naive model."""
        wheel, model = TimerWheel(), SortedListWheel()
        for op in ops:
            if op[0] in ("add", "at"):
                _, at, name = op
                exp = wheel.current_jiffies + at if op[0] == "add" else at
                wheel.add(exp, lambda: None, name=name)
                model.add(exp, name)
            elif op[0] == "advance":
                to = wheel.current_jiffies + op[1]
                got = [(t.expires_jiffies, t.name) for t in wheel.advance_to(to)]
                assert got == model.advance_to(to)
            elif op[0] == "next":
                assert wheel.next_expiry() == model.next_expiry()
            assert len(wheel) == len(model)
        if flush and len(model):
            to = model.next_expiry() + 20_000
            got = [(t.expires_jiffies, t.name) for t in wheel.advance_to(to)]
            assert got == model.advance_to(to)
        assert wheel.next_expiry() == model.next_expiry()
        assert len(wheel) == len(model)

    def test_cascade_tie_fires_level0_arrival_first(self):
        """Same jiffy, different levels: the timer added later, straight
        into level 0, fires before the earlier one still in level 1,
        because a step drains level 0 first."""
        w = TimerWheel()
        w.add(64, lambda: None, name="early-add")  # level 1 at j0
        w.advance_to(10)
        w.add(64, lambda: None, name="late-add")  # level 0 at j10
        assert [t.name for t in w.advance_to(64)] == ["late-add", "early-add"]


class TestSparsity:
    def test_fresh_wheel_holds_no_bucket(self):
        assert not TimerWheel()._buckets

    def test_drained_wheel_holds_no_bucket(self):
        w = TimerWheel()
        for e in (3, 64, 700, 5000, 300_000):
            w.add(e, lambda: None)
        assert w._buckets
        w.advance_to(300_001)
        assert len(w) == 0
        assert not w._buckets
