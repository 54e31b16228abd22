"""Tests for the configuration layer."""

from __future__ import annotations

import pytest

from repro.config import (
    HostFeatures,
    IoDeviceKind,
    TickMode,
    VmSpec,
)
from repro.errors import ConfigError


class TestVmSpec:
    def test_defaults(self):
        vm = VmSpec()
        assert vm.tick_mode is TickMode.TICKLESS
        assert vm.tick_hz == 250
        assert vm.tick_period_ns == 4_000_000

    def test_pinning_length_checked(self):
        with pytest.raises(ConfigError):
            VmSpec(vcpus=2, pinned_cpus=(0,))

    @pytest.mark.parametrize("kw", [{"vcpus": 0}, {"tick_hz": 0}])
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            VmSpec(**kw)


class TestHostFeatures:
    def test_defaults_match_paper_eval(self):
        """§6: PLE and halt polling disabled."""
        f = HostFeatures()
        assert f.halt_poll_ns == 0
        assert f.paratick_last_tick_heuristic is True

    def test_negative_poll_rejected(self):
        with pytest.raises(ConfigError):
            HostFeatures(halt_poll_ns=-1)


class TestEnums:
    def test_tick_modes(self):
        assert {m.value for m in TickMode} == {"periodic", "tickless", "paratick"}

    def test_device_kinds(self):
        assert {k.value for k in IoDeviceKind} == {"hdd", "sata-ssd", "nvme-ssd"}
