"""Tests for cloud profile snapshots."""

import pytest

from repro.cloud.profile import CloudProfile, VMSnapshot, profile_from_vms
from repro.cloud.provider import CloudProvider, ProviderConfig


class TestVMSnapshot:
    def test_booting_and_busy_predicates(self):
        snap = VMSnapshot(vm_id=1, lease_time=0.0, ready_time=120.0, busy_until=500.0)
        assert snap.is_booting(now=60.0)
        assert not snap.is_booting(now=120.0)
        assert snap.is_busy(now=300.0)
        assert not snap.is_busy(now=500.0)

    def test_idle_snapshot(self):
        snap = VMSnapshot(vm_id=1, lease_time=0.0, ready_time=0.0, busy_until=-1.0)
        assert not snap.is_busy(10.0)
        assert not snap.is_booting(10.0)


class TestCapture:
    def test_capture_reflects_fleet_states(self):
        provider = CloudProvider(ProviderConfig(max_vms=10, boot_delay=120.0))
        idle_vm, busy_vm = provider.lease(2, now=0.0)
        provider.boot_complete(idle_vm, 120.0)
        provider.boot_complete(busy_vm, 120.0)
        provider.assign(busy_vm, job_id=7, until=900.0)
        booting_vm = provider.lease(1, now=200.0)[0]

        profile = CloudProfile.capture(provider, now=250.0)
        assert len(profile.vms) == 3
        assert profile.max_vms == 10
        assert profile.boot_delay == 120.0
        assert profile.billing_period == 3_600.0
        assert profile.idle_count() == 1
        assert profile.busy_count() == 1
        assert profile.booting_count() == 1
        busy_snap = next(s for s in profile.vms if s.vm_id == busy_vm.vm_id)
        assert busy_snap.busy_until == 900.0
        boot_snap = next(s for s in profile.vms if s.vm_id == booting_vm.vm_id)
        assert boot_snap.ready_time == 320.0

    def test_capture_uses_custom_billing_period(self):
        provider = CloudProvider(ProviderConfig(billing_period=60.0))
        profile = CloudProfile.capture(provider, now=0.0)
        assert profile.billing_period == 60.0

    def test_profile_from_vms_helper(self):
        snaps = [VMSnapshot(vm_id=0, lease_time=0.0, ready_time=0.0, busy_until=-1.0)]
        profile = profile_from_vms(now=5.0, vms=snaps, max_vms=7)
        assert profile.max_vms == 7
        assert profile.idle_count() == 1


class TestArtifactsRegistry:
    def test_fig_all_covers_every_paper_artifact(self):
        from repro.experiments.fig_all import ARTIFACTS

        assert set(ARTIFACTS) == {
            "table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10",
        }
        assert all(callable(fn) for fn in ARTIFACTS.values())
