"""Tests for cloud profile snapshots."""

import pytest

from repro.cloud.profile import CloudProfile, VMSnapshot, profile_from_vms
from repro.cloud.provider import CloudProvider, ProviderConfig


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
        # A VM boots while ``now < ready_time`` and is busy while
        # ``busy_until > now``; the capture writes -1 for a VM not busy.
        snaps = {s.vm_id: (s.ready_time, s.busy_until) for s in profile.vms}
        assert snaps == {
            idle_vm.vm_id: (120.0, -1.0),
            busy_vm.vm_id: (120.0, 900.0),
            booting_vm.vm_id: (320.0, -1.0),
        }

    def test_capture_uses_custom_billing_period(self):
        provider = CloudProvider(ProviderConfig(billing_period=60.0))
        profile = CloudProfile.capture(provider, now=0.0)
        assert profile.billing_period == 60.0

    def test_profile_from_vms_helper(self):
        snaps = [VMSnapshot(vm_id=0, lease_time=0.0, ready_time=0.0, busy_until=-1.0)]
        profile = profile_from_vms(now=5.0, vms=snaps, max_vms=7)
        assert profile.max_vms == 7
        assert profile.vms == tuple(snaps)
        assert profile.vms[0].ready_time <= profile.now
        assert profile.vms[0].busy_until == -1.0


class TestArtifactsRegistry:
    def test_fig_all_covers_every_paper_artifact(self):
        from repro.experiments.fig_all import ARTIFACTS

        assert set(ARTIFACTS) == {
            "table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10",
        }
        assert all(callable(fn) for fn in ARTIFACTS.values())
