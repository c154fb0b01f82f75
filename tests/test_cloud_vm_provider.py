"""Unit tests for VM lifecycle and the EC2-style provider."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.billing import HOUR
from repro.cloud.provider import CloudProvider, ProviderConfig
from repro.cloud.vm import VM, VMState


def make_vm(vm_id=0, lease=0.0, boot=120.0) -> VM:
    return VM(vm_id=vm_id, lease_time=lease, ready_time=lease + boot)


class TestVMLifecycle:
    def test_initial_state_booting(self):
        vm = make_vm()
        assert vm.state is VMState.BOOTING
        assert vm.alive

    def test_ready_before_lease_rejected(self):
        with pytest.raises(ValueError):
            VM(vm_id=0, lease_time=100.0, ready_time=50.0)

    def test_boot_complete(self):
        vm = make_vm()
        vm.boot_complete(120.0)
        assert vm.state is VMState.IDLE

    def test_boot_complete_too_early_rejected(self):
        vm = make_vm()
        with pytest.raises(RuntimeError):
            vm.boot_complete(60.0)

    def test_boot_complete_twice_rejected(self):
        vm = make_vm()
        vm.boot_complete(120.0)
        with pytest.raises(RuntimeError):
            vm.boot_complete(130.0)

    def test_assign_release_cycle(self):
        vm = make_vm()
        vm.boot_complete(120.0)
        vm.assign(job_id=7, until=500.0)
        assert vm.state is VMState.BUSY
        assert vm.job_id == 7
        assert vm.busy_until == 500.0
        vm.release_job()
        assert vm.state is VMState.IDLE
        assert vm.job_id is None

    def test_assign_while_booting_rejected(self):
        with pytest.raises(RuntimeError):
            make_vm().assign(1, 100.0)

    def test_assign_while_busy_rejected(self):
        vm = make_vm()
        vm.boot_complete(120.0)
        vm.assign(1, 500.0)
        with pytest.raises(RuntimeError):
            vm.assign(2, 600.0)

    def test_terminate_busy_rejected(self):
        vm = make_vm()
        vm.boot_complete(120.0)
        vm.assign(1, 500.0)
        with pytest.raises(RuntimeError):
            vm.terminate(300.0)

    def test_terminate_idle(self):
        vm = make_vm()
        vm.boot_complete(120.0)
        vm.terminate(3600.0)
        assert vm.state is VMState.TERMINATED
        assert not vm.alive
        assert vm.terminate_time == 3600.0

    def test_terminate_twice_rejected(self):
        vm = make_vm()
        vm.terminate(10.0)
        with pytest.raises(RuntimeError):
            vm.terminate(20.0)

    def test_release_when_not_busy_rejected(self):
        with pytest.raises(RuntimeError):
            make_vm().release_job()


class TestProviderConfig:
    def test_defaults_match_paper(self):
        cfg = ProviderConfig()
        assert cfg.max_vms == 256
        assert cfg.boot_delay == 120.0

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ProviderConfig(max_vms=0)
        with pytest.raises(ValueError):
            ProviderConfig(boot_delay=-1.0)


class TestProvider:
    def test_lease_grants_and_counts(self):
        p = CloudProvider()
        vms = p.lease(3, now=0.0)
        assert len(vms) == 3
        assert p.leased_count() == 3
        assert all(vm.ready_time == 120.0 for vm in vms)
        assert p.leases_total == 3

    def test_lease_respects_cap(self):
        p = CloudProvider(ProviderConfig(max_vms=5))
        assert len(p.lease(10, 0.0)) == 5
        assert len(p.lease(1, 0.0)) == 0
        assert p.headroom() == 0

    def test_lease_negative_rejected(self):
        with pytest.raises(ValueError):
            CloudProvider().lease(-1, 0.0)

    def test_vm_ids_unique_and_stable(self):
        p = CloudProvider()
        a = p.lease(2, 0.0)
        b = p.lease(2, 10.0)
        ids = [vm.vm_id for vm in a + b]
        assert len(set(ids)) == 4

    def test_terminate_books_charge(self):
        p = CloudProvider()
        (vm,) = p.lease(1, 0.0)
        vm.boot_complete(120.0)
        charge = p.terminate(vm, 30 * 60.0)
        assert charge == HOUR
        assert p.charged_seconds_total == HOUR
        assert p.leased_count() == 0

    def test_terminate_foreign_vm_rejected(self):
        p = CloudProvider()
        alien = make_vm(vm_id=999)
        with pytest.raises(KeyError):
            p.terminate(alien, 100.0)

    def test_fleet_queries(self):
        p = CloudProvider()
        vms = p.lease(3, 0.0)
        assert len(p.booting_vms()) == 3
        for vm in vms:
            vm.boot_complete(120.0)
        assert len(p.idle_vms()) == 3
        vms[0].assign(1, 1_000.0)
        assert len(p.busy_vms()) == 1
        assert p.available_count() == 2

    def test_terminate_all_skips_busy(self):
        p = CloudProvider()
        vms = p.lease(2, 0.0)
        for vm in vms:
            vm.boot_complete(120.0)
        vms[0].assign(1, 10_000.0)
        p.terminate_all(200.0)
        assert p.leased_count() == 1
        assert p.charged_seconds_total == HOUR

    def test_accrued_cost_includes_live_fleet(self):
        p = CloudProvider()
        p.lease(2, 0.0)
        assert p.accrued_cost(10.0) == 2 * HOUR
        assert p.accrued_cost(HOUR + 1) == 4 * HOUR

    def test_remaining_paid_and_next_boundary_delegate(self):
        p = CloudProvider()
        (vm,) = p.lease(1, 100.0)
        assert p.remaining_paid(vm, 100.0) == HOUR
        assert p.next_boundary(vm, 100.0) == 100.0 + HOUR


#: Per-VM operations and the VMs each may act on.
VM_OPS = {
    "boot": lambda vm: vm.state is VMState.BOOTING,
    "assign": lambda vm: vm.state is VMState.IDLE,
    "release": lambda vm: vm.state is VMState.BUSY,
    "terminate": lambda vm: not vm.reserved and vm.state is not VMState.BUSY,
    "preempt": lambda vm: vm.spot and vm.state is not VMState.BUSY,
}

FLEET_OPS = st.lists(
    st.tuples(
        st.sampled_from([
            "lease", *VM_OPS, "finalize_reserved", "settle_stragglers", "pickle",
        ]),
        st.integers(min_value=0, max_value=1_000),
        st.sampled_from(["on-demand", "reserved", "spot"]),
    ),
    max_size=80,
)


def sorted_ids(provider: CloudProvider, state: VMState | None) -> list[int]:
    """What the fleet views returned when each call re-sorted the fleet."""
    fleet = provider._fleet
    vms = [fleet[k] for k in sorted(fleet)]
    return [vm.vm_id for vm in vms if state is None or vm.state is state]


@settings(max_examples=300, deadline=None)
@given(FLEET_OPS)
def test_fleet_views_walk_in_id_order(ops):
    """The views read ``_fleet`` in insertion order; that must stay id
    order whatever leases, settlements and snapshots come in between."""
    provider = CloudProvider(ProviderConfig(max_vms=12))
    now = 0.0
    for op, n, tier in ops:
        now += 150.0  # past every earlier lease's boot delay
        if op in VM_OPS:
            pool = [vm for vm in provider.vms() if VM_OPS[op](vm)]
            if not pool:
                continue
            vm = pool[n % len(pool)]
            if op == "boot":
                vm.boot_complete(now)
            elif op == "assign":
                vm.assign(n, now + 600.0)
            elif op == "release":
                vm.release_job()
            elif op == "terminate":
                provider.terminate(vm, now)
            else:
                provider.preempt(vm, now)
        elif op == "lease":
            spot = tier == "spot"
            provider.lease(n % 4 + 1, now, reserved=tier == "reserved",
                           spot=spot, price=0.5 if spot else 1.0)
        elif op == "finalize_reserved":
            provider.finalize_reserved(now)
        elif op == "settle_stragglers":
            provider.settle_stragglers(now)
        else:
            provider = pickle.loads(pickle.dumps(provider))
        views = {
            None: provider.vms(),
            VMState.IDLE: provider.idle_vms(),
            VMState.BOOTING: provider.booting_vms(),
            VMState.BUSY: provider.busy_vms(),
        }
        for state, view in views.items():
            ids = [vm.vm_id for vm in view]
            assert all(a < b for a, b in zip(ids, ids[1:]))
            assert ids == sorted_ids(provider, state)
