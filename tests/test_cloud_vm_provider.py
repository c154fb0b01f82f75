"""Unit tests for VM lifecycle and the EC2-style provider."""

import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

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
        p.boot_complete(vm, 120.0)
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
            p.boot_complete(vm, 120.0)
        assert len(p.idle_vms()) == 3
        p.assign(vms[0], 1, 1_000.0)
        assert len(p.busy_vms()) == 1

    def test_terminate_all_skips_busy(self):
        p = CloudProvider()
        vms = p.lease(2, 0.0)
        for vm in vms:
            p.boot_complete(vm, 120.0)
        p.assign(vms[0], 1, 10_000.0)
        p.terminate_all(200.0)
        assert p.leased_count() == 1
        assert p.charged_seconds_total == HOUR

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

#: Per-VM operations the provider must reject, and the VMs each is tried on.
REJECTED_OPS = {
    "terminate-busy": lambda vm: not vm.reserved and vm.state is VMState.BUSY,
    "assign-booting": lambda vm: vm.state is VMState.BOOTING,
    "release-idle": lambda vm: vm.state is VMState.IDLE,
}

FLEET_OPS = st.lists(
    st.tuples(
        st.sampled_from([
            "lease", *VM_OPS, *REJECTED_OPS, "finalize_reserved",
            "settle_stragglers", "pickle",
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


def views(provider: CloudProvider) -> dict:
    """Every fleet view's ids and every count, by state (None: all)."""
    return {
        None: ([vm.vm_id for vm in provider.vms()], provider.leased_count()),
        VMState.BOOTING: (
            [vm.vm_id for vm in provider.booting_vms()], provider.booting_count()
        ),
        VMState.IDLE: (
            [vm.vm_id for vm in provider.idle_vms()], provider.idle_count()
        ),
        VMState.BUSY: (
            [vm.vm_id for vm in provider.busy_vms()], provider.busy_count()
        ),
    }


def apply_vm_op(provider: CloudProvider, op: str, vm: VM, n: int, now: float) -> None:
    if op == "boot":
        provider.boot_complete(vm, now)
    elif op in ("assign", "assign-booting"):
        provider.assign(vm, n, now + 600.0)
    elif op in ("release", "release-idle"):
        provider.release_job(vm)
    elif op in ("terminate", "terminate-busy"):
        provider.terminate(vm, now)
    else:
        provider.preempt(vm, now)


@settings(max_examples=300, deadline=None)
@given(FLEET_OPS)
@example([
    # VM 0 re-enters the IDLE partition behind VMs 1 and 2, then the
    # BUSY partition behind VM 1.
    (op, n, "on-demand") for op, n in [
        ("lease", 2), ("boot", 0), ("boot", 0), ("boot", 0),
        ("assign", 0), ("release", 0), ("assign", 1), ("assign", 0),
        ("release", 0), ("assign", 0), ("pickle", 0),
    ]
])
def test_fleet_views_walk_in_id_order(ops):
    """The partitions are a differential oracle's subject: after every
    transition, rejected transition, settlement and snapshot, each view
    equals a re-sorted walk of ``_fleet`` and each count its view's
    length, even where a VM re-entered a partition at the end of its
    dict.  A rejected transition moves nothing."""
    provider = CloudProvider(ProviderConfig(max_vms=12))
    now = 0.0
    for op, n, tier in ops:
        now += 150.0  # past every earlier lease's boot delay
        if op in VM_OPS or op in REJECTED_OPS:
            eligible = VM_OPS.get(op) or REJECTED_OPS[op]
            pool = [vm for vm in provider.vms() if eligible(vm)]
            if not pool:
                continue
            vm = pool[n % len(pool)]
            if op in REJECTED_OPS:
                before = views(provider)
                with pytest.raises(RuntimeError):
                    apply_vm_op(provider, op, vm, n, now)
                assert views(provider) == before
            else:
                apply_vm_op(provider, op, vm, n, now)
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
        for state, (ids, count) in views(provider).items():
            assert ids == sorted_ids(provider, state)
            assert count == len(ids)


#: ``CloudProvider``'s pickled attributes: what snapshots have always held.
PICKLED_ATTRIBUTES = {
    "config", "billing", "_next_id", "_fleet", "charged_seconds_total",
    "leases_total", "spot_charged_seconds", "on_charge",
}


def test_pickle_leaves_the_partitions_out_and_rebuilds_them():
    """A provider pickles the attributes it always did, so snapshots
    written before the partitions existed restore too: unpickling
    rebuilds the partitions from ``_fleet``."""
    provider = CloudProvider(ProviderConfig(max_vms=8))
    vms = provider.lease(5, 0.0)
    for vm in vms[:4]:
        provider.boot_complete(vm, 120.0)
    provider.assign(vms[0], 1, 900.0)
    provider.assign(vms[2], 2, 900.0)
    provider.release_job(vms[0])  # re-enters IDLE behind VMs 1 and 3
    provider.terminate(vms[3], 200.0)
    state = provider.__getstate__()
    assert set(state) == PICKLED_ATTRIBUTES
    restored = CloudProvider.__new__(CloudProvider)
    restored.__setstate__(dict(state))
    for other in (restored, pickle.loads(pickle.dumps(provider))):
        assert views(other) == views(provider)
    assert views(provider) == {
        None: ([0, 1, 2, 4], 4),
        VMState.BOOTING: ([4], 1),
        VMState.IDLE: ([0, 1], 2),
        VMState.BUSY: ([2], 1),
    }
