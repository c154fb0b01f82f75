"""Tests for the hostile-cloud layer: spot market, preemption,
control-plane degradation, and the preemption-aware policy family.

The load-bearing contract is at the top: with ``EngineConfig.spot``
left at ``None`` the engine must behave bit-identically to builds
predating the layer, and with it set every hostile process must replay
deterministically per seed.
"""

import json
import math

import pytest

from repro.audit import AuditConfig, InvariantMonitor, InvariantViolation
from repro.cloud.billing import HOUR, HourlyBilling
from repro.cloud.provider import CloudProvider, ProviderConfig
from repro.cloud.spot import CircuitBreaker, SpotConfig, SpotMarket, SpotStats
from repro.cloud.vm import VM, VMState
from repro.core.scheduler import FixedScheduler, PortfolioScheduler
from repro.experiments.engine import ClusterEngine, EngineConfig
from repro.experiments.export import result_to_dict
from repro.policies.combined import build_portfolio, policy_by_name
from repro.policies.spot_aware import (
    SpotBidProvisioning,
    SpotPlan,
    rv_spot_factor,
    spot_portfolio_members,
)
from repro.predict.simple import OraclePredictor
from repro.resilience import CheckpointPolicy
from repro.workload.job import Job
from repro.workload.synthetic import DAS2_FS0, generate_trace


def _short_trace(seed=29, hours=3.0, cap=900.0):
    """DAS2-fs0 jobs with capped runtimes (preemption-survivable)."""
    return [
        Job(job_id=j.job_id, submit_time=j.submit_time,
            runtime=min(j.runtime, cap), procs=j.procs, user=j.user)
        for j in generate_trace(DAS2_FS0, duration=hours * HOUR, seed=seed)
    ]


def _run(jobs=None, policy="ODA-UNICEF-FirstFit", **config_kwargs):
    engine = _engine(jobs, policy, **config_kwargs)
    return engine.run()


def _engine(jobs=None, policy="ODA-UNICEF-FirstFit", **config_kwargs):
    if jobs is None:
        jobs = _short_trace()
    scheduler = FixedScheduler(policy_by_name(policy))
    return ClusterEngine(
        jobs, scheduler, OraclePredictor(), EngineConfig(**config_kwargs)
    )


# -- SpotConfig ---------------------------------------------------------------


class TestSpotConfig:
    @pytest.mark.parametrize("kwargs", [
        {"spot_fraction": -0.1},
        {"spot_fraction": 1.5},
        {"price_mean": 0.0},
        {"price_mean": 1.2},
        {"price_volatility": -0.1},
        {"price_interval_seconds": 0.0},
        {"preempt_rate_per_hour": -1.0},
        {"grace_period_seconds": -5.0},
        {"bid": 0.0},
        {"bid": 1.1},
        {"capacity_shortage_rate": 2.0},
        {"brownout_mtbb_seconds": 0.0},
        {"brownout_duration_seconds": -600.0},
        {"api_rate_limit": 0},
        {"api_rate_window_seconds": 0.0},
        {"breaker_threshold": 0},
        {"breaker_cooldown_seconds": 0.0},
        {"risk_aversion": -1.0},
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SpotConfig(**kwargs)

    def test_brownouts_enabled(self):
        assert not SpotConfig().brownouts_enabled
        assert SpotConfig(brownout_mtbb_seconds=7_200.0).brownouts_enabled

    def test_effective_price_premium_and_cap(self):
        cfg = SpotConfig(preempt_rate_per_hour=0.5, risk_aversion=2.0)
        assert cfg.effective_price(0.3) == pytest.approx(0.3 * 2.0)
        assert cfg.effective_price(0.9) == 1.0  # capped at on-demand
        taker = SpotConfig(preempt_rate_per_hour=0.5, risk_aversion=0.0)
        assert taker.effective_price(0.3) == pytest.approx(0.3)


# -- SpotMarket ---------------------------------------------------------------


class TestSpotMarket:
    def test_prices_clipped_and_deterministic(self):
        market = SpotMarket(SpotConfig(seed=3, price_volatility=2.0))
        prices = [market.price_in_bucket(b) for b in range(200)]
        assert all(0.01 <= p <= 1.0 for p in prices)
        again = SpotMarket(SpotConfig(seed=3, price_volatility=2.0))
        assert prices == [again.price_in_bucket(b) for b in range(200)]

    def test_price_is_bucket_pure(self):
        """Query order must not perturb the price path."""
        cfg = SpotConfig(seed=7)
        forward = SpotMarket(cfg)
        backward = SpotMarket(cfg)
        a = [forward.price_in_bucket(b) for b in range(50)]
        b = [backward.price_in_bucket(b) for b in reversed(range(50))]
        assert a == list(reversed(b))

    def test_zero_volatility_pins_the_mean(self):
        market = SpotMarket(SpotConfig(price_mean=0.4, price_volatility=0.0))
        assert market.price_at(0.0) == 0.4
        assert market.price_at(1e6) == 0.4

    def test_price_at_uses_interval_buckets(self):
        market = SpotMarket(SpotConfig(seed=1, price_interval_seconds=300.0))
        assert market.price_at(10.0) == market.price_at(299.0)
        assert market.bucket(299.0) == 0
        assert market.bucket(300.0) == 1

    def test_first_bid_crossing_none_at_on_demand_bid(self):
        market = SpotMarket(SpotConfig(seed=5))
        assert market.first_bid_crossing(1.0, 0.0, 1e9) is None

    def test_first_bid_crossing_finds_the_first_pricier_bucket(self):
        cfg = SpotConfig(seed=11, price_interval_seconds=100.0)
        market = SpotMarket(cfg)
        bid = 0.3
        crossing = market.first_bid_crossing(bid, 0.0, 1e6)
        assert crossing is not None
        bucket = int(crossing // 100.0)
        assert market.price_in_bucket(bucket) > bid
        # every earlier bucket (after the start bucket) stayed under bid
        assert all(
            market.price_in_bucket(b) <= bid for b in range(1, bucket)
        )

    def test_capacity_short_rate_endpoints(self):
        never = SpotMarket(SpotConfig(capacity_shortage_rate=0.0))
        always = SpotMarket(SpotConfig(capacity_shortage_rate=1.0))
        assert not never.capacity_short(0.0)
        assert always.capacity_short(0.0)
        assert always.capacity_short(12_345.0)

    def test_time_to_preemption_off_is_infinite(self):
        market = SpotMarket(SpotConfig(preempt_rate_per_hour=0.0))
        assert math.isinf(market.time_to_preemption())
        assert market.preemptions_drawn == 0

    def test_preemption_draws_deterministic(self):
        a = SpotMarket(SpotConfig(seed=9, preempt_rate_per_hour=1.0))
        b = SpotMarket(SpotConfig(seed=9, preempt_rate_per_hour=1.0))
        assert [a.time_to_preemption() for _ in range(20)] == \
               [b.time_to_preemption() for _ in range(20)]

    def test_preemption_at_never_without_reclaim_or_crossing(self):
        market = SpotMarket(SpotConfig(preempt_rate_per_hour=0.0))
        assert market.preemption_at(0.0, 1.0) is None

    def test_preemption_at_takes_the_earlier_cause(self):
        cfg = SpotConfig(seed=13, preempt_rate_per_hour=0.01,
                         price_interval_seconds=100.0)
        market = SpotMarket(cfg)
        # A bid of 0.01 (the price floor) is crossed almost immediately,
        # far before the ~100 h mean reclaim.
        notice = market.preemption_at(0.0, 0.01)
        assert notice is not None
        assert notice <= 2_048 * 100.0


# -- CircuitBreaker -----------------------------------------------------------


class TestCircuitBreaker:
    CFG = SpotConfig(seed=2, breaker_threshold=3,
                     breaker_cooldown_seconds=100.0)

    def test_opens_only_at_threshold(self):
        breaker = self.CFG.breaker()
        assert not breaker.record_failure(0.0)
        assert not breaker.record_failure(1.0)
        assert breaker.state_name == CircuitBreaker.CLOSED
        assert breaker.record_failure(2.0)
        assert breaker.state_name == CircuitBreaker.OPEN
        assert breaker.opens == 1

    def test_success_resets_the_consecutive_count(self):
        breaker = self.CFG.breaker()
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        breaker.record_success()
        assert not breaker.record_failure(2.0)
        assert breaker.state_name == CircuitBreaker.CLOSED

    def test_open_blocks_until_cooldown_then_half_opens(self):
        breaker = self.CFG.breaker()
        for t in (0.0, 1.0, 2.0):
            breaker.record_failure(t)
        assert breaker.state_name == CircuitBreaker.OPEN
        assert not breaker.allow(2.0 + 1.0)
        deadline = breaker.blocked_until
        assert deadline > 2.0
        assert breaker.allow(deadline)  # blocked() is strict: now == ok
        assert breaker.state_name == CircuitBreaker.HALF_OPEN

    def test_probe_success_closes(self):
        breaker = self.CFG.breaker()
        for t in (0.0, 1.0, 2.0):
            breaker.record_failure(t)
        breaker.allow(breaker.blocked_until)
        assert breaker.record_success()
        assert breaker.state_name == CircuitBreaker.CLOSED
        assert breaker.closes == 1

    def test_probe_failure_reopens(self):
        breaker = self.CFG.breaker()
        for t in (0.0, 1.0, 2.0):
            breaker.record_failure(t)
        probe_at = breaker.blocked_until
        breaker.allow(probe_at)
        assert breaker.record_failure(probe_at)
        assert breaker.state_name == CircuitBreaker.OPEN
        assert breaker.opens == 2
        assert breaker.blocked_until > probe_at

    def test_transitions_pop_once(self):
        breaker = self.CFG.breaker()
        for t in (0.0, 1.0, 2.0):
            breaker.record_failure(t)
        assert breaker.pop_transition() == CircuitBreaker.OPEN
        assert breaker.pop_transition() is None

    def test_deterministic_per_seed(self):
        def exercise(breaker):
            deadlines = []
            now = 0.0
            for _ in range(5):
                while not breaker.allow(now):
                    now = breaker.blocked_until
                breaker.record_failure(now)
                breaker.record_failure(now)
                breaker.record_failure(now)
                deadlines.append(breaker.blocked_until)
            return deadlines

        assert exercise(self.CFG.breaker()) == \
               exercise(self.CFG.breaker())

    def test_half_open_admits_exactly_one_probe(self):
        # Two callers racing past a half-open breaker: only the first
        # may probe; the second is refused until the probe resolves.
        breaker = self.CFG.breaker()
        for t in (0.0, 1.0, 2.0):
            breaker.record_failure(t)
        probe_at = breaker.blocked_until
        assert breaker.allow(probe_at)           # first caller wins the probe
        assert not breaker.allow(probe_at)       # racing caller is refused
        assert not breaker.allow(probe_at + 60)  # even later, probe unresolved
        assert breaker.record_success()
        assert breaker.allow(probe_at + 60)      # closed again: pass freely

    def test_failed_probe_releases_the_probe_slot(self):
        breaker = self.CFG.breaker()
        for t in (0.0, 1.0, 2.0):
            breaker.record_failure(t)
        probe_at = breaker.blocked_until
        assert breaker.allow(probe_at)
        assert breaker.record_failure(probe_at)  # probe failed -> reopened
        nxt = breaker.blocked_until
        assert breaker.allow(nxt)                # next probe is admitted
        assert not breaker.allow(nxt)            # ... still one at a time

    def test_standalone_constructor_matches_spotconfig_breaker(self):
        # The breaker is decoupled from SpotConfig; the default salt keeps
        # SpotConfig.breaker() streams bit-identical to the old coupling.
        a = self.CFG.breaker()
        b = CircuitBreaker(threshold=3, cooldown_seconds=100.0, seed=2)
        for t in (0.0, 1.0, 2.0):
            a.record_failure(t)
            b.record_failure(t)
        assert a.blocked_until == b.blocked_until


# -- provider spot billing ----------------------------------------------------


class TestProviderSpot:
    def provider(self, **kw):
        return CloudProvider(ProviderConfig(**kw))

    def test_spot_lease_locks_the_price(self):
        provider = self.provider()
        (vm,) = provider.lease(1, 0.0, spot=True, price=0.25)
        assert vm.spot and vm.price == 0.25

    def test_reserved_spot_lease_rejected(self):
        with pytest.raises(ValueError):
            self.provider().lease(1, 0.0, reserved=True, spot=True)

    def test_non_positive_price_rejected(self):
        with pytest.raises(ValueError):
            self.provider().lease(1, 0.0, spot=True, price=0.0)

    def test_terminate_charges_ceil_times_price(self):
        provider = self.provider()
        (vm,) = provider.lease(1, 0.0, spot=True, price=0.5)
        provider.boot_complete(vm, 120.0)
        charge = provider.terminate(vm, 1.5 * HOUR)
        assert charge == pytest.approx(2 * HOUR * 0.5)  # hour-rounded up
        assert provider.spot_charged_seconds == pytest.approx(charge)

    def test_preempt_charges_completed_periods_only(self):
        provider = self.provider()
        (vm,) = provider.lease(1, 0.0, spot=True, price=0.5)
        provider.boot_complete(vm, 120.0)
        charge = provider.preempt(vm, 2.5 * HOUR)
        assert charge == pytest.approx(2 * HOUR * 0.5)  # floor: cut period free
        assert vm.state is VMState.TERMINATED

    def test_preempt_inside_first_period_is_free(self):
        provider = self.provider()
        (vm,) = provider.lease(1, 0.0, spot=True, price=0.5)
        provider.boot_complete(vm, 120.0)
        assert provider.preempt(vm, 0.5 * HOUR) == 0.0

    def test_preempt_non_spot_rejected(self):
        provider = self.provider()
        (vm,) = provider.lease(1, 0.0)
        provider.boot_complete(vm, 120.0)
        with pytest.raises(ValueError):
            provider.preempt(vm, HOUR)

    def test_preempt_unknown_vm_rejected(self):
        provider = self.provider()
        (vm,) = provider.lease(1, 0.0, spot=True, price=0.5)
        provider.boot_complete(vm, 120.0)
        provider.preempt(vm, HOUR)
        with pytest.raises(KeyError):
            provider.preempt(vm, 2 * HOUR)

    def test_preempt_busy_vm_rejected(self):
        """The engine must release the job before the provider reclaims."""
        provider = self.provider()
        (vm,) = provider.lease(1, 0.0, spot=True, price=0.5)
        provider.boot_complete(vm, 120.0)
        provider.assign(vm, job_id=1, until=HOUR)
        with pytest.raises(RuntimeError):
            provider.preempt(vm, 0.5 * HOUR)

    def test_straggler_settlement_prices_spot(self):
        provider = self.provider()
        (vm,) = provider.lease(1, 0.0, spot=True, price=0.5)
        provider.boot_complete(vm, 120.0)
        provider.assign(vm, job_id=1, until=10 * HOUR)
        extra = provider.settle_stragglers(1.5 * HOUR)
        assert extra == pytest.approx(2 * HOUR * 0.5)
        assert provider.spot_charged_seconds == pytest.approx(extra)


class TestReservedDiscountConfig:
    """Satellite: the reserved settlement rate lives in ProviderConfig."""

    def test_bad_discount_rejected(self):
        with pytest.raises(ValueError):
            ProviderConfig(reserved_discount=0.0)
        with pytest.raises(ValueError):
            ProviderConfig(reserved_discount=1.5)

    def test_settlements_default_to_the_config_rate(self):
        provider = CloudProvider(ProviderConfig(reserved_discount=0.25))
        (vm,) = provider.lease(1, 0.0, reserved=True)
        provider.boot_complete(vm, 120.0)
        assert provider.finalize_reserved(HOUR) == pytest.approx(HOUR * 0.25)

    def test_straggler_settlement_defaults_to_the_config_rate(self):
        provider = CloudProvider(ProviderConfig(reserved_discount=0.25))
        (vm,) = provider.lease(1, 0.0, reserved=True)
        provider.boot_complete(vm, 120.0)
        provider.assign(vm, job_id=1, until=10 * HOUR)
        assert provider.settle_stragglers(HOUR) == pytest.approx(HOUR * 0.25)

    def test_engine_rebases_provider_config(self):
        # The engine's provider runs on the config it was given, unchanged.
        engine = _engine(provider=ProviderConfig(reserved_discount=0.3))
        assert engine.provider.config.reserved_discount == 0.3


# -- spot-aware policies ------------------------------------------------------


class TestSpotAwarePolicies:
    def test_plan_validation(self):
        base = build_portfolio()[0].provisioning
        with pytest.raises(ValueError):
            SpotBidProvisioning(base, bid=0.0)
        with pytest.raises(ValueError):
            SpotBidProvisioning(base, bid=0.5, fraction=1.5)

    def test_member_names_and_lookup(self):
        names = [p.name for p in spot_portfolio_members()]
        assert len(names) == len(set(names))
        for name in names:
            assert policy_by_name(name).name == name
        assert "-S35-" in names[0]

    def test_plan_states_intent_and_ckpt_tuning(self):
        prov = policy_by_name("ODA-S35-FCFS-FirstFit").provisioning

        class Ctx:
            spot_price = 0.5

        plan = prov.spot_plan(Ctx())
        assert plan.fraction == 1.0 and plan.bid == 0.35
        assert plan.checkpoint_interval is None
        tuned = policy_by_name("ODA-S35C-FCFS-FirstFit").provisioning
        assert tuned.spot_plan(Ctx()).checkpoint_interval == 900.0

    def test_rv_spot_factor(self):
        plain = build_portfolio()[0].provisioning
        assert rv_spot_factor(plain, 0.3, 0.4) == 1.0
        prov = policy_by_name("ODA-S35-FCFS-FirstFit").provisioning
        assert rv_spot_factor(prov, None, None) == 1.0
        # under the bid: full spot share at the effective price
        assert rv_spot_factor(prov, 0.2, 0.4) == pytest.approx(0.4)
        # over the bid: no spot share, full price
        assert rv_spot_factor(prov, 0.5, 0.6) == 1.0
        # half spot share splits the rate
        half = SpotBidProvisioning(plain, bid=0.5, fraction=0.5)
        assert rv_spot_factor(half, 0.2, 0.4) == pytest.approx(0.7)


# -- engine integration -------------------------------------------------------


STRICT = {"audit": AuditConfig(level="strict")}


class TestEngineSpot:
    def test_zero_fraction_market_is_metric_neutral(self):
        """A market nobody buys from must not change the paper's numbers."""
        base = result_to_dict(_run(**STRICT))
        spot = result_to_dict(_run(
            spot=SpotConfig(seed=1, spot_fraction=0.0), **STRICT
        ))
        block = spot.pop("spot")
        assert not SpotStats(**{k: v for k, v in block.items()
                                if k != "mean_spot_price"}).any_activity
        assert base == spot

    def test_preempted_jobs_recover_via_checkpoints(self):
        result = _run(
            spot=SpotConfig(seed=4, spot_fraction=1.0,
                            preempt_rate_per_hour=2.0),
            checkpoint=CheckpointPolicy(300.0),
            **STRICT,
        )
        stats = result.spot
        assert stats.spot_leases > 0
        assert stats.preemptions > 0
        assert stats.preempt_notices >= stats.preemptions
        # no job is lost: every preempted job requeues and finishes
        assert result.resilience.jobs_failed == 0
        assert result.unfinished_jobs == 0
        assert len(result.records) == len(_short_trace())

    def test_spot_runs_replay_bit_identically(self):
        kwargs = dict(
            spot=SpotConfig(seed=4, spot_fraction=0.7,
                            preempt_rate_per_hour=1.0,
                            brownout_mtbb_seconds=3_600.0),
            checkpoint=CheckpointPolicy(300.0),
        )
        a = result_to_dict(_run(**kwargs), include_records=True)
        b = result_to_dict(_run(**kwargs), include_records=True)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_grace_window_takes_an_emergency_checkpoint(self):
        # A huge periodic interval saves nothing, so any preempted
        # progress must come from the in-grace emergency checkpoint.
        result = _run(
            spot=SpotConfig(seed=4, spot_fraction=1.0,
                            preempt_rate_per_hour=3.0,
                            grace_period_seconds=300.0),
            checkpoint=CheckpointPolicy(100_000.0),
            **STRICT,
        )
        stats = result.spot
        assert stats.preempted_job_kills > 0
        assert stats.grace_checkpoints > 0
        assert stats.preempt_saved_cpu_seconds > 0.0

    def test_insufficient_capacity_hedges_to_on_demand(self):
        result = _run(
            spot=SpotConfig(seed=4, spot_fraction=1.0,
                            capacity_shortage_rate=1.0,
                            preempt_rate_per_hour=0.0),
            **STRICT,
        )
        stats = result.spot
        assert stats.spot_leases == 0
        assert stats.insufficient_capacity > 0
        assert stats.hedged_vms > 0
        assert result.unfinished_jobs == 0

    def test_no_hedge_leaves_spot_demand_denied(self):
        result = _run(
            spot=SpotConfig(seed=4, spot_fraction=1.0,
                            capacity_shortage_rate=1.0,
                            preempt_rate_per_hour=0.0, hedge=False),
            **STRICT,
        )
        stats = result.spot
        assert stats.spot_vms_denied > 0
        assert stats.hedged_vms == 0

    def test_bid_deferral_under_a_flat_expensive_price(self):
        result = _run(
            spot=SpotConfig(seed=4, spot_fraction=1.0, price_mean=0.9,
                            price_volatility=0.0, bid=0.5,
                            preempt_rate_per_hour=0.0),
            **STRICT,
        )
        stats = result.spot
        assert stats.spot_leases == 0  # never under the bid
        assert stats.bid_deferrals > 0
        assert stats.hedged_vms > 0

    def test_brownouts_reject_and_open_the_breaker(self):
        result = _run(
            spot=SpotConfig(seed=4, spot_fraction=0.5,
                            preempt_rate_per_hour=0.0,
                            brownout_mtbb_seconds=1_800.0,
                            brownout_duration_seconds=1_800.0,
                            breaker_threshold=2,
                            breaker_cooldown_seconds=60.0),
            **STRICT,
        )
        stats = result.spot
        assert stats.brownouts > 0
        assert stats.brownout_seconds > 0.0
        assert stats.brownout_rejections > 0
        assert stats.breaker_opens > 0
        assert stats.backpressure_rounds >= stats.brownout_rejections

    def test_api_rate_limit_throttles(self):
        result = _run(
            spot=SpotConfig(seed=4, spot_fraction=0.5,
                            preempt_rate_per_hour=0.0, api_rate_limit=1,
                            api_rate_window_seconds=1_800.0,
                            breaker_threshold=1_000_000),
            **STRICT,
        )
        assert result.spot.throttled_calls > 0

    def test_export_carries_the_spot_block_only_when_configured(self):
        plain = result_to_dict(_run())
        assert "spot" not in plain
        hostile = result_to_dict(_run(
            spot=SpotConfig(seed=4, spot_fraction=1.0,
                            preempt_rate_per_hour=1.0),
            checkpoint=CheckpointPolicy(300.0),
        ))
        assert hostile["spot"]["spot_leases"] > 0
        assert set(hostile["spot"]) == set(SpotStats().to_dict())

    def test_portfolio_with_spot_members_under_strict_audit(self):
        jobs = _short_trace(hours=1.5)
        scheduler = PortfolioScheduler(
            seed=7, portfolio=build_portfolio()[:4] + spot_portfolio_members(),
        )
        engine = ClusterEngine(
            jobs, scheduler, OraclePredictor(),
            EngineConfig(
                spot=SpotConfig(seed=4, spot_fraction=0.5,
                                preempt_rate_per_hour=0.5),
                checkpoint=CheckpointPolicy(300.0),
                **STRICT,
            ),
        )
        result = engine.run()
        assert result.portfolio_invocations > 0
        assert result.spot.spot_leases > 0


class TestSpotDurability:
    def test_kill_and_resume_with_preemptions_is_bit_identical(self, tmp_path):
        import signal

        from repro.durability import DurableRunner, RunInterrupted, SnapshotConfig

        def engine():
            return _engine(
                spot=SpotConfig(seed=4, spot_fraction=1.0,
                                preempt_rate_per_hour=2.0,
                                brownout_mtbb_seconds=3_600.0),
                checkpoint=CheckpointPolicy(300.0),
                **STRICT,
            )

        reference = result_to_dict(engine().run(), include_records=True)
        assert reference["spot"]["preemptions"] > 0

        config = SnapshotConfig(directory=tmp_path, interval_seconds=None,
                                every_events=100)
        runner = DurableRunner(engine(), config)
        runner.on_snapshot = lambda info: (
            runner.request_stop(signal.SIGTERM) if info.sequence >= 2 else None
        )
        with pytest.raises(RunInterrupted):
            runner.run()
        resumed = result_to_dict(
            DurableRunner.resume(config).run(), include_records=True
        )
        assert json.dumps(reference, sort_keys=True) == \
            json.dumps(resumed, sort_keys=True)


class TestSpotTraceRecords:
    def test_preemption_and_brownout_lifecycles_are_traced(self, tmp_path):
        from repro.obs import TraceConfig, read_trace

        path = tmp_path / "spot.jsonl"
        _run(
            spot=SpotConfig(seed=4, spot_fraction=1.0,
                            preempt_rate_per_hour=2.0,
                            brownout_mtbb_seconds=1_800.0),
            checkpoint=CheckpointPolicy(300.0),
            trace=TraceConfig(path=str(path)),
        )
        kinds = {r["kind"] for r in read_trace(path).records}
        assert "preempt" in kinds
        assert "brownout" in kinds
        notices = [r for r in read_trace(path).records
                   if r["kind"] == "preempt" and r["event"] == "notice"]
        assert notices and all("kill_at" in r for r in notices)


class TestSpotAudit:
    def monitor(self):
        monitor = InvariantMonitor(AuditConfig(level="strict"))
        monitor.attach_billing(HourlyBilling())
        return monitor

    def test_preempt_charge_on_non_spot_vm_flagged(self):
        monitor = self.monitor()
        vm = VM(vm_id=1, lease_time=0.0, ready_time=120.0)
        with pytest.raises(InvariantViolation) as exc_info:
            monitor.on_vm_charge(vm, HOUR, 2 * HOUR, "preempt")
        assert exc_info.value.violation.kind == "preempt-charge-non-spot"

    def test_preempt_overcharge_flagged(self):
        monitor = self.monitor()
        vm = VM(vm_id=1, lease_time=0.0, ready_time=120.0, spot=True,
                price=0.5)
        with pytest.raises(InvariantViolation) as exc_info:
            # 1.5 h wall time: completed periods = 1 h, but 2 h billed
            monitor.on_vm_charge(vm, 2 * HOUR * 0.5, 1.5 * HOUR, "preempt")
        assert exc_info.value.violation.kind == "spot-preempt-charge-mismatch"

    def test_correct_preempt_charge_passes(self):
        monitor = self.monitor()
        vm = VM(vm_id=1, lease_time=0.0, ready_time=120.0, spot=True,
                price=0.5)
        monitor.on_vm_charge(vm, HOUR * 0.5, 1.5 * HOUR, "preempt")

    def test_spot_terminate_undercharge_flagged(self):
        monitor = self.monitor()
        vm = VM(vm_id=1, lease_time=0.0, ready_time=120.0, spot=True,
                price=0.5)
        with pytest.raises(InvariantViolation) as exc_info:
            # 2 h wall lease billed as 1 h (at the spot price)
            monitor.on_vm_charge(vm, HOUR * 0.5, 2 * HOUR + 5.0, "terminate")
        assert exc_info.value.violation.kind == "undercharge"
