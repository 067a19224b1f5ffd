"""Unit tests for the seeded fault injector and its schedule API."""

import pytest

from repro.faults import (
    AckError,
    FaultConfig,
    FaultInjector,
    FaultStats,
    FlitBitError,
    LinkDegradation,
    LinkFailure,
    ResponseFault,
    TransientVaultError,
    Window,
)


class TestWindow:
    def test_default_is_forever(self):
        w = Window()
        assert w.contains(0) and w.contains(10**9)

    def test_half_open_interval(self):
        w = Window(10, 20)
        assert not w.contains(9)
        assert w.contains(10) and w.contains(19)
        assert not w.contains(20)

    def test_at_single_cycle(self):
        w = Window.at(42)
        assert w.contains(42)
        assert not w.contains(41) and not w.contains(43)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            Window(10, 10)
        with pytest.raises(ValueError):
            Window(-1)


class TestModelValidation:
    def test_rate_must_be_probability(self):
        with pytest.raises(ValueError):
            FlitBitError(rate=1.0)
        with pytest.raises(ValueError):
            FlitBitError(rate=-0.1)
        with pytest.raises(ValueError):
            TransientVaultError(rate=2.0)

    def test_response_fault_kind_checked(self):
        with pytest.raises(ValueError):
            ResponseFault(kind="explode", rate=0.1)
        for kind in ("poison", "drop"):
            ResponseFault(kind=kind, rate=0.1)
        ResponseFault(kind="delay", rate=0.1, delay_cycles=10)
        with pytest.raises(ValueError):
            ResponseFault(kind="delay", rate=0.1, delay_cycles=0)

    def test_degradation_factor_checked(self):
        with pytest.raises(ValueError):
            LinkDegradation(link=0, factor=0.5)
        assert LinkDegradation(link=0, factor=3.0).factor == 3.0


class TestConfig:
    def test_simple_builds_one_model_per_rate(self):
        cfg = FaultConfig.simple(
            flit_ber=1e-3,
            ack_ber=1e-3,
            vault_error_rate=1e-4,
            poison_rate=1e-3,
            drop_rate=1e-3,
            delay_rate=1e-3,
            dead_links=(2,),
            degraded_links=((1, 2.0),),
        )
        kinds = [type(m).__name__ for m in cfg.models]
        assert kinds.count("FlitBitError") == 1
        assert kinds.count("AckError") == 1
        assert kinds.count("TransientVaultError") == 1
        assert kinds.count("ResponseFault") == 3
        assert kinds.count("LinkFailure") == 1
        assert kinds.count("LinkDegradation") == 1

    def test_simple_zero_rates_is_inert(self):
        assert FaultConfig.simple().models == ()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(retry_limit=0)
        with pytest.raises(ValueError):
            FaultConfig(link_tokens=0)
        with pytest.raises(ValueError):
            FaultConfig(timeout_cycles=0)


class TestInjectorQueries:
    def test_no_models_never_fires(self):
        inj = FaultInjector()
        assert not inj.flit_corrupted(0, 100, 17, "link0.req")
        assert not inj.ack_corrupted(0, 100, "link0.req")
        assert not inj.vault_error(5, 100)
        assert inj.response_fate(100) == ("ok", 0)
        assert not inj.link_failed(0, 10**9)
        assert inj.degrade_factor(0, 100) == 1.0
        assert inj.stats.empty

    def test_certain_flit_error_fires_and_counts(self):
        inj = FaultInjector(FaultConfig(models=(FlitBitError(rate=0.999999),)))
        assert inj.flit_corrupted(0, 0, 17, "link0.req")
        assert inj.stats.counters["link0.req"]["injected_flit_error"] == 1

    def test_link_filter(self):
        inj = FaultInjector(
            FaultConfig(models=(FlitBitError(rate=0.999999, links=(1,)),))
        )
        assert not inj.flit_corrupted(0, 0, 17, "link0.req")
        assert inj.flit_corrupted(1, 0, 17, "link1.req")

    def test_same_seed_same_decisions(self):
        cfg = FaultConfig(models=(FlitBitError(rate=0.3),), seed=99)
        a = FaultInjector(cfg)
        b = FaultInjector(cfg)
        seq_a = [a.flit_corrupted(0, i, 2, "s") for i in range(200)]
        seq_b = [b.flit_corrupted(0, i, 2, "s") for i in range(200)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_different_seed_different_decisions(self):
        def mk(s):
            return FaultInjector(
                FaultConfig(models=(FlitBitError(rate=0.3),), seed=s)
            )

        def seq(inj):
            return [inj.flit_corrupted(0, i, 2, "s") for i in range(200)]

        assert seq(mk(1)) != seq(mk(2))

    def test_scheduled_failure_is_deterministic(self):
        inj = FaultInjector(FaultConfig(models=(LinkFailure(link=2, at_cycle=500),)))
        assert not inj.link_failed(2, 499)
        assert inj.link_failed(2, 500)
        assert not inj.link_failed(0, 10**6)

    def test_degrade_factor_takes_worst(self):
        inj = FaultInjector(
            FaultConfig(
                models=(
                    LinkDegradation(link=0, factor=2.0),
                    LinkDegradation(link=0, factor=4.0),
                )
            )
        )
        assert inj.degrade_factor(0, 0) == 4.0
        assert inj.degrade_factor(1, 0) == 1.0

    def test_response_fate_kinds(self):
        inj = FaultInjector(
            FaultConfig(models=(ResponseFault(kind="delay", rate=0.999999,
                                              delay_cycles=777),))
        )
        assert inj.response_fate(0) == ("delay", 777)
        assert inj.stats.counters["response"]["injected_delay"] == 1


class TestScheduleAPI:
    def test_schedule_at_cycle(self):
        inj = FaultInjector()
        inj.schedule_at(1000, FlitBitError(rate=0.999999))
        assert not inj.flit_corrupted(0, 999, 4, "s")
        assert inj.flit_corrupted(0, 1000, 4, "s")
        assert not inj.flit_corrupted(0, 1001, 4, "s")

    def test_schedule_at_link_failure_uses_start(self):
        inj = FaultInjector()
        inj.schedule_at(4096, LinkFailure(link=1))
        assert not inj.link_failed(1, 4095)
        assert inj.link_failed(1, 4096)

    def test_schedule_is_chainable(self):
        inj = FaultInjector().schedule(FlitBitError(rate=0.1)).schedule(
            AckError(rate=0.1)
        )
        assert isinstance(inj, FaultInjector)

    def test_unknown_model_rejected(self):
        with pytest.raises(TypeError):
            FaultInjector().schedule(object())


class TestStats:
    def test_record_and_aggregate(self):
        st = FaultStats()
        st.record("link0.req", "crc_error")
        st.record("link0.req", "crc_error")
        st.record("link1.rsp", "crc_error", 3)
        assert st.site("link0.req")["crc_error"] == 2
        assert st.total("crc_error") == 5
        assert not st.empty

    def test_rows_and_dict_round_trip(self):
        st = FaultStats()
        st.record("vault3", "reread")
        assert ("vault3", "reread", 1) in st.rows()
        assert st.as_dict() == {"vault3": {"reread": 1}}
        # as_dict is a copy: mutating it must not touch the live counters.
        st.as_dict()["vault3"]["reread"] = 99
        assert st.site("vault3")["reread"] == 1
