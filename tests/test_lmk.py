"""Memory-pressure lifecycle tests (repro.lmk).

Four properties the suite pins:

- pressure off is *free*: an inert plan (thresholds no sample can
  cross) changes not a single measured number, and the config layer
  rejects malformed knobs up front;
- the killer is deterministic: same seed, same trace, same kills —
  and a kill tears the victim's state down through the same DRAM and
  list bookkeeping as ordinary eviction, so the runtime auditor stays green
  and the next relaunch pays the counted process re-creation cost;
- hard exhaustion degrades, never crashes: an overfull zpool becomes
  an emergency kill, a counted chunk drop, or a counted admission
  refusal depending on policy;
- the ledger balances: every kill, drop, and refusal the counters
  report traces back to a decision the plan recorded.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest

from repro.audit import InvariantAuditor
from repro.core import PlatformConfig, PressureConfig
from repro.errors import ConfigError
from repro.lmk import PressurePlan, install_pressure
from repro.sim import make_system, run_light_scenario
from repro.units import KIB, MIB
from tests.conftest import TINY_PROFILES, build_tiny, tiny_platform

#: Thresholds aggressive enough that the tiny pressured platform
#: (0.55 headroom) demonstrably escalates and kills within a short run.
_HOT = dict(some_threshold=0.01, full_threshold=0.05, kswapd_boost_max=2)

#: Thresholds no PSI sample can ever cross: the inert plan.
_INERT = PressureConfig(
    some_threshold=1.0, full_threshold=1.0, kswapd_boost_max=1
)


def _pressured(scheme_name, trace, policy, config=None, platform=None):
    """A tiny system with an installed plan; returns (system, plan)."""
    if platform is None:
        total = sum(app.total_bytes() for app in trace.apps)
        platform = tiny_platform(total)
    system = make_system(scheme_name, trace, platform=platform)
    plan = PressurePlan(
        config if config is not None
        else PressureConfig(policy=policy, **_HOT)
    )
    assert install_pressure(system, plan)
    return system, plan


class TestPressureConfigValidation:
    def test_defaults_are_valid(self):
        config = PressureConfig()
        assert config.policy == "hybrid"
        assert config.some_threshold <= config.full_threshold

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigError, match="policy"):
            PressureConfig(policy="panic")

    def test_rejects_unordered_thresholds(self):
        with pytest.raises(ConfigError, match="threshold"):
            PressureConfig(some_threshold=0.5, full_threshold=0.2)

    @pytest.mark.parametrize("field,value", [
        ("some_threshold", -0.1),
        ("full_threshold", 1.5),
        ("kswapd_boost_max", 0),
        ("oom_priority_weight", -1.0),
        ("oom_recency_weight", float("nan")),
        ("oom_priority_weight", float("inf")),
        ("min_resident_apps", -1),
    ])
    def test_rejects_out_of_range_knobs(self, field, value):
        with pytest.raises(ConfigError):
            PressureConfig(**{field: value})


class TestOffIdentity:
    """An installed-but-inert plan must not perturb the simulation."""

    @pytest.mark.parametrize("scheme", ["ZRAM", "Ariadne", "SWAP"])
    def test_inert_plan_matches_no_plan(self, tiny_trace, scheme):
        bare = run_light_scenario(
            build_tiny(scheme, tiny_trace), duration_s=3.0
        )
        system, plan = _pressured(scheme, tiny_trace, "hybrid", _INERT)
        inert = run_light_scenario(system, duration_s=3.0)
        assert [r.latency_ns for r in inert.relaunches] == [
            r.latency_ns for r in bare.relaunches
        ]
        # The inert plan observes (PSI samples) but never acts.
        counters = system.ctx.counters
        for name in ("lmk_kills", "pressure_boost_evictions",
                     "pressure_escalations", "pressure_overflow_drops",
                     "pressure_admission_refusals", "lmk_cold_relaunches"):
            assert counters.get(name) == 0, name
        assert plan.kswapd_boost == 1
        assert plan.ledger(counters)["consistent"]

    def test_dram_baseline_declines_installation(self, tiny_trace):
        system = build_tiny("DRAM", tiny_trace)
        assert not install_pressure(system, PressurePlan())
        assert system.scheme._pressure is None


class TestKillsDeterministic:
    def test_lmk_policy_kills_under_pressure(self, tiny_trace):
        system, plan = _pressured("ZRAM", tiny_trace, "lmk")
        run_light_scenario(system, duration_s=6.0)
        counters = system.ctx.counters
        assert counters.get("lmk_kills") >= 1
        assert counters.get("lmk_pages_killed") > 0
        assert plan.ledger(counters)["consistent"]

    def test_identical_runs_are_bit_identical(self, tiny_trace):
        runs = []
        for _ in range(2):
            system, plan = _pressured("ZRAM", tiny_trace, "lmk")
            result = run_light_scenario(system, duration_s=6.0)
            runs.append((
                [r.latency_ns for r in result.relaunches],
                system.ctx.counters.as_dict(),
                plan.ledger(system.ctx.counters),
            ))
        assert runs[0] == runs[1]

    def test_swap_policy_never_kills(self, tiny_trace):
        system, plan = _pressured("ZRAM", tiny_trace, "swap")
        run_light_scenario(system, duration_s=6.0)
        counters = system.ctx.counters
        assert counters.get("lmk_kills") == 0
        assert plan.ledger(counters)["consistent"]

    def test_hybrid_escalates_before_killing(self, tiny_trace):
        # Any hybrid kill must postdate boost saturation: if a kill
        # happened, escalations were recorded first.
        system, plan = _pressured("ZRAM", tiny_trace, "hybrid")
        run_light_scenario(system, duration_s=6.0)
        counters = system.ctx.counters
        if counters.get("lmk_kills") > 0:
            assert counters.get("pressure_escalations") > 0
        assert plan.ledger(counters)["consistent"]


class TestKillTeardown:
    @pytest.mark.parametrize("scheme", ["ZRAM", "Ariadne", "SWAP"])
    def test_terminate_app_keeps_auditor_green(self, tiny_trace, scheme):
        system, plan = _pressured(scheme, tiny_trace, "lmk", _INERT)
        run_light_scenario(system, duration_s=3.0)
        victim = plan.select_victim(system.scheme)
        assert victim is not None
        freed = system.scheme.terminate_app(victim)
        assert freed > 0
        assert not system.scheme.app_has_reclaimable(victim)
        InvariantAuditor().audit(system.scheme)

    def test_killed_app_relaunch_pays_process_create(self, tiny_trace):
        system, plan = _pressured("ZRAM", tiny_trace, "lmk", _INERT)
        system.launch_all(settle_seconds=2.0)
        victim = system.apps[0]
        plan._execute_kill(system.scheme, victim.uid)
        assert system.app_killed(victim.uid)
        result = system.relaunch(victim.name)
        create_ns = system.ctx.platform.process_create_ns
        assert result.breakdown.process_create_ns == create_ns
        assert result.latency_ns >= create_ns
        assert not victim.killed  # one cold launch, then back to normal
        assert system.ctx.counters.get("lmk_cold_relaunches") == 1
        again = system.relaunch(victim.name)
        assert again.breakdown.process_create_ns == 0

    def test_foreground_and_floor_protected(self, tiny_trace):
        system, plan = _pressured(
            "ZRAM", tiny_trace, "lmk",
            PressureConfig(policy="lmk", min_resident_apps=len(
                tiny_trace.apps
            ), **_HOT),
        )
        system.launch_all(settle_seconds=2.0)
        # Floor equals the app count: nothing is ever killable.
        assert plan.select_victim(system.scheme) is None

    def test_victim_never_foreground(self, tiny_trace):
        system, plan = _pressured("ZRAM", tiny_trace, "lmk", _INERT)
        system.launch_all(settle_seconds=2.0)
        foreground = system.scheme._foreground_uid
        victim = plan.select_victim(system.scheme)
        assert victim is not None and victim != foreground


class TestOomScore:
    """Victim ordering: app class dominates, LRU age breaks ties."""

    class _StubScheme:
        def __init__(self, uids, foreground=None):
            self._app_lru = OrderedDict((uid, None) for uid in uids)
            self._foreground_uid = foreground

        def app_has_reclaimable(self, uid):
            return True

    def test_higher_class_score_wins(self):
        plan = PressurePlan(PressureConfig(policy="lmk"))
        plan.set_app_class(1, "game")     # score 7
        plan.set_app_class(2, "system")   # score 0
        plan.set_app_class(3, "browser")  # score 5
        # LRU order: 1 oldest ... 3 newest; game still outranks all.
        scheme = self._StubScheme([2, 3, 1])
        assert plan.select_victim(scheme) == 1

    def test_ties_resolve_to_least_recently_used(self):
        plan = PressurePlan(PressureConfig(policy="lmk"))
        for uid in (1, 2, 3):
            plan.set_app_class(uid, "cached")
        scheme = self._StubScheme([2, 1, 3])
        assert plan.select_victim(scheme) == 2  # first in LRU order

    def test_unknown_class_rejected(self):
        plan = PressurePlan()
        with pytest.raises(ValueError, match="unknown app class"):
            plan.set_app_class(1, "daemonized")

    def test_recency_weight_can_outvote_class(self):
        plan = PressurePlan(PressureConfig(
            policy="lmk", oom_priority_weight=1.0, oom_recency_weight=100.0
        ))
        plan.set_app_class(1, "cached")  # score 8 but recently used
        plan.set_app_class(2, "social")  # score 4 and oldest
        scheme = self._StubScheme([2, 1])
        assert plan.select_victim(scheme) == 2


class TestGracefulDegradation:
    """Zpool exhaustion becomes policy, not an unhandled error."""

    def _starved_platform(self, trace):
        total = sum(app.total_bytes() for app in trace.apps)
        return PlatformConfig(
            dram_bytes=max(64 * KIB, int(total * 0.55)),
            zpool_bytes=64 * KIB,  # far too small for the workload
            swap_bytes=4 * MIB,
        )

    @pytest.mark.parametrize("policy", ["lmk", "swap", "hybrid"])
    def test_zram_survives_zpool_starvation(self, tiny_trace, policy):
        # ZRAM has no flash writeback: a starved zpool used to be a
        # hard MemoryPressureError.  Under a plan it must complete.
        system, plan = _pressured(
            "ZRAM", tiny_trace, policy,
            platform=self._starved_platform(tiny_trace),
        )
        result = run_light_scenario(system, duration_s=4.0)
        assert result.relaunches  # the scenario actually ran
        counters = system.ctx.counters
        relieved = (
            counters.get("lmk_kills")
            + counters.get("pressure_overflow_drops")
            + counters.get("pressure_admission_refusals")
        )
        assert relieved > 0
        assert plan.ledger(counters)["consistent"]

    def test_admission_refusal_counts_pages(self, tiny_trace):
        system, plan = _pressured(
            "ZRAM", tiny_trace, "swap",
            platform=self._starved_platform(tiny_trace),
        )
        run_light_scenario(system, duration_s=4.0)
        counters = system.ctx.counters
        if counters.get("pressure_admission_refusals"):
            assert counters.get("pressure_pages_refused") >= counters.get(
                "pressure_admission_refusals"
            )
        assert plan.ledger(counters)["consistent"]

    def test_ledger_reports_decision_counts(self, tiny_trace):
        system, plan = _pressured("ZRAM", tiny_trace, "lmk")
        run_light_scenario(system, duration_s=6.0)
        ledger = plan.ledger(system.ctx.counters)
        assert ledger["lmk_kills"] == (
            ledger["proactive_kills"] + ledger["emergency_kills"]
        )
        assert ledger["lmk_cold_relaunches"] <= ledger["lmk_kills"]
        assert ledger["consistent"]
