"""Cross-scheme conformance battery.

Every registered scheme — the baselines, Ariadne, and the ZSWAP
writeback tier — must honor the same behavioral contracts regardless of
its internal machinery:

- *batch equivalence*: ``access_batch`` leaves exactly the state the
  per-page replay oracle leaves, on a platform tight
  enough that every migration tier (zpool overflow, flash writeback,
  readahead staging) actually engages;
- *fault degradation*: under an injected fault plan the scenario still
  completes and the injection ledger balances — every fault is retried,
  counted-degraded, or legitimately invisible to that scheme;
- *pressure off-identity*: an inert pressure plan (thresholds no PSI
  sample can reach) changes nothing observable;
- *audit cleanliness*: a full workload under ``REPRO_AUDIT=1`` passes
  every invariant checkpoint.
"""

from __future__ import annotations

from types import MethodType

import pytest

from repro.core import AriadneConfig, PressureConfig, RelaunchScenario
from repro.faults import FaultPlan, install_fault_plan
from repro.lmk import PressurePlan, install_pressure
from repro.sim import run_light_scenario

from tests.conftest import build_tiny
from tests.reference_organizers import reference_access_batch
from tests.test_access_batch import _system_fingerprint

SCHEMES = ["DRAM", "ZRAM", "SWAP", "ZSWAP", "Ariadne"]

#: A plan that observes but can never act: the ``swap`` policy never
#: kills, and a boost cap of 1 means escalation has nowhere to go even
#: when the saturated tiny platform pins PSI at 1.0 (the experiment's
#: ``hybrid`` inert plan relies on PSI < 1.0, which a roomier platform
#: guarantees but this one does not).
_INERT_PRESSURE = PressureConfig(
    policy="swap",
    some_threshold=1.0,
    full_threshold=1.0,
    kswapd_boost_max=1,
)

#: Counters the inert plan legitimately moves: PSI sampling is pure
#: observation, and overflow relief routes through the plan so the very
#: same oldest-chunk drops gain a decision label (``chunks_dropped``
#: stays in the compared set, proving the drops themselves are
#: identical).  Everything else must match bit-for-bit.
_OBSERVATION_COUNTERS = ("pressure_samples", "pressure_overflow_drops")


def _build(scheme_name, trace):
    """Tight tiny system: zpool overflows, so writeback tiers engage."""
    config = (
        AriadneConfig(scenario=RelaunchScenario.EHL)
        if scheme_name == "Ariadne"
        else None
    )
    return build_tiny(scheme_name, trace, config, tight=True)


def _drive(system):
    """Deterministic relaunch mix long enough to churn every tier."""
    system.launch_all()
    names = [app.name for app in system.apps]
    for name in names + names + names[:2]:
        system.relaunch(name)


class TestBatchEquivalence:
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_fast_path_matches_per_page_reference(
        self, scheme_name, tiny_trace
    ):
        def run(oracle):
            system = _build(scheme_name, tiny_trace)
            if oracle:
                system.scheme.access_batch = MethodType(
                    reference_access_batch, system.scheme
                )
            _drive(system)
            return _system_fingerprint(system)

        assert run(False) == run(True)


class TestFaultDegradation:
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_scenario_survives_with_balanced_ledger(
        self, scheme_name, tiny_trace
    ):
        system = _build(scheme_name, tiny_trace)
        plan = FaultPlan(
            seed=7,
            read_error_rate=0.05,
            write_error_rate=0.05,
            bitflip_rate=0.005,
        )
        install_fault_plan(system.ctx, plan)
        result = run_light_scenario(system, duration_s=3.0)
        assert result.relaunches, "scenario stalled under faults"
        ledger = plan.ledger(system.ctx.counters)
        assert ledger["consistent"], ledger


class TestPressureOffIdentity:
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_inert_plan_changes_nothing(self, scheme_name, tiny_trace):
        def run(with_pressure):
            system = _build(scheme_name, tiny_trace)
            if with_pressure:
                install_pressure(system, PressurePlan(_INERT_PRESSURE))
            _drive(system)
            fingerprint = _system_fingerprint(system)
            for name in _OBSERVATION_COUNTERS:
                fingerprint["counters"].pop(name, None)
            return fingerprint

        assert run(True) == run(False)


class TestAuditCleanliness:
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_full_workload_passes_every_checkpoint(
        self, scheme_name, tiny_trace, monkeypatch
    ):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        system = _build(scheme_name, tiny_trace)
        auditor = system.scheme._auditor
        assert auditor is not None
        _drive(system)  # raises InvariantViolationError on any drift
        # A scheme that never hit a checkpoint (DRAM evicts nothing on
        # a roomy enough run) still gets a final end-state audit.
        auditor.audit(system.scheme)
        assert auditor.audits_performed > 0
