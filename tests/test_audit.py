"""Runtime invariant-auditor tests (repro.audit, REPRO_AUDIT=1).

The auditor's job is to catch *silent* O(1)-counter drift — bugs the
goldens only see if the drift changes a reported figure.  So the tests
run it two ways: against healthy systems, where every check must pass
while scenarios run, and against deliberately planted drift, where it
must raise a context-rich :class:`InvariantViolationError`.
"""

from __future__ import annotations

import pytest

from repro.audit import (
    AUDIT_ENV,
    AUDIT_INTERVAL_ENV,
    InvariantAuditor,
    audit_enabled,
    auditor_from_env,
)
from repro.errors import InvariantViolationError
from repro.sim import run_light_scenario
from tests.conftest import build_tiny


class TestEnvGating:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(AUDIT_ENV, raising=False)
        assert not audit_enabled()
        assert auditor_from_env() is None

    @pytest.mark.parametrize("value", ["1", "true", "ON", " yes "])
    def test_truthy_values_enable(self, monkeypatch, value):
        monkeypatch.setenv(AUDIT_ENV, value)
        assert audit_enabled()
        assert auditor_from_env() is not None

    @pytest.mark.parametrize("value", ["0", "off", "no", "", "2"])
    def test_everything_else_stays_off(self, monkeypatch, value):
        monkeypatch.setenv(AUDIT_ENV, value)
        assert auditor_from_env() is None

    def test_interval_env_parsed_and_clamped(self, monkeypatch):
        monkeypatch.setenv(AUDIT_ENV, "1")
        monkeypatch.setenv(AUDIT_INTERVAL_ENV, "5")
        assert auditor_from_env().interval == 5
        monkeypatch.setenv(AUDIT_INTERVAL_ENV, "0")
        assert auditor_from_env().interval == 1
        monkeypatch.setenv(AUDIT_INTERVAL_ENV, "junk")
        assert auditor_from_env().interval == 1

    def test_scheme_wires_auditor_from_env(self, monkeypatch, tiny_trace):
        monkeypatch.setenv(AUDIT_ENV, "1")
        system = build_tiny("Ariadne", tiny_trace)
        assert system.scheme._auditor is not None
        monkeypatch.delenv(AUDIT_ENV)
        assert build_tiny("Ariadne", tiny_trace).scheme._auditor is None


class TestIntervalSampling:
    def test_checkpoint_audits_every_nth_call(self, tiny_trace):
        system = build_tiny("ZRAM", tiny_trace)
        run_light_scenario(system, duration_s=2.0)
        auditor = InvariantAuditor(interval=3)
        for _ in range(7):
            auditor.checkpoint(system.scheme)
        assert auditor.audits_performed == 2

    def test_interval_must_be_positive(self):
        with pytest.raises(InvariantViolationError):
            InvariantAuditor(interval=0)


class TestHealthySystems:
    @pytest.mark.parametrize("scheme", ["DRAM", "ZRAM", "SWAP", "Ariadne"])
    def test_scenario_under_audit_passes(self, monkeypatch, tiny_trace, scheme):
        # The real wiring: every kswapd wakeup checkpoints, interval 1
        # audits on each.  A healthy run must finish without a raise
        # and must have actually audited (kswapd runs under pressure).
        monkeypatch.setenv(AUDIT_ENV, "1")
        system = build_tiny(scheme, tiny_trace)
        run_light_scenario(system, duration_s=3.0)
        if scheme != "DRAM":  # DRAM has nothing to reclaim: no wakeups
            assert system.scheme._auditor.audits_performed > 0

    def test_audited_run_matches_unaudited(self, monkeypatch, tiny_trace):
        # Auditing observes; it must never perturb the simulation.
        baseline = run_light_scenario(
            build_tiny("Ariadne", tiny_trace), duration_s=3.0
        )
        monkeypatch.setenv(AUDIT_ENV, "1")
        audited = run_light_scenario(
            build_tiny("Ariadne", tiny_trace), duration_s=3.0
        )
        assert [r.latency_ns for r in audited.relaunches] == [
            r.latency_ns for r in baseline.relaunches
        ]
        assert audited.counters == baseline.counters


class TestPlantedDrift:
    """Each planted bug models a forgotten hook on a real transition."""

    @pytest.fixture()
    def warmed(self, tiny_trace):
        system = build_tiny("Ariadne", tiny_trace)
        run_light_scenario(system, duration_s=2.0)
        return system.scheme

    def test_clean_state_passes(self, warmed):
        InvariantAuditor().audit(warmed)

    def test_catches_free_dram_counter_drift(self, warmed):
        warmed._free_dram_bytes += 4096  # a missed accounting hook
        with pytest.raises(InvariantViolationError, match="free-DRAM"):
            InvariantAuditor().audit(warmed)

    def test_catches_pool_occupancy_drift(self, warmed):
        warmed.ctx.dram._used_bytes += 1  # pool counter out of step
        with pytest.raises(InvariantViolationError, match="used_bytes"):
            InvariantAuditor().audit(warmed)

    def test_catches_lru_membership_leak(self, warmed):
        # A resident page missing from every LRU list is unreclaimable.
        organizer, page = next(
            (org, page)
            for org in warmed._organizers.values()
            for page in org.resident_pages()
        )
        organizer.remove_page(page)  # forgotten re-add after a touch
        with pytest.raises(InvariantViolationError, match="LRU"):
            InvariantAuditor().audit(warmed)

    def test_catches_zpool_class_tally_drift(self, warmed):
        # A free that forgot to decrement its size class's count.
        zpool = warmed.ctx.zpool
        cls = next(iter(zpool._class_tally))
        zpool._class_tally[cls] += 1
        with pytest.raises(
            InvariantViolationError, match="size-class tally drifted"
        ):
            InvariantAuditor().audit(warmed)

    def test_catches_zpool_class_tally_missing_class(self, warmed):
        # A store that forgot to count its class entirely.
        zpool = warmed.ctx.zpool
        cls = next(iter(zpool._class_tally))
        del zpool._class_tally[cls]
        with pytest.raises(
            InvariantViolationError, match="size-class tally drifted"
        ):
            InvariantAuditor().audit(warmed)

    @pytest.fixture()
    def swap_warmed(self, tiny_trace):
        system = build_tiny("SWAP", tiny_trace)
        run_light_scenario(system, duration_s=2.0)
        scheme = system.scheme
        assert scheme.ctx.flash_swap._slots  # the drift tests need slots
        return scheme

    def test_swap_clean_state_passes(self, swap_warmed):
        InvariantAuditor().audit(swap_warmed)

    def test_catches_leaked_swap_slot(self, swap_warmed):
        # A chunk drop that forgot to free its slot: the slot is live
        # in the area but no chunk owns it.
        area = swap_warmed.ctx.flash_swap
        slot_id = next(iter(area._slots))
        chunk = next(
            c for c in swap_warmed._chunks.values()
            if c.flash_slot == slot_id
        )
        del swap_warmed._chunks[chunk.chunk_id]
        with pytest.raises(InvariantViolationError, match="leak"):
            InvariantAuditor()._audit_swap_slots(swap_warmed)

    def test_catches_double_freed_swap_slot(self, swap_warmed):
        # A slot freed while a chunk still references it: that chunk's
        # next fault would read freed storage.
        area = swap_warmed.ctx.flash_swap
        slot_id = next(
            c.flash_slot
            for c in swap_warmed._chunks.values()
            if c.in_flash and c.flash_slot is not None
        )
        del area._slots[slot_id]
        with pytest.raises(InvariantViolationError, match="double free"):
            InvariantAuditor().audit(swap_warmed)
