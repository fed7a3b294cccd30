"""Differential and unit coverage of the organizers' handle-table core.

The organizers (``repro.mem.organizer``) keep per-page metadata in
numpy columns, touch runs with vectorized kernels and bound the
relaunch hotness update by a touched-page journal.  They promise the
numbers of the plain per-page organizers in
``tests/reference_organizers.py``: same final list orders, same
``list_operations``, and — inside a scheme — the same CPU ledger,
counters and clock.  This file pins that promise three ways:

- organizer-level randomized differentials (every list operation, with
  within-run duplicate pfns and relaunch bracketing — including the
  journal-bounded ``end_relaunch``'s warm-LRU ordering equivalence);
- system-level randomized differentials (launch / relaunch /
  force-compress / kill / terminate interleavings with fault and
  pressure plans installed), asserting full system fingerprints;
- auditor coverage: ``REPRO_AUDIT=1`` green, and planted-drift tests
  proving the handle-table cross-checks catch corrupted counts, list
  ids, and order/pos linkage.

Plus :class:`repro.mem.lru.IndexLruList` API edges.
"""

from __future__ import annotations

import random
from types import MethodType

import pytest

from reference_organizers import (
    ReferenceActiveInactiveOrganizer,
    ReferenceHotWarmColdOrganizer,
    reference_access_batch,
)
from tiny_workload import build_tiny
from repro.errors import InvariantViolationError, PageStateError
from repro.faults import FaultPlan, install_fault_plan
from repro.lmk import PressureConfig, PressurePlan, install_pressure
from repro.mem.organizer import ActiveInactiveOrganizer, HotWarmColdOrganizer
from repro.mem.page import Page


def make_pages(n: int, uid: int = 1) -> list[Page]:
    return [Page(pfn=1000 + i, uid=uid) for i in range(n)]


# --------------------------------------------------------------------------
# IndexLruList API edges
# --------------------------------------------------------------------------


def tri_views():
    org = HotWarmColdOrganizer(uid=1, hot_seed_limit=0)
    return org, org.cold


class TestIndexLruList:
    def test_matches_lrulist_semantics_on_basics(self):
        org, lru = tri_views()
        pages = make_pages(5)
        for page in pages:
            lru.add(page)
        assert len(lru) == 5
        assert [p.pfn for p in lru] == [p.pfn for p in pages]
        lru.touch(pages[0])
        assert [p.pfn for p in lru] == [p.pfn for p in pages[1:] + pages[:1]]
        assert lru.pop_lru() is pages[1]
        lru.remove(pages[2])
        with pytest.raises(PageStateError, match="not on list"):
            lru.remove(pages[2])
        assert pages[3] in lru and pages[2] not in lru
        assert len(lru) == 3

    def test_add_duplicate_raises(self):
        org, lru = tri_views()
        page = make_pages(1)[0]
        lru.add(page)
        with pytest.raises(PageStateError, match="already on list"):
            lru.add(page)

    def test_add_while_on_sibling_list_raises(self):
        org, _ = tri_views()
        page = make_pages(1)[0]
        org.warm.add(page)
        with pytest.raises(PageStateError, match="sibling"):
            org.cold.add(page)

    def test_add_run_duplicate_in_batch_raises(self):
        org, lru = tri_views()
        page = make_pages(1)[0]
        with pytest.raises(PageStateError, match="duplicate"):
            lru.add_run([page, page])

    def test_empty_pop_raises(self):
        org, lru = tri_views()
        with pytest.raises(PageStateError, match="empty"):
            lru.pop_lru()

    def test_touch_absent_raises(self):
        org, lru = tri_views()
        with pytest.raises(PageStateError, match="not on list"):
            lru.touch(make_pages(1)[0])

    def test_survives_compaction_churn(self):
        # Touch-churn far past the initial array capacity: liveness
        # filtering and compaction must keep order and count exact.
        org, lru = tri_views()
        pages = make_pages(8)
        for page in pages:
            lru.add(page)
        rng = random.Random(5)
        shadow = [p.pfn for p in pages]
        for _ in range(500):
            page = pages[rng.randrange(len(pages))]
            lru.touch(page)
            shadow.remove(page.pfn)
            shadow.append(page.pfn)
        assert [p.pfn for p in lru] == shadow
        assert len(lru) == 8


# --------------------------------------------------------------------------
# Organizer-level randomized differentials
# --------------------------------------------------------------------------


def drive_pair(reference, under_test, seed: int, steps: int = 400):
    """Apply one random op stream to the oracle and the organizer under
    test; compare throughout."""
    rng = random.Random(seed)
    pages = make_pages(40)
    added: list[Page] = []
    in_relaunch = False

    def sync_check():
        assert reference.list_operations == under_test.list_operations
        if isinstance(under_test, HotWarmColdOrganizer):
            names = ("hot", "warm", "cold")
        else:
            names = ("active", "inactive")
        for name in names:
            ref_list = getattr(reference, name)
            got_list = getattr(under_test, name)
            assert [p.pfn for p in ref_list] == [p.pfn for p in got_list], name
            assert len(ref_list) == len(got_list)
        under_test.audit_columnar_state()

    for step in range(steps):
        op = rng.random()
        if op < 0.30 and len(added) < len(pages):
            page = next(p for p in pages if p not in added)
            reference.add_page(page)
            under_test.add_page(page)
            added.append(page)
        elif op < 0.40 and len(added) < len(pages) - 3:
            batch = [p for p in pages if p not in added][: rng.randrange(1, 4)]
            reference.add_page_run(list(batch))
            under_test.add_page_run(list(batch))
            added.extend(batch)
        elif op < 0.70 and added:
            # Access run with duplicates (a pfn can repeat within a run),
            # short and long enough for both the per-page and the
            # vectorized kernel.
            run = [rng.choice(added) for _ in range(rng.randrange(1, 30))]
            reference.on_access_run(list(run))
            under_test.on_access_run(list(run))
        elif op < 0.78 and added:
            page = rng.choice(added)
            reference.on_access(page)
            under_test.on_access(page)
        elif op < 0.86 and added:
            ref_victim = reference.pop_victim()
            got_victim = under_test.pop_victim()
            assert ref_victim.pfn == got_victim.pfn
            added.remove(ref_victim)
        elif op < 0.90 and added:
            page = rng.choice(added)
            reference.remove_page(page)
            under_test.remove_page(page)
            added.remove(page)
        elif op < 0.95 and isinstance(under_test, HotWarmColdOrganizer):
            if in_relaunch:
                reference.end_relaunch()
                under_test.end_relaunch()
                in_relaunch = False
            else:
                reference.begin_relaunch()
                under_test.begin_relaunch()
                in_relaunch = True
        if step == 40 and isinstance(under_test, HotWarmColdOrganizer):
            reference.end_launch_window()
            under_test.end_launch_window()
        sync_check()
    if in_relaunch:
        reference.end_relaunch()
        under_test.end_relaunch()
        sync_check()


class TestOrganizerDifferential:
    @pytest.mark.parametrize("seed", range(6))
    def test_tri_list_random_interleavings(self, seed):
        drive_pair(
            ReferenceHotWarmColdOrganizer(uid=1, hot_seed_limit=6),
            HotWarmColdOrganizer(uid=1, hot_seed_limit=6),
            seed=seed,
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_two_list_random_interleavings(self, seed):
        drive_pair(
            ReferenceActiveInactiveOrganizer(uid=1, refill_batch=4),
            ActiveInactiveOrganizer(uid=1, refill_batch=4),
            seed=seed,
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_end_relaunch_journal_ordering_equivalence(self, seed):
        """The journal-bounded promotion scan must reproduce the oracle's
        full warm+cold walk *order*, not just its membership: the
        new hot list is rebuilt in warm-LRU-then-cold-LRU order, which
        seeds the next relaunch's demotion order.  Touch patterns with
        repeats, cold->warm promotions mid-relaunch, and untouched hot
        pages all have to land identically."""
        reference = ReferenceHotWarmColdOrganizer(uid=1, hot_seed_limit=8)
        under_test = HotWarmColdOrganizer(uid=1, hot_seed_limit=8)
        rng = random.Random(seed)
        pages = make_pages(24)
        for org in (reference, under_test):
            org.add_page_run(list(pages))
            org.end_launch_window()
        for _ in range(4):
            for org in (reference, under_test):
                org.begin_relaunch()
            for _ in range(rng.randrange(1, 5)):
                run = [rng.choice(pages) for _ in range(rng.randrange(1, 10))]
                reference.on_access_run(list(run))
                under_test.on_access_run(list(run))
            for org in (reference, under_test):
                org.end_relaunch()
            for name in ("hot", "warm", "cold"):
                assert [p.pfn for p in getattr(reference, name)] == [
                    p.pfn for p in getattr(under_test, name)
                ], name
            assert reference.list_operations == under_test.list_operations
            under_test.audit_columnar_state()

    def test_cold_page_touched_twice_in_one_run_counts_three_ops(self):
        # The trap case: occurrence 1 promotes cold->warm (+2), and the
        # second occurrence must count as a *warm* touch (+1) even
        # though the snapshot classified it cold.
        reference = ReferenceHotWarmColdOrganizer(uid=1, hot_seed_limit=0)
        under_test = HotWarmColdOrganizer(uid=1, hot_seed_limit=0)
        page = make_pages(1)[0]
        for org in (reference, under_test):
            org.add_page(page)
            base = org.list_operations
            org.on_access_run([page, page])
            assert org.list_operations - base == 3
        assert [p.pfn for p in reference.warm] == [
            p.pfn for p in under_test.warm
        ]

    def test_access_to_nonresident_page_raises(self):
        org = HotWarmColdOrganizer(uid=1, hot_seed_limit=4)
        resident, absent = make_pages(2)
        org.add_page(resident)
        with pytest.raises(PageStateError, match="not resident"):
            org.on_access(absent)
        with pytest.raises(PageStateError, match="not resident"):
            org.on_access_run([resident, absent])


# --------------------------------------------------------------------------
# System-level randomized differentials (faults + pressure installed)
# --------------------------------------------------------------------------


def _organizer_fingerprint(organizer) -> dict:
    if hasattr(organizer, "hot"):
        names = ("hot", "warm", "cold")
    else:
        names = ("active", "inactive")
    return {
        "lists": {
            name: [p.pfn for p in getattr(organizer, name)] for name in names
        },
        "list_operations": organizer.list_operations,
    }


def _system_fingerprint(system) -> dict:
    scheme = system.scheme
    return {
        "clock": system.ctx.clock.now_ns,
        "cpu": dict(system.ctx.cpu._by_pair),
        "counters": system.ctx.counters.as_dict(),
        "organizers": {
            uid: _organizer_fingerprint(org)
            for uid, org in scheme._organizers.items()
        },
    }


def _use_oracle(scheme) -> None:
    """Swap in the per-page reference organizers and replay path."""

    def make_reference(uid: int, hot_seed_limit: int):
        config = getattr(scheme, "config", None)
        if getattr(config, "hotness_org_enabled", False):
            return ReferenceHotWarmColdOrganizer(uid, hot_seed_limit)
        return ReferenceActiveInactiveOrganizer(uid)

    scheme._make_organizer = make_reference
    scheme.access_batch = MethodType(reference_access_batch, scheme)


def _drive_scenario(oracle: bool, scheme_name: str, trace, seed: int) -> dict:
    """One seeded lifecycle scenario; returns the system fingerprint."""
    # ZSWAP runs on the tight platform so its writeback/readahead
    # machinery (batch records, staging buffer) engages on both sides;
    # the roomy tiny platform would leave it a ZRAM clone.
    system = build_tiny(scheme_name, trace, tight=(scheme_name == "ZSWAP"))
    if oracle:
        _use_oracle(system.scheme)
    install_fault_plan(
        system.ctx,
        FaultPlan(
            seed=seed,
            read_error_rate=0.05,
            bitflip_rate=0.02,
            permanent_fraction=0.5,
        ),
    )
    install_pressure(system, PressurePlan(PressureConfig(policy="hybrid")))
    names = [live.name for live in system.apps]
    for name in names:
        system.launch_app(name)
    reference_types = (
        ReferenceActiveInactiveOrganizer, ReferenceHotWarmColdOrganizer,
    )
    assert all(
        isinstance(org, reference_types) == oracle
        for org in system.scheme._organizers.values()
    )
    rng = random.Random(seed)
    for _ in range(14):
        action = rng.random()
        name = rng.choice(names)
        live = system.app(name)
        if action < 0.55:
            system.relaunch(name)
        elif action < 0.70:
            system.switch_away(name)
        elif action < 0.85 and scheme_name != "DRAM":
            # The DRAM baseline never evicts (prepare_relaunch skips
            # it for the same reason).
            system.scheme.force_compress_app(
                live.uid, exclude_hot=rng.random() < 0.5
            )
        elif not live.killed:
            system.scheme.terminate_app(live.uid)
            system.mark_killed(live.uid)
    return _system_fingerprint(system)


class TestSystemDifferential:
    @pytest.mark.parametrize("scheme_name", ["Ariadne", "ZRAM", "ZSWAP"])
    @pytest.mark.parametrize("seed", [11, 23])
    def test_lifecycle_interleavings_fingerprint_identical(
        self, tiny_trace, scheme_name, seed
    ):
        oracle_fp = _drive_scenario(True, scheme_name, tiny_trace, seed)
        assert _drive_scenario(False, scheme_name, tiny_trace, seed) == oracle_fp

    def test_swap_and_dram_schemes_fingerprint_identical(self, tiny_trace):
        for scheme_name in ("SWAP", "DRAM"):
            assert _drive_scenario(
                True, scheme_name, tiny_trace, 7
            ) == _drive_scenario(False, scheme_name, tiny_trace, 7)


# --------------------------------------------------------------------------
# Auditor: REPRO_AUDIT=1 green + planted drift caught
# --------------------------------------------------------------------------


class TestColumnarAudit:
    def test_audited_columnar_scenario_is_green(
        self, tiny_trace, monkeypatch
    ):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        system = build_tiny("Ariadne", tiny_trace)
        names = [live.name for live in system.apps]
        for name in names:
            system.launch_app(name)
        for name in (names * 2)[:5]:
            system.relaunch(name)
        assert system.scheme._auditor is not None
        assert system.scheme._auditor.audits_performed > 0

    def _audited_organizer(self):
        org = HotWarmColdOrganizer(uid=1, hot_seed_limit=2)
        org.add_page_run(make_pages(6))
        org.audit_columnar_state()  # sanity: green before planting drift
        return org

    def test_planted_count_drift_is_caught(self):
        org = self._audited_organizer()
        org.cold._count += 1
        with pytest.raises(InvariantViolationError, match="census"):
            org.audit_columnar_state()

    def test_planted_list_id_corruption_is_caught(self):
        org = self._audited_organizer()
        table = org._table
        table.list_id[table.index[make_pages(6)[-1].pfn]] = 99
        with pytest.raises(InvariantViolationError, match="census|accounted"):
            org.audit_columnar_state()

    def test_planted_pos_corruption_is_caught(self):
        org = self._audited_organizer()
        table = org._table
        handle = table.index[make_pages(6)[0].pfn]
        table.pos[handle] += 1  # points at a neighbor's slot (or dead)
        with pytest.raises(InvariantViolationError, match="linkage|window"):
            org.audit_columnar_state()

    def test_planted_handle_table_corruption_is_caught(self):
        org = self._audited_organizer()
        org._table.index[999999] = 0  # alias two pfns to one handle
        with pytest.raises(InvariantViolationError, match="handle table"):
            org.audit_columnar_state()
