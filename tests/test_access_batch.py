"""Differential tests for the batched access path.

The contract of ``SwapScheme.access_batch`` (and every bulk op beneath
it) is *state equivalence*: coalescing resident runs must leave exactly
the simulator state — list orders, CPU ledger, counters, clock,
relaunch results — the per-page replay oracle
(``tests/reference_organizers.reference_access_batch``) leaves.  These
tests drive full miniature workloads through both paths and compare
everything observable.
"""

from __future__ import annotations

import random
from types import MethodType

import pytest

from repro.core import AriadneConfig, RelaunchScenario
from repro.mem import ActiveInactiveOrganizer, HotWarmColdOrganizer, Page

from tests.conftest import build_tiny
from tests.reference_organizers import reference_access_batch

SCHEMES = ["ZRAM", "SWAP", "ZSWAP", "Ariadne", "DRAM"]


def _lru_order(lru) -> list[int]:
    return [page.pfn for page in lru]


def _organizer_fingerprint(organizer) -> dict:
    if isinstance(organizer, HotWarmColdOrganizer):
        lists = {
            "hot": _lru_order(organizer.hot),
            "warm": _lru_order(organizer.warm),
            "cold": _lru_order(organizer.cold),
        }
    else:
        lists = {
            "active": _lru_order(organizer.active),
            "inactive": _lru_order(organizer.inactive),
        }
    return {
        "lists": lists,
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
        "stored": sorted(scheme._stored_by_pfn),
        "resident": sorted(system.ctx.dram._resident),
        "relaunches": [
            (
                r.app_name,
                r.latency_ns,
                r.pages_from_dram,
                r.pages_from_zpool,
                r.pages_from_flash,
                r.pages_from_staging,
            )
            for app in system.apps
            for r in app.relaunch_results
        ],
    }


def _run_workload(scheme_name, tiny_trace, oracle: bool):
    config = (
        AriadneConfig(scenario=RelaunchScenario.EHL)
        if scheme_name == "Ariadne"
        else None
    )
    system = build_tiny(scheme_name, tiny_trace, config)
    if oracle:
        # Rebind the per-page replay oracle over the scheme's own
        # replay: the reference behavior it must match.
        system.scheme.access_batch = MethodType(
            reference_access_batch, system.scheme
        )
    system.launch_all()
    names = [app.name for app in system.apps]
    for name in names + names[:2]:
        system.relaunch(name)
    return _system_fingerprint(system)


class TestBatchedReplayEquivalence:
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_fast_path_matches_per_page_reference(
        self, scheme_name, tiny_trace
    ):
        fast = _run_workload(scheme_name, tiny_trace, oracle=False)
        reference = _run_workload(scheme_name, tiny_trace, oracle=True)
        assert fast == reference


def _run_script(scheme_name, tiny_trace, oracle, driver):
    """Drive ``driver(system)`` on fast vs reference replay paths."""
    config = (
        AriadneConfig(scenario=RelaunchScenario.AL)
        if scheme_name == "Ariadne"
        else None
    )
    system = build_tiny(scheme_name, tiny_trace, config)
    if oracle:
        system.scheme.access_batch = MethodType(
            reference_access_batch, system.scheme
        )
    driver(system)
    return _system_fingerprint(system)


class TestAdversarialReplayEquivalence:
    """Adversarial residency sequences, fast vs reference.

    Each driver engineers one way residency can change between or
    within replays of the same memoized run — repeated replays with
    background reclaim in between, relaunch purge, writeback between
    replays, chunk-sibling materialization, eviction mid-batch under
    pressure — and the fingerprints must still match the per-page
    reference on every observable.
    """

    def _compare(self, scheme_name, tiny_trace, driver):
        fast = _run_script(scheme_name, tiny_trace, False, driver)
        reference = _run_script(scheme_name, tiny_trace, True, driver)
        assert fast == reference

    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_repeated_same_session_replays(self, scheme_name, tiny_trace):
        # The same memoized AccessRun objects replay back to back,
        # with the relaunch-tail background reclaim evicting in
        # between.
        def driver(system):
            system.launch_all()
            for app in system.apps:
                for _ in range(3):
                    system.relaunch(app.name, 0)

        self._compare(scheme_name, tiny_trace, driver)

    @pytest.mark.parametrize("scheme_name", ["ZRAM", "Ariadne"])
    def test_relaunch_purge_between_replays(self, scheme_name, tiny_trace):
        # prepare_relaunch force-compresses the target between two
        # replays of the same run: the second replay must fault it
        # back page by page.
        def driver(system):
            system.launch_all()
            name = system.apps[0].name
            system.relaunch(name, 0)
            system.prepare_relaunch(name, RelaunchScenario.AL)
            system.relaunch(name, 0)
            system.prepare_relaunch(name, RelaunchScenario.EHL)
            system.relaunch(name, 0)

        self._compare(scheme_name, tiny_trace, driver)

    def test_writeback_between_replays(self, tiny_trace):
        # Ariadne's cold writeback runs between two replays of the same
        # session (background reclaim drains cold chunks to flash).
        def driver(system):
            system.launch_all()
            name = system.apps[0].name
            system.relaunch(name, 0)
            for _ in range(3):
                system.scheme.background_reclaim()
            system.relaunch(name, 0)

        self._compare("Ariadne", tiny_trace, driver)

    def test_chunk_sibling_materialization(self, tiny_trace):
        # One access to a page of a multi-page cold chunk materializes
        # its siblings; the following batch replay must see them as
        # resident hits.
        def driver(system):
            system.launch_all()
            name = system.apps[0].name
            system.prepare_relaunch(name, RelaunchScenario.AL)
            live = system.app(name)
            session = live.trace.sessions[0]
            system.scheme.access(live.pages[session.execution_pfns[0]])
            system.relaunch(name, 0)
            system.relaunch(name, 0)

        self._compare("Ariadne", tiny_trace, driver)


class TestBulkOrganizerOps:
    """on_access_run / add_page_run equal their per-page loops."""

    def _random_mixed_sequence(self, pages, seed):
        rng = random.Random(seed)
        return [rng.choice(pages) for _ in range(64)]

    @pytest.mark.parametrize("organizer_cls", ["ai", "hwc"])
    @pytest.mark.parametrize("relaunch", [False, True])
    def test_on_access_run_equivalence(self, organizer_cls, relaunch):
        def make():
            if organizer_cls == "ai":
                org = ActiveInactiveOrganizer(uid=1)
            else:
                org = HotWarmColdOrganizer(uid=1, hot_seed_limit=4)
            pages = [Page(pfn=i, uid=1) for i in range(12)]
            for page in pages:
                org.add_page(page)
            # Promote a few so the run crosses list boundaries.
            for page in pages[3:7]:
                org.on_access(page)
            if relaunch and organizer_cls == "hwc":
                org.begin_relaunch()
            return org, pages

        bulk_org, bulk_pages = make()
        loop_org, loop_pages = make()
        sequence = self._random_mixed_sequence(range(12), seed=7)

        bulk_org.on_access_run([bulk_pages[i] for i in sequence])
        for i in sequence:
            loop_org.on_access(loop_pages[i])

        assert _organizer_fingerprint(bulk_org) == _organizer_fingerprint(
            loop_org
        )
        if relaunch and organizer_cls == "hwc":
            # Both paths must have recorded the same relaunch-touched
            # set: the hotness update rebuilds identical lists.
            bulk_org.end_relaunch()
            loop_org.end_relaunch()
            assert _organizer_fingerprint(bulk_org) == _organizer_fingerprint(
                loop_org
            )

    def test_hwc_add_page_run_splits_seed_budget(self):
        bulk = HotWarmColdOrganizer(uid=1, hot_seed_limit=5)
        loop = HotWarmColdOrganizer(uid=1, hot_seed_limit=5)
        bulk_pages = [Page(pfn=i, uid=1) for i in range(8)]
        loop_pages = [Page(pfn=i, uid=1) for i in range(8)]
        bulk.add_page_run(bulk_pages[:3])  # all inside the seed budget
        bulk.add_page_run(bulk_pages[3:])  # straddles the budget boundary
        for page in loop_pages:
            loop.add_page(page)
        assert _organizer_fingerprint(bulk) == _organizer_fingerprint(loop)

    def test_hwc_add_page_run_during_relaunch_goes_hot(self):
        org = HotWarmColdOrganizer(uid=1, hot_seed_limit=0)
        org.end_launch_window()
        org.begin_relaunch()
        batch = [Page(pfn=i, uid=1) for i in range(3)]
        org.add_page_run(batch)
        assert _lru_order(org.hot) == [0, 1, 2]
