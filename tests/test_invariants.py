"""Whole-system invariants under randomized operation sequences.

Property-based state-machine testing: whatever sequence of launches,
relaunches, switches, and forced compressions a scheme executes, the
bookkeeping must stay coherent — every page accounted for exactly once,
pools within capacity, free-memory arithmetic consistent.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AriadneConfig, RelaunchScenario
from repro.mem.page import PageLocation
from repro.trace import TraceGenerator
from tests.conftest import TINY_PROFILES, build_tiny

APPS = [profile.name for profile in TINY_PROFILES]


def fresh_system(scheme_name: str):
    trace = TraceGenerator(seed=55).generate_workload(
        profiles=TINY_PROFILES, n_sessions=3
    )
    config = None
    if scheme_name == "Ariadne":
        config = AriadneConfig(scenario=RelaunchScenario.AL)
    system = build_tiny(scheme_name, trace, config)
    system.launch_all()
    return system


def assert_invariants(system) -> None:
    scheme = system.scheme
    ctx = system.ctx
    for live in system.apps:
        organizer = scheme.organizer(live.uid)
        resident = {page.pfn for page in organizer.resident_pages()}
        stored = {
            record.pfn for record in live.trace.pages
            if record.pfn in scheme._stored_by_pfn
        }
        staged = {
            record.pfn for record in live.trace.pages
            if getattr(scheme, "staging", None) is not None
            and record.pfn in scheme.staging
        }
        lost = {
            record.pfn for record in live.trace.pages
            if record.pfn in scheme._lost_pfns
        }
        all_pfns = {record.pfn for record in live.trace.pages}
        # Every page is in exactly one place.
        assert resident | stored | staged | lost == all_pfns
        assert not (resident & stored)
        assert not (resident & staged)
        assert not (stored & staged)
        # Resident pages really occupy DRAM.
        for page in organizer.resident_pages():
            assert ctx.dram.is_resident(page)
            assert page.location is PageLocation.DRAM
    # Pools within capacity; free accounting non-negative.
    assert 0 <= ctx.zpool.used_bytes <= ctx.zpool.capacity_bytes
    assert 0 <= ctx.flash_swap.used_bytes <= ctx.flash_swap.capacity_bytes
    assert scheme.free_dram_bytes() >= 0
    # The O(1) running counters equal a from-scratch recompute: the
    # incremental accounting layer may never drift from ground truth.
    assert ctx.dram.used_bytes == ctx.dram.audit_used_bytes()
    assert ctx.zpool.used_bytes == ctx.zpool.audit_used_bytes()
    assert scheme.free_dram_bytes() == scheme.audit_free_dram_bytes()
    # Stored-chunk placement fields are consistent.
    for chunk in scheme.stored_chunks():
        if chunk.in_zpool:
            assert chunk.zpool_handle is not None
            assert ctx.zpool.contains(chunk.zpool_handle)
        else:
            assert chunk.flash_slot is not None


@pytest.mark.parametrize("scheme_name", ["ZRAM", "SWAP", "Ariadne"])
def test_invariants_after_launch(scheme_name):
    assert_invariants(fresh_system(scheme_name))


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from(["ZRAM", "Ariadne"]),
    st.lists(
        st.tuples(
            st.sampled_from(["relaunch", "switch", "prepare_al", "prepare_ehl"]),
            st.integers(min_value=0, max_value=len(APPS) - 1),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_invariants_under_random_operations(scheme_name, operations):
    system = fresh_system(scheme_name)
    for op, app_index in operations:
        name = APPS[app_index]
        if op == "relaunch":
            system.relaunch(name)
        elif op == "switch":
            system.switch_away(name)
        elif op == "prepare_al":
            system.prepare_relaunch(name, RelaunchScenario.AL)
        else:
            system.prepare_relaunch(name, RelaunchScenario.EHL)
        assert_invariants(system)


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from(["ZRAM", "SWAP", "Ariadne"]),
    st.lists(
        st.tuples(
            st.sampled_from(
                # admit (relaunch faults pages back in), evict
                # (prepare/compress force reclaim), and writeback
                # (Ariadne moves cold chunks to flash under pressure
                # and on background reclaim) all exercise the hooks.
                ["relaunch", "compress_all", "compress_cold",
                 "background_reclaim", "prepare_al"],
            ),
            st.integers(min_value=0, max_value=len(APPS) - 1),
        ),
        min_size=1,
        max_size=10,
    ),
)
def test_free_counter_equals_recompute_under_admit_evict_writeback(
    scheme_name, operations
):
    """The running free-bytes counter tracks a from-scratch recompute
    through randomized admit/evict/writeback sequences — the invariant
    the O(1) accounting layer must uphold to be number-invariant."""
    system = fresh_system(scheme_name)
    scheme = system.scheme
    for op, app_index in operations:
        name = APPS[app_index]
        uid = system.app(name).uid
        if op == "relaunch":
            system.relaunch(name)
        elif op == "compress_all":
            scheme.force_compress_app(uid)
        elif op == "compress_cold":
            scheme.force_compress_app(uid, exclude_hot=True)
        elif op == "background_reclaim":
            scheme.background_reclaim()
        else:
            system.prepare_relaunch(name, RelaunchScenario.AL)
        assert system.ctx.dram.used_bytes == system.ctx.dram.audit_used_bytes()
        assert system.ctx.zpool.used_bytes == system.ctx.zpool.audit_used_bytes()
        assert scheme.free_dram_bytes() == scheme.audit_free_dram_bytes()


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=2))
def test_clock_monotone_under_relaunch_cycles(app_index):
    system = fresh_system("Ariadne")
    name = APPS[app_index]
    stamps = [system.ctx.clock.now_ns]
    for _ in range(3):
        system.relaunch(name)
        stamps.append(system.ctx.clock.now_ns)
    assert stamps == sorted(stamps)
    assert stamps[-1] > stamps[0]


def test_counters_consistent_after_full_cycle():
    system = fresh_system("Ariadne")
    for name in APPS:
        system.prepare_relaunch(name, RelaunchScenario.AL)
        system.relaunch(name)
    counters = system.ctx.counters
    # Each decompressed page was once compressed (or prefetched from a
    # compressed chunk); compression events cannot be outnumbered.
    assert counters.get("pages_compressed") >= counters.get("pages_decompressed") - \
        counters.get("staging_recompressed")
    # Ratio bookkeeping is self-consistent.
    assert counters.get("bytes_stored") <= counters.get("bytes_original")
