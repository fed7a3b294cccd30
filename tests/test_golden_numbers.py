"""Golden-number tests: key fig2/fig13 outputs and a full heavy-scenario
fingerprint pinned to the pre-optimization seed.

Every performance change in this codebase is required to be
*number-invariant*: the optimized codecs emit byte-identical blobs, the
batched reclaim selects identical victims, batched access replay
coalesces only bookkeeping, and the caches memoize only deterministic
facts.  These tests pin exact figure outputs captured from the seed
implementation — any drift, however small, is a bug in an optimization,
not a tolerance issue, which is why comparisons are exact (``==``)
rather than approximate.

The fig2/fig13 golden values were captured by running
``fig2.run(quick=True)`` and ``fig13.run(quick=True)`` on the seed
revision (commit 017f06b).  The heavy-scenario fingerprint was captured
from the same numbers at the fast-path PR revision (verified bit-equal
to the seed) and locks the batched replay path well beyond what the
figure outputs exercise: wall clock, every relaunch latency, per-thread
and per-activity CPU, every counter, and flash traffic.  The light
scenario echoes pin a whole 60 s Ariadne run over the five-app
workload.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import experiment
from repro.experiments.common import scenario_build, workload_trace
from repro.sim.scenario import run_heavy_scenario, run_light_scenario

#: Seed fig2 (quick): relaunch latency in ms per scheme per app.
GOLDEN_FIG2_LATENCY_MS = {
    "DRAM": {
        "YouTube": 67.999935,
        "Twitter": 59.999976,
        "Firefox": 94.999788,
    },
    "ZRAM": {
        "YouTube": 145.514229,
        "Twitter": 129.19431,
        "Firefox": 229.505808,
    },
    "SWAP": {
        "YouTube": 321.262029,
        "Twitter": 262.488717,
        "Firefox": 477.72576,
    },
}

#: Seed fig13 (quick): compression ratio per (scheme, app).
GOLDEN_FIG13_RATIOS = {
    ("ZRAM", "YouTube"): 2.2817902890307433,
    ("ZRAM", "Twitter"): 2.505847196404621,
    ("ZRAM", "Firefox"): 2.411207987876279,
    ("Ariadne-EHL-1K-4K-16K", "YouTube"): 2.5162762438398705,
    ("Ariadne-EHL-1K-4K-16K", "Twitter"): 2.7833711957146265,
    ("Ariadne-EHL-1K-4K-16K", "Firefox"): 2.7009784122849676,
    ("Ariadne-AL-512-2K-16K", "YouTube"): 2.2257608909309345,
    ("Ariadne-AL-512-2K-16K", "Twitter"): 2.3988222643523125,
    ("Ariadne-AL-512-2K-16K", "Firefox"): 2.3685737164797063,
}


#: Quick-mode heavy scenario (3 apps, 10 simulated seconds, Ariadne):
#: the full measured state of one run, bit-exact.
GOLDEN_HEAVY_FINGERPRINT = {
    "wall_ns": 10066963733,
    "n_relaunches": 135,
    # blake2b-16 over the comma-joined per-relaunch latencies (ns).
    "relaunch_digest": "58f3c15084a7dcaa9e870888bbba8074",
    "cpu_by_thread": {"app": 183710082, "kswapd": 3243473738},
    "cpu_by_activity": {
        "compress": 1810517888,
        "decompress": 136216832,
        "fault": 9344000,
        "file_writeback": 1413120000,
        "flash_read": 2496000,
        "list_ops": 38849100,
        "writeback": 16640000,
    },
    "counters": {
        "bytes_original": 3911680,
        "bytes_stored": 1363691,
        "chunks_written_back": 40,
        "compress_ops": 239,
        "decompress_ops": 73,
        "dram_bytes_moved": 653787136,
        "file_pages_written": 4416,
        "flash_reads": 6,
        "pages_compressed": 955,
        "pages_decompressed": 292,
        "pages_swapped_in": 292,
        "pages_written_back": 160,
        "predecomp_skipped_cold": 66,
    },
    "flash_bytes_read": 2429888,
    "flash_bytes_written": 15320320,
}


#: The 60 s Ariadne light scenario on the 5-app workload: simulated
#: wall, relaunch count, compression count and kswapd CPU, exact.
GOLDEN_LIGHT_ECHOES = {
    "simulated_wall_ns": 60789924846,
    "relaunches": 56,
    "compress_ops": 525,
    "kswapd_cpu_ns": 4613256710,
}


#: zswap_compare (quick), ZSWAP cell: the writeback tier's measured
#: behavior on the tight-zpool platform, captured at the PR-9 revision
#: that introduced the scheme.  Exact — the simulation is all-integer,
#: so any drift is an unintended behavior change, not noise.
GOLDEN_ZSWAP_QUICK = {
    "relaunches": 9,
    "mean_latency_ms": 121.08621344444444,
    "zswap": {
        "zswap_writeback_batches": 27,
        "zswap_pages_written_back": 864,
        "zswap_batch_pages_max": 32,
        "zswap_readahead_reads": 350,
        "zswap_readahead_hits": 302,
        "zswap_readahead_wasted": 25,
        "zswap_readahead_aborted": 0,
    },
}

#: zswap_sensitivity (quick): per-config (batches, pages written back,
#: readahead reads, readahead hits, per-device write commands).  Pins
#: the knob responses themselves: page-cluster 0 kills readahead,
#: device count 2 stripes the command train near-evenly.
GOLDEN_ZSWAP_SENSITIVITY = {
    "c32-p0-d1": (26, 832, 0, 0, (380,)),
    "c32-p0-d2": (26, 832, 0, 0, (189, 191)),
    "c32-p3-d1": (27, 864, 350, 302, (395,)),
    "c32-p3-d2": (27, 864, 350, 302, (204, 191)),
}


@pytest.fixture(scope="module")
def fig2_result():
    return experiment("fig2").run(quick=True)


@pytest.fixture(scope="module")
def fig13_result():
    return experiment("fig13").run(quick=True)


class TestFig2Golden:
    def test_schemes_present(self, fig2_result):
        assert set(fig2_result.latency_ms) == set(GOLDEN_FIG2_LATENCY_MS)

    def test_latencies_bit_identical_to_seed(self, fig2_result):
        for scheme, per_app in GOLDEN_FIG2_LATENCY_MS.items():
            for app, golden_ms in per_app.items():
                measured = fig2_result.latency_ms[scheme][app]
                assert measured == golden_ms, (
                    f"fig2 {scheme}/{app}: {measured!r} != seed {golden_ms!r}"
                )


class TestFig13Golden:
    def test_ratios_bit_identical_to_seed(self, fig13_result):
        for (scheme, app), golden_ratio in GOLDEN_FIG13_RATIOS.items():
            measured = fig13_result.ratio(scheme, app)
            assert measured == golden_ratio, (
                f"fig13 {scheme}/{app}: {measured!r} != seed {golden_ratio!r}"
            )

    def test_headline_claim_still_holds(self, fig13_result):
        assert fig13_result.ehl_beats_zram_everywhere()


@pytest.fixture(scope="module")
def zswap_compare_result():
    return experiment("zswap_compare").run(quick=True)


class TestZswapGolden:
    def test_scheme_matrix_includes_zswap(self, zswap_compare_result):
        assert set(zswap_compare_result.cells) == {
            "DRAM", "ZRAM", "SWAP", "ZSWAP", "Ariadne",
        }

    def test_zswap_cell_bit_identical(self, zswap_compare_result):
        cell = zswap_compare_result.cells["ZSWAP"]
        assert cell.relaunches == GOLDEN_ZSWAP_QUICK["relaunches"]
        assert (
            cell.mean_latency_ms == GOLDEN_ZSWAP_QUICK["mean_latency_ms"]
        )
        assert cell.zswap == GOLDEN_ZSWAP_QUICK["zswap"]

    def test_baselines_carry_no_zswap_traffic(self, zswap_compare_result):
        for scheme in ("DRAM", "ZRAM", "SWAP", "Ariadne"):
            counters = zswap_compare_result.cells[scheme].zswap
            assert not any(counters.values()), (scheme, counters)

    def test_sensitivity_knobs_bit_identical(self):
        result = experiment("zswap_sensitivity").run(quick=True)
        measured = {
            key: (
                cell.writeback_batches,
                cell.pages_written_back,
                cell.readahead_reads,
                cell.readahead_hits,
                cell.write_commands_by_device,
            )
            for key, cell in result.cells.items()
        }
        assert measured == GOLDEN_ZSWAP_SENSITIVITY


@pytest.fixture(scope="module")
def heavy_scenario_result():
    trace = workload_trace(n_apps=3, sessions=4)
    system = scenario_build("Ariadne", trace)
    return run_heavy_scenario(system, duration_s=10.0)


class TestHeavyScenarioFingerprint:
    """Bit-exact scenario fingerprint: locks the batched access replay
    (and every other number-invariant optimization) against the seed's
    measured state, far beyond the per-figure golden values."""

    def test_wall_clock(self, heavy_scenario_result):
        assert (
            heavy_scenario_result.wall_ns
            == GOLDEN_HEAVY_FINGERPRINT["wall_ns"]
        )

    def test_every_relaunch_latency(self, heavy_scenario_result):
        latencies = [r.latency_ns for r in heavy_scenario_result.relaunches]
        assert len(latencies) == GOLDEN_HEAVY_FINGERPRINT["n_relaunches"]
        digest = hashlib.blake2b(
            ",".join(map(str, latencies)).encode(), digest_size=16
        ).hexdigest()
        assert digest == GOLDEN_HEAVY_FINGERPRINT["relaunch_digest"]

    def test_cpu_accounting(self, heavy_scenario_result):
        assert (
            heavy_scenario_result.cpu_by_thread
            == GOLDEN_HEAVY_FINGERPRINT["cpu_by_thread"]
        )
        assert (
            heavy_scenario_result.cpu_by_activity
            == GOLDEN_HEAVY_FINGERPRINT["cpu_by_activity"]
        )

    def test_all_counters(self, heavy_scenario_result):
        assert (
            heavy_scenario_result.counters
            == GOLDEN_HEAVY_FINGERPRINT["counters"]
        )

    def test_flash_traffic(self, heavy_scenario_result):
        assert (
            heavy_scenario_result.flash_bytes_read
            == GOLDEN_HEAVY_FINGERPRINT["flash_bytes_read"]
        )
        assert (
            heavy_scenario_result.flash_bytes_written
            == GOLDEN_HEAVY_FINGERPRINT["flash_bytes_written"]
        )


class TestLightScenarioEchoes:
    def test_60s_ariadne_light_scenario(self):
        system = scenario_build("Ariadne", workload_trace(n_apps=5))
        result = run_light_scenario(system, duration_s=60.0)
        assert {
            "simulated_wall_ns": result.wall_ns,
            "relaunches": len(result.relaunches),
            "compress_ops": result.counters.get("compress_ops", 0),
            "kswapd_cpu_ns": result.kswapd_cpu_ns,
        } == GOLDEN_LIGHT_ECHOES
