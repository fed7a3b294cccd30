"""Ariadne reproduction: hotness-aware, size-adaptive compressed swap.

A trace-driven reproduction of *Ariadne* (HPCA 2025): the full mobile
compressed-swap stack — real from-scratch codecs, a zsmalloc-style
zpool, a flash swap device, an Android-like memory-pressure simulator —
plus the paper's contribution (HotnessOrg + AdaptiveComp + PreDecomp)
and its baselines (ZRAM, SWAP, DRAM).

Quickstart::

    from repro import (
        AriadneConfig, TraceGenerator, APP_CATALOG, make_system,
    )

    trace = TraceGenerator(seed=1).generate_workload(APP_CATALOG[:3])
    system = make_system("Ariadne", trace, ariadne_config=AriadneConfig())
    system.launch_all()
    result = system.relaunch("YouTube")
    print(f"relaunch took {result.latency_ms:.1f} ms (simulated)")

The experiment harness regenerating every table and figure of the paper
lives in :mod:`repro.experiments` (``python -m repro.experiments list``).
"""

from .clock import SimClock
from .compression import (
    BdiCompressor,
    Compressor,
    LatencyModel,
    Lz4Compressor,
    LzoCompressor,
    NullCompressor,
    available_compressors,
    chunk_compress,
    chunk_decompress,
    get_compressor,
)
from .core import (
    AriadneConfig,
    AriadneScheme,
    DramScheme,
    FlashSwapScheme,
    PlatformConfig,
    RelaunchScenario,
    SwapScheme,
    ZramScheme,
    build_context,
    pixel7_platform,
)
from .energy import EnergyCoefficients, EnergyModel, EnergyReport
from .errors import (
    CompressionError,
    ConfigError,
    CorruptDataError,
    FlashFullError,
    MemoryPressureError,
    PageStateError,
    ReproError,
    TraceFormatError,
    ZpoolFullError,
)
from .flash import FlashDevice, FlashSwapArea
from .mem import (
    Hotness,
    IndexLruList,
    MainMemory,
    Page,
    PageKind,
    PageLocation,
)
from .metrics import CpuAccount, Counters, LatencyBreakdown, RelaunchResult
from .sim import (
    MobileSystem,
    make_system,
    run_heavy_scenario,
    run_light_scenario,
)
from .trace import (
    AppTrace,
    TraceGenerator,
    WorkloadTrace,
    load_trace,
    save_trace,
)
from .workload import APP_CATALOG, AppProfile, profile_by_name
from .zpool import Zpool

__version__ = "1.0.0"

__all__ = [
    "APP_CATALOG",
    "AppProfile",
    "AppTrace",
    "AriadneConfig",
    "AriadneScheme",
    "BdiCompressor",
    "CompressionError",
    "Compressor",
    "ConfigError",
    "CorruptDataError",
    "Counters",
    "CpuAccount",
    "DramScheme",
    "EnergyCoefficients",
    "EnergyModel",
    "EnergyReport",
    "FlashDevice",
    "FlashFullError",
    "FlashSwapArea",
    "FlashSwapScheme",
    "Hotness",
    "IndexLruList",
    "LatencyBreakdown",
    "LatencyModel",
    "Lz4Compressor",
    "LzoCompressor",
    "MainMemory",
    "MemoryPressureError",
    "MobileSystem",
    "NullCompressor",
    "Page",
    "PageKind",
    "PageLocation",
    "PageStateError",
    "PlatformConfig",
    "RelaunchResult",
    "RelaunchScenario",
    "ReproError",
    "SimClock",
    "SwapScheme",
    "TraceFormatError",
    "TraceGenerator",
    "WorkloadTrace",
    "ZpoolFullError",
    "Zpool",
    "ZramScheme",
    "available_compressors",
    "build_context",
    "chunk_compress",
    "chunk_decompress",
    "get_compressor",
    "load_trace",
    "make_system",
    "pixel7_platform",
    "profile_by_name",
    "run_heavy_scenario",
    "run_light_scenario",
    "save_trace",
]
