"""Fleet population sampling: N parameterized devices from one seed.

A fleet is defined entirely by ``(fleet_seed, n_devices)``: device ``i``
is :func:`sample_device`'s pure function of ``(fleet_seed, i)`` — its
profile is identical whether the fleet holds ten devices or ten
million, which is what makes grown fleets incrementally re-runnable
(existing shards keep their cached results; only new device ranges
simulate).  Every dimension is drawn from an independent
:func:`repro.rng.derive_rng` stream per device, so no device's profile
perturbs another's.

Sampled dimensions (the population axes the paper's fleet-level claims
average over):

- *RAM class* — DRAM budget as a fraction of the device's anonymous
  workload footprint (tight devices additionally run the
  :mod:`repro.lmk` pressure lifecycle, the SWAM-style hybrid policy);
- *flash speed class* — the effective flash command overlap
  (``PlatformConfig.flash_queue_depth``);
- *app mix* — 2-3 apps drawn from the paper's ten-app catalog
  (:data:`repro.workload.profiles.APP_CATALOG`), footprint-scaled to
  fleet size by the simulation layer;
- *usage rhythm* — switching intermission and measured scenario length;
- *scheme* — which swap scheme this device ships (the fleet's what-if
  axis: per-scheme percentiles compare seeded subpopulations).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..errors import ConfigError
from ..rng import derive_rng
from ..workload import APP_CATALOG

#: Environment knobs: fleet size and seed.  Both are folded into the
#: experiment's cell keys (never read inside a cell body), so results
#: cached under one fleet can never be served to another.
FLEET_DEVICES_ENV = "REPRO_FLEET_DEVICES"
FLEET_SEED_ENV = "REPRO_FLEET_SEED"

DEFAULT_FLEET_SEED = 404
#: Default population sizes (overridable via REPRO_FLEET_DEVICES):
#: the quick tier is CI's population smoke, the full tier the local
#: baseline; 10k+ runs just raise the env knob.
DEFAULT_QUICK_DEVICES = 200
DEFAULT_FULL_DEVICES = 1000

#: DRAM budget as a fraction of the device workload's anonymous
#: footprint, per RAM class.  "tight" matches the pressure experiment's
#: tightest headroom, where the low-memory lifecycle demonstrably fires.
RAM_CLASSES: tuple[tuple[str, float, float], ...] = (
    # (class, weight, dram fraction of workload footprint)
    ("tight", 0.25, 0.55),
    ("mid", 0.50, 0.74),
    ("roomy", 0.25, 0.95),
)

#: Effective flash command overlap per speed class (UFS generations).
FLASH_CLASSES: tuple[tuple[str, float, int], ...] = (
    # (class, weight, flash_queue_depth)
    ("slow", 0.30, 2),
    ("mainstream", 0.50, 4),
    ("fast", 0.20, 8),
)

#: Scheme mix across the fleet (the DRAM baseline is excluded: it
#: models unbounded memory, which no fleet device has).
SCHEME_MIX: tuple[tuple[str, float], ...] = (
    ("Ariadne", 0.40),
    ("ZRAM", 0.30),
    ("SWAP", 0.15),
    ("ZSWAP", 0.15),
)

#: Usage-rhythm axes, in deciseconds so profiles stay all-integer.
THINK_DECISECONDS = (5, 10, 20)
DURATION_DECISECONDS = (50, 60, 80)

#: Apps per device.
APP_COUNT_WEIGHTS: tuple[tuple[int, float], ...] = ((2, 0.5), (3, 0.5))


@dataclass(frozen=True)
class DeviceProfile:
    """One sampled device: everything its simulation depends on.

    Frozen and all-integer/str so profiles are hashable, picklable, and
    trivially comparable in tests; a profile is a pure function of
    ``(fleet_seed, index)`` and nothing else.
    """

    index: int
    ram_class: str
    dram_fraction: float
    flash_class: str
    flash_queue_depth: int
    app_names: tuple[str, ...]
    scheme: str
    think_ds: int
    duration_ds: int
    pressure: bool

    @property
    def think_seconds(self) -> float:
        return self.think_ds / 10.0

    @property
    def duration_seconds(self) -> float:
        return self.duration_ds / 10.0

    @property
    def trace_signature(self) -> tuple[str, ...]:
        """The app mix, in catalog order — the device's trace identity.

        Devices sharing a signature replay the *same* workload trace,
        so per-worker trace memos (and the organizers' per-trace
        handle cache) amortize construction across the population.
        """
        return self.app_names


def _weighted(rng, table):
    """Pick ``entry`` from ``(value..., weight)`` rows by one draw."""
    draw = rng.random()
    cumulative = 0.0
    for row in table:
        cumulative += row[1]
        if draw < cumulative:
            return row
    return table[-1]


def sample_device(fleet_seed: int, index: int) -> DeviceProfile:
    """Device ``index``'s profile: a pure function of ``(seed, index)``.

    Each dimension consumes the device's own derived stream in a fixed
    order, so adding devices (growing N) or re-sampling a neighbor can
    never shift this device's draws.
    """
    if index < 0:
        raise ConfigError(f"device index must be >= 0, got {index}")
    rng = derive_rng(fleet_seed, f"fleet-device:{index}")
    ram_class, _, dram_fraction = _weighted(rng, RAM_CLASSES)
    flash_class, _, queue_depth = _weighted(rng, FLASH_CLASSES)
    n_apps, _ = _weighted(rng, APP_COUNT_WEIGHTS)
    catalog = [profile.name for profile in APP_CATALOG]
    picked = set(rng.sample(range(len(catalog)), n_apps))
    app_names = tuple(
        name for i, name in enumerate(catalog) if i in picked
    )
    scheme, _ = _weighted(rng, SCHEME_MIX)
    think_ds = rng.choice(THINK_DECISECONDS)
    duration_ds = rng.choice(DURATION_DECISECONDS)
    return DeviceProfile(
        index=index,
        ram_class=ram_class,
        dram_fraction=dram_fraction,
        flash_class=flash_class,
        flash_queue_depth=queue_depth,
        app_names=app_names,
        scheme=scheme,
        think_ds=think_ds,
        duration_ds=duration_ds,
        pressure=ram_class == "tight",
    )


def fleet_seed() -> int:
    """The fleet seed from the environment (cell keys embed it)."""
    raw = os.environ.get(FLEET_SEED_ENV)
    if not raw:
        return DEFAULT_FLEET_SEED
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{FLEET_SEED_ENV} must be an integer: {raw!r}") from None


def fleet_device_count(quick: bool) -> int:
    """Population size: ``REPRO_FLEET_DEVICES`` or the tier default."""
    raw = os.environ.get(FLEET_DEVICES_ENV)
    if raw:
        try:
            count = int(raw)
        except ValueError:
            raise ConfigError(
                f"{FLEET_DEVICES_ENV} must be an integer: {raw!r}"
            ) from None
        if count < 1:
            raise ConfigError(f"{FLEET_DEVICES_ENV} must be >= 1, got {count}")
        return count
    return DEFAULT_QUICK_DEVICES if quick else DEFAULT_FULL_DEVICES
