"""First-class experiment API: declarative specs, typed cells, and a
machine-readable result contract.

The evaluation is a matrix of (scheme x config x scenario) cells.  This
module makes that matrix a first-class object instead of a module-naming
convention:

- :class:`Experiment` — one paper table/figure as a declarative spec
  (``id``, ``title``, ``anchor``) plus behavior.  Sharded experiments
  override :meth:`Experiment.cell_keys` / :meth:`Experiment.run_cell` /
  :meth:`Experiment.merge`; ``run()`` is *defined* as the serial merge
  of the cells, so the parallel per-cell path is equivalent by
  construction.  Unsharded experiments override
  :meth:`Experiment.compute`.
- :class:`CellSpec` — a typed, hashable, picklable descriptor of one
  independently executable unit of work.  Its ``key`` is the rendered
  column label (stable across processes and runs), which also keys the
  persistent result cache.
- :func:`register` — class decorator that instantiates the spec and
  adds it to the process-wide registry, replacing the three
  hand-maintained dicts (``EXPERIMENTS`` / ``SHARDED_EXPERIMENTS`` /
  ``UNCACHED_EXPERIMENTS``) with ``sharded`` / ``cacheable`` flags on
  the spec itself.
- :class:`ExperimentResult` — the uniform result contract: every
  experiment returns a dataclass that renders the paper-style text
  table (``render()``) *and* serializes to stable JSON-ready data
  (``to_json()``), so outcomes are machine-readable for CI artifacts,
  the result cache, and trend tooling.

Usage::

    from repro.experiments import experiment, all_experiments, select

    experiment("fig10").run(quick=True)       # one figure
    [spec.id for spec in all_experiments()]   # registry, paper order
    select(["fig1*"])                         # glob -> ["fig10", ...]
"""

from __future__ import annotations

import enum
import fnmatch
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields, is_dataclass


def to_jsonable(obj: object) -> object:
    """Recursively convert a result object into JSON-ready data.

    Dataclasses become ``{field: value}`` dicts, enums their names,
    tuples lists, and dict keys are coerced to strings (enum keys by
    name).  The conversion is purely structural — no floats are
    rounded, so the JSON carries exactly the numbers the goldens pin.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.name
    if isinstance(obj, dict):
        return {_json_key(key): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(item) for item in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(
        f"result field of type {type(obj).__name__} is not JSON-serializable"
    )


def _json_key(key: object) -> str:
    if isinstance(key, enum.Enum):
        return key.name
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float, bool)):
        return str(key)
    raise TypeError(f"dict key of type {type(key).__name__} cannot key JSON")


class ExperimentResult:
    """Mixin for experiment result dataclasses: the uniform contract.

    Concrete results are dataclasses that define ``render() -> str``
    (the paper-style text table); this mixin adds ``to_json()`` so the
    same object is machine-readable without per-result serializers.
    """

    def render(self) -> str:  # pragma: no cover - every subclass overrides
        raise NotImplementedError

    def to_json(self) -> dict:
        """JSON-ready dict of every field (see :func:`to_jsonable`)."""
        payload = to_jsonable(self)
        assert isinstance(payload, dict)
        return payload


@dataclass(frozen=True)
class CellSpec:
    """One independently executable (scheme x config) unit of work.

    ``key`` is the experiment-stable cell name — in practice the
    rendered column label (``DRAM`` / ``ZRAM`` / an Ariadne config
    label) — identical across processes, runs, and job counts, which is
    what lets it key both worker scheduling and the persistent result
    cache.  The whole spec is hashable and picklable.
    """

    experiment: str
    key: str


class Experiment(ABC):
    """Declarative spec and behavior of one paper table/figure.

    Class attributes declare the spec; subclasses override the behavior
    hooks for their execution shape:

    - unsharded: override :meth:`compute`;
    - sharded: set ``sharded = True`` and override :meth:`cell_keys`,
      :meth:`run_cell`, and :meth:`merge` — ``run()`` is then the serial
      merge of the cells, so the parallel path is equivalent by
      construction, and :meth:`_ordered` gives merge implementations
      the shared in-cell-order filtering previously copy-pasted per
      module.
    """

    #: Stable registry id (``fig10``, ``table2``, ``platform``).
    id: str = ""
    #: One-line human title, shown by ``list``.
    title: str = ""
    #: Where in the paper this lands (``Figure 10``, ``Table 2``, ...).
    anchor: str = ""
    #: Whether the experiment splits into independently executable
    #: cells the runner may schedule on separate worker processes.
    sharded: bool = False
    #: Whether results are deterministic functions of the source tree
    #: and arguments (memoizable).  ``False`` for experiments embedding
    #: live wall-clock measurements — serving those from disk would
    #: present another machine's (or another day's) clock as a
    #: measurement.
    cacheable: bool = True
    #: Worker-count ceiling this experiment benefits from, or ``None``
    #: to accept the runner's conservative suite default.  Set by
    #: many-celled experiments (the fleet tier) whose cells outnumber
    #: the paper suite's tasks; ``default_jobs`` in
    #: :mod:`repro.experiments.runner` raises its cap to the largest
    #: hint among the requested experiments.
    jobs_hint: int | None = None

    # ------------------------------------------------------------ sharding

    def cell_keys(self, quick: bool = False) -> list[str]:
        """Stable keys of this experiment's cells (empty if unsharded)."""
        return []

    def cells(self, quick: bool = False) -> list[CellSpec]:
        """Typed cell descriptors, in merge (column) order."""
        return [CellSpec(self.id, key) for key in self.cell_keys(quick)]

    def run_cell(self, key: str, quick: bool = False) -> object:
        """Execute one cell; the payload must survive pickling."""
        raise NotImplementedError(f"{self.id} is not sharded")

    def merge(
        self, cell_results: dict[str, object], quick: bool = False
    ) -> ExperimentResult:
        """Assemble cell payloads into the figure/table result."""
        raise NotImplementedError(f"{self.id} is not sharded")

    def _ordered(
        self, cell_results: dict[str, object], quick: bool
    ) -> dict[str, object]:
        """Cell results re-keyed into cell order, absent cells dropped."""
        return {
            key: cell_results[key]
            for key in self.cell_keys(quick)
            if key in cell_results
        }

    def _require_cell(self, key: str, quick: bool) -> None:
        """Reject unknown cell keys with a uniform error."""
        if key not in self.cell_keys(quick):
            raise KeyError(f"unknown {self.id} cell {key!r}")

    # ------------------------------------------------------------ execution

    def compute(self, quick: bool = False) -> ExperimentResult:
        """Unsharded experiment body (sharded specs never reach this)."""
        raise NotImplementedError(
            f"{self.id} must override compute() or be sharded"
        )

    def run(self, quick: bool = False) -> ExperimentResult:
        """Produce the full result.

        For sharded experiments this is *defined* as the serial merge
        of the cells, which makes the runner's parallel per-cell path
        equivalent by construction (``tests/test_cell_equivalence.py``
        additionally proves cell independence).
        """
        if self.sharded:
            return self.merge(
                {key: self.run_cell(key, quick) for key in self.cell_keys(quick)},
                quick,
            )
        return self.compute(quick)

    def describe(self) -> dict:
        """The declarative spec as JSON-ready data (``list --json``)."""
        return {
            "id": self.id,
            "title": self.title,
            "anchor": self.anchor,
            "sharded": self.sharded,
            "cacheable": self.cacheable,
            "jobs_hint": self.jobs_hint,
        }


#: The process-wide registry, in registration (paper) order.
_REGISTRY: dict[str, Experiment] = {}


def register(cls: type[Experiment]) -> type[Experiment]:
    """Class decorator: validate, instantiate, and register a spec.

    Importing :mod:`repro.experiments` imports every experiment module,
    so the registry is complete after package import — there is no
    side-table to keep in sync, and double registration (a copy-pasted
    id) fails at import time rather than shadowing silently.
    """
    spec = cls()
    if not spec.id or not spec.title or not spec.anchor:
        raise ValueError(
            f"{cls.__name__} must declare non-empty id, title, and anchor"
        )
    if spec.id in _REGISTRY:
        raise ValueError(f"experiment id {spec.id!r} registered twice")
    if spec.sharded and type(spec).cell_keys is Experiment.cell_keys:
        raise ValueError(f"{spec.id} is sharded but defines no cell_keys()")
    _REGISTRY[spec.id] = spec
    return cls


def experiment(experiment_id: str) -> Experiment:
    """Look up one registered spec by id."""
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(_REGISTRY) or "<registry empty>"
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


def all_experiments() -> list[Experiment]:
    """Every registered spec, in registration (paper) order."""
    return list(_REGISTRY.values())


def experiment_ids() -> list[str]:
    """Registered ids, in registration (paper) order."""
    return list(_REGISTRY)


def select(patterns: list[str]) -> list[str]:
    """Expand names/globs into experiment ids.

    Exact ids pass through (preserving request order and duplicates);
    ``all`` expands to the whole registry; a pattern with glob
    characters expands to its matches in registry order.  A pattern
    matching nothing raises ``KeyError`` — a typo must not silently
    shrink a suite.
    """
    ids = experiment_ids()
    selected: list[str] = []
    for pattern in patterns:
        if pattern == "all":
            selected.extend(ids)
        elif pattern in _REGISTRY:
            selected.append(pattern)
        elif any(ch in pattern for ch in "*?["):
            matches = [name for name in ids if fnmatch.fnmatchcase(name, pattern)]
            if not matches:
                raise KeyError(f"pattern {pattern!r} matches no experiment")
            selected.extend(matches)
        else:
            raise KeyError(
                f"unknown experiment {pattern!r}; try 'list' or a glob"
            )
    return selected


def run_cached(experiment_id: str, quick: bool = False) -> ExperimentResult:
    """Run one whole experiment through the persistent result cache.

    Memo keys are exactly the parallel runner's — ``cell=None`` for an
    unsharded experiment, the per-cell keys for a sharded one — so CLI
    runs, benchmark sessions, and CI share entries in both directions:
    a suite run at ``--jobs 4`` warms the cells a later benchmark
    assembles with a serial merge, and vice versa (``run()`` *is* the
    serial merge of the cells, so the assembled result is identical by
    construction).  Uncacheable specs, and every spec while the
    invariant auditor is on, always re-measure.  Newly
    measured compressed sizes are flushed so a cold run seeds the
    artifact cache the next one reads.
    """
    from .common import flush_artifacts, result_cache_for

    spec = experiment(experiment_id)
    cache = result_cache_for(spec)
    if cache is None:
        return spec.run(quick=quick)
    args = {"quick": quick}
    result: ExperimentResult | None = None
    if spec.sharded:
        # Serve warm cells, measure only the missing ones (stored under
        # the same per-cell keys the runner uses at every job count).
        # Sharded results are never memoized whole under cell=None: a
        # spec's cell list may depend on environment knobs (the fleet's
        # size and seed), which that key cannot distinguish.
        partials: dict[str, object] = {}
        for key in spec.cell_keys(quick):
            payload = cache.load(spec.id, key, args)
            if payload is None:
                payload = spec.run_cell(key, quick=quick)
                cache.store(spec.id, key, args, payload)
            partials[key] = payload
        result = spec.merge(partials, quick=quick)
    else:
        hit = cache.load(spec.id, None, args)
        if hit is not None:
            result = hit  # type: ignore[assignment]
        else:
            result = spec.run(quick=quick)
            cache.store(spec.id, None, args, result)
    flush_artifacts()
    return result
