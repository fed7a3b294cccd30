"""CI gate: compare a fresh smoke-benchmark artifact against the
committed baseline.

Two independent checks, with independent failure messages:

- **Correctness echo** — the scenario's simulated numbers
  (``simulated_wall_ns``, ``relaunches``, ``compress_ops``,
  ``kswapd_cpu_ns``) must be *bit-identical* to the baseline.  Any
  drift means an optimization changed measured behavior, which the
  number-invariance contract forbids; no tolerance applies.
- **Wall time** — the measured wall times may not regress more than
  ``--max-regression`` (default 25%) over the baseline.  Two walls are
  gated independently: the cold-size-cache ``wall_time_s`` (codec +
  simulator) and the simulator-only ``warm_wall_time_s`` (PR 5), so a
  simulator-side slowdown cannot hide under codec noise and vice
  versa.  Improvements always pass; CI runners are noisy, which is
  what the generous margin absorbs while still catching real
  slowdowns.  The checks arm themselves only when the artifact's
  machine/python match the baseline's — absolute seconds from a
  different machine class gate hardware, not code — and a wall absent
  from the baseline is skipped (pre-PR 5 baselines carry no warm
  wall).  This starts the wall-time trend line across commits: update
  the committed baseline whenever a PR makes the benchmark
  meaningfully faster (or when CI hardware changes).

Usage::

    python benchmarks/check_bench_regression.py BENCH_scenario.json \
        --baseline benchmarks/BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys

#: Scenario echoes that must never drift (see smoke_scenario.py).
CORRECTNESS_KEYS = (
    "simulated_wall_ns",
    "relaunches",
    "compress_ops",
    "kswapd_cpu_ns",
)


def _environment(artifact: dict) -> tuple:
    """The fields that make wall times comparable across runs.

    Architecture and interpreter major.minor decide instruction-level
    speed; the CPU count separates machine classes that share both
    (the 1-CPU dev container vs a multi-core CI runner).  Within one
    class single-thread speed still varies, which the generous
    regression margin absorbs.
    """
    python = str(artifact.get("python", ""))
    return (
        artifact.get("machine"),
        ".".join(python.split(".")[:2]),  # major.minor decides interpreter speed
        artifact.get("cpus"),
    )


#: Gated wall-time fields: (json key, human label, required-in-baseline).
#: The warm wall isolates the pure simulator (PR 5); a baseline that
#: predates it is simply not gated on it — but the cold wall has been
#: in every baseline since PR 2, so its absence is a broken baseline,
#: never a skip.
WALL_KEYS = (
    ("wall_time_s", "wall time", True),
    ("warm_wall_time_s", "warm (simulator-only) wall time", False),
)


def _check_wall(
    fresh: dict,
    baseline: dict,
    key: str,
    label: str,
    required: bool,
    max_regression: float,
) -> list[str]:
    """Gate one wall-time field; returns failure messages."""
    base_wall = baseline.get(key)
    fresh_wall = fresh.get(key)
    if base_wall is None and not required:
        print(
            f"{label} check skipped: baseline has no {key!r} "
            "(re-record benchmarks/BENCH_baseline.json to arm it)"
        )
        return []
    if not isinstance(base_wall, (int, float)) or base_wall <= 0:
        return [f"baseline {key} is unusable: {base_wall!r}"]
    if not isinstance(fresh_wall, (int, float)) or fresh_wall <= 0:
        return [f"fresh {key} is unusable: {fresh_wall!r}"]
    ratio = fresh_wall / base_wall
    limit = 1.0 + max_regression
    if ratio > limit:
        return [
            f"{label} regressed {ratio:.2f}x over baseline "
            f"({fresh_wall:.3f}s vs {base_wall:.3f}s; limit {limit:.2f}x)"
        ]
    print(
        f"{label} {fresh_wall:.3f}s vs baseline {base_wall:.3f}s "
        f"({ratio:.2f}x, limit {limit:.2f}x) — ok"
    )
    return []


def check(fresh: dict, baseline: dict, max_regression: float) -> list[str]:
    """Returns a list of failure messages (empty = pass)."""
    failures = []
    for key in CORRECTNESS_KEYS:
        if fresh.get(key) != baseline.get(key):
            failures.append(
                f"correctness echo {key!r} drifted: "
                f"baseline {baseline.get(key)!r} != fresh {fresh.get(key)!r} "
                "(number-invariance violation, not a perf issue)"
            )
    if _environment(fresh) != _environment(baseline):
        # Absolute seconds only gate *code* when the hardware and
        # interpreter match the baseline's; across machine classes the
        # 25% margin would gate the hardware instead.  Correctness
        # echoes above still apply — only the timing checks are skipped.
        print(
            "wall time checks skipped: environment differs from baseline "
            f"({_environment(fresh)} vs {_environment(baseline)}); "
            "re-record benchmarks/BENCH_baseline.json on this environment "
            "to re-arm the gate"
        )
    else:
        for key, label, required in WALL_KEYS:
            failures.extend(
                _check_wall(fresh, baseline, key, label, required,
                            max_regression)
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="freshly produced BENCH_scenario.json")
    parser.add_argument(
        "--baseline",
        default="benchmarks/BENCH_baseline.json",
        help="committed baseline artifact",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        metavar="FRACTION",
        help="maximum tolerated wall-time regression (default 0.25 = 25%%)",
    )
    args = parser.parse_args()
    with open(args.fresh) as f:
        fresh = json.load(f)
    with open(args.baseline) as f:
        baseline = json.load(f)
    failures = check(fresh, baseline, args.max_regression)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
