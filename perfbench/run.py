"""Layered benchmark of the Ariadne reproduction.

    python3 perfbench/run.py --workload relaunch_cold --seed 2025 --seconds 20 --trace 0

Runs one named workload (see ``workloads.py``) closed-loop for
``--seconds``: one process, each operation starting when the previous
one finished.  It prints a report (every end-to-end metric by name and
unit, the simulated ``model_*`` figures with their sample counts, the
error rate, the workload digest) and, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``metrics.END_TO_END``,
with host times scaled to a calibration kernel's reference speed (see
``KERNEL_REF_S``); the report also prints the unscaled seconds.
``--trace 1`` alternates untraced and traced operations, splits each
traced operation's wall across the layers (``tracing.py``), reports the
per-layer metrics of ``metrics.PER_LAYER`` and the cost of tracing, and
writes the last traced operation's spans as Chrome trace-event JSON to
``perfbench/out/``.

The run is hermetic: every ``REPRO_*`` knob is cleared before ``repro``
is imported, the artifact cache is off (``suite``: a fresh directory
under ``perfbench/out/``, removed at exit), and temporary files stay
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from hashlib import blake2b
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("relaunch_cold", "switching_warm", "fleet", "suite")
#: Default seeds: the experiments' trace seed, and the fleet's.
DEFAULT_SEEDS = {"relaunch_cold": 2025, "switching_warm": 2025, "fleet": 404,
                 "suite": 2025}
#: Fresh-interpreter imports and workload set-ups per run (``setup_s``
#: is the sum of their medians).
IMPORT_REPEATS = 3
SETUP_REPEATS = 3
#: Fewest timed operations per run (``wall_s`` is a median over them).
MIN_OPS = 3
#: Simulated relaunches needed beyond a percentile before it is reported.
TAIL_SAMPLES = 10
#: Typical time of :func:`kernel_seconds` on the container the bounds
#: were set on (2 vCPUs, CPython 3.11.7).  That container's speed drifts
#: by up to ~2x in phases lasting minutes, longer than a run, so each
#: host time is scaled by this over the kernel times measured around
#: it: a phase slows both alike, a program change only the operation.
KERNEL_REF_S = 0.12


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def hermetic_environment(workload: str, scratch: Path) -> str:
    """Clear every ``REPRO_*`` knob, pin the cache and temp dirs; returns
    the ``REPRO_CACHE_DIR`` value."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    cache = "off"
    if workload == "suite":
        cache = str(scratch / "cache")
        os.makedirs(cache)
    os.environ["REPRO_CACHE_DIR"] = cache
    tmp = scratch / "tmp"
    tmp.mkdir()
    os.environ["TMPDIR"] = str(tmp)
    return cache


def import_seconds() -> float:
    """Wall of a fresh interpreter importing the benchmark's modules."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
            "import workloads")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


def environment_facts(cache_dir: str) -> dict:
    """Python, CPUs, resolved cache root and page-metadata core."""
    from repro.cache import default_cache_root
    from repro.experiments import common

    root = default_cache_root()
    expected = None if cache_dir == "off" else Path(cache_dir)
    if root != expected:
        raise RuntimeError(f"cache root resolved to {root}, expected {expected}")
    artifacts = common.artifact_cache()
    if (artifacts.root if artifacts else None) != expected:
        raise RuntimeError("the experiments bound another cache root")
    try:  # the core switch may be removed by a later change
        from repro.mem.columnar import resolve_core
        core = resolve_core()
    except (ImportError, AttributeError):
        core = "n/a"
    return {"python": platform.python_version(), "cpus": os.cpu_count(),
            "core": core, "cache_root": str(root) if root else "off"}


def peak_rss_mib(workers: bool) -> float:
    """Peak RSS of this process, or of it and its largest finished child
    (the suite's pool workers)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is KiB on Linux


def kernel_seconds() -> float:
    """:func:`kernel` timed in a fresh interpreter, so that its memory
    never counts toward ``peak_rss_mib``."""
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; print(run.kernel())"
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True)
    return float(done.stdout)


def kernel() -> float:
    """Time a fixed mix of the program's kinds of host work: object
    churn, sorting, hashing, and scattered writes to a 64 MiB table."""
    import numpy as np

    start = time.perf_counter()
    rng = random.Random(2025)
    objects = {}
    for i in range(60_000):
        key = rng.getrandbits(40)
        objects[key] = [i, key & 0xFFF, (key, i)]
    total = sum(objects[key][1] for key in sorted(objects)[::2])
    payload = rng.randbytes(1 << 21)
    for offset in range(0, len(payload), 4096):
        blake2b(payload[offset:offset + 4096], digest_size=16).digest()
    table = np.zeros(1 << 24, dtype=np.int32)
    index = np.frombuffer(payload, dtype=np.uint32) & ((1 << 24) - 1)
    values = np.arange(index.size, dtype=np.int32)
    for _ in range(6):
        table[index] = values
        total += int(table[index[:1024]].sum())
    return time.perf_counter() - start


@dataclass
class Op:
    wall_s: float  # the workload's timed section
    scope_s: float  # the whole run_op call (what tracing covers)
    check: object  # workloads.OpCheck
    totals: object = None  # tracing.LayerTotals of a traced operation
    kernel_s: float = 0.0  # calibration kernel, just before the operation


def run_op(workload, tracer=None) -> Op:
    gc.collect()
    kernel_s = kernel_seconds()
    gc.collect()
    if tracer is not None:
        tracer.install()
        tracer.begin_op()
    start = time.perf_counter()
    try:
        wall, state = workload.run_op()
    finally:
        scope = time.perf_counter() - start
        totals = None
        if tracer is not None:
            totals = tracer.end_op()
            tracer.uninstall()
    if totals is not None:
        finish_totals(totals)
    return Op(wall, scope, workload.verify(state), totals, kernel_s)


def finish_totals(totals) -> None:
    """Sum the simulated counters of every system the operation built."""
    counters = {}
    for system in totals.systems:
        for name, value in system.ctx.counters.as_dict().items():
            counters[name] = counters.get(name, 0) + value
        devices = getattr(system.ctx.flash_swap, "devices",
                          (system.ctx.flash_device,))
        counters["flash_bytes_written"] = counters.get(
            "flash_bytes_written", 0) + sum(d.host_bytes_written for d in devices)
    totals.sim_counters = counters
    hits = misses = 0
    for cache, (hits0, misses0) in totals.size_caches.items():
        hits += cache.hits - hits0
        misses += cache.misses - misses0
    totals.size_program = (hits, misses)
    totals.systems = []
    totals.size_caches = {}


def boundary_exact(totals) -> dict[str, int]:
    """The exact counts seen at the traced boundaries."""
    keys = ("compress_ops", "decompress_ops", "pages_swapped_in",
            "pages_written_back", "flash_bytes_written", "staging_hits",
            "predecomp_prefetches", "zswap_readahead_reads")
    return {**totals.counts,
            **{f"sim.{key}": totals.sim_counters.get(key, 0) for key in keys}}


def cross_check(op: Op) -> list[str]:
    """Program-exposed counts must equal the boundary counts."""
    totals, exact = op.totals, op.check.exact
    problems = []
    hits, misses = totals.size_program
    pairs = [
        ("size lookups", hits + misses, totals.counts.get("sizecache.lookups", 0)),
        ("size misses", misses, totals.counts.get("sizecache.measured_lookups", 0)),
    ]
    if "sim.relaunches" in exact:
        pairs.append(("relaunches", exact["sim.relaunches"],
                      totals.counts.get("sim.relaunches", 0)))
    if "fleet.distinct_mixes" in exact:
        pairs.append(("traces generated", exact["fleet.distinct_mixes"],
                      totals.counts.get("trace.generate_calls", 0)))
    if "cache.cached_on_rerun" in exact:
        pairs.append(("result-cache hits", exact["cache.cached_on_rerun"],
                      totals.counts.get("cache.hits", 0)))
    for label, program, boundary in pairs:
        if program != boundary:
            problems.append(f"{label}: program {program} != boundary {boundary}")
    return problems


def measure(workload, seconds: float, traced: bool):
    """Closed loop until the next operation would overrun ``seconds``."""
    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
    ops: list[Op] = []
    start = time.perf_counter()
    while True:
        ops.append(run_op(workload))
        if tracer is not None:
            ops.append(run_op(workload, tracer))
        untraced = [op.wall_s for op in ops if op.totals is None]
        pair = statistics.median(op.scope_s for op in ops) * (2 if traced else 1)
        enough = len(untraced) >= (1 if traced else MIN_OPS)
        if enough and time.perf_counter() - start + pair > seconds:
            return ops, tracer


def account(ops: list[Op]) -> tuple[int, int, list[str]]:
    """attempted, failed, problems — with the cross-operation checks."""
    reference = ops[0].check
    traced = [op for op in ops if op.totals is not None]
    attempted = failed = 0
    problems: list[str] = []
    for op in ops:
        check = op.check
        op_problems = list(check.problems)
        if check.digest != reference.digest:
            op_problems.append(f"digest {check.digest} != {reference.digest}")
        if check.exact != reference.exact:
            op_problems.append(f"exact counts {check.exact} != {reference.exact}")
        if op.totals is not None:
            op_problems += cross_check(op)
            if boundary_exact(op.totals) != boundary_exact(traced[0].totals):
                op_problems.append("boundary counts differ between traced operations")
        attempted += len(check.checks)
        if op_problems:
            failed += len(check.checks)
            problems += op_problems
        else:
            failed += check.checks.count(False)
    return attempted, failed, problems


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def model_lines(name: str, model: dict) -> list[str]:
    """The simulated ``model_*`` figures, each with its sample count."""
    lines = []
    summary = model.get("relaunch_summary")
    samples = model.get("relaunch_ns")
    count = summary.count if summary is not None else len(samples or ())
    for label, q in (("p50", 0.5), ("p95", 0.95)):
        metric = f"model_relaunch_{label}_ms"
        if count and count * (1 - q) >= TAIL_SAMPLES:
            value = (summary.quantile(q) if summary is not None
                     else percentile(samples, q))
            lines.append(f"{metric:<24} {value / 1e6:12.3f} sim_ms  "
                         f"(n={count} Ariadne relaunches)")
        else:
            lines.append(f"{metric:<24} {'n/a':>12}         (n={count} Ariadne "
                         f"relaunches; needs {TAIL_SAMPLES} beyond {label})")
    if name in ("switching_warm", "fleet"):
        lines.append(f"{'model_kswapd_cpu_s':<24} {model['kswapd_ns'] / 1e9:12.4f} "
                     f"sim_s   (Ariadne reclaim CPU summed over "
                     f"{model['kswapd_runs']} runs)")
    return lines


def layer_metrics(name: str, ops: list[Op]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics (per traced operation) and the report lines."""
    from repro.sim import SCHEME_NAMES
    from tracing import LAYERS

    traced = [op for op in ops if op.totals is not None]
    untraced = [op.scope_s for op in ops if op.totals is None]
    n = len(traced)

    def mean(get) -> float:
        return sum(get(op.totals) for op in traced) / n

    first, exact = traced[0].totals, traced[0].check.exact
    extra = traced[0].check.extra
    wall = mean(lambda t: t.wall_s)
    self_s = {layer: mean(lambda t, layer=layer: t.self_s.get(layer, 0.0))
              for layer in LAYERS}
    unattributed = mean(lambda t: t.self_s.get("bench", 0.0))
    counts = boundary_exact(first)

    def sim(key: str) -> int:
        return counts.get(f"sim.{key}", 0)

    hits, misses = first.size_program
    relaunch_us = [s * 1e6 for op in traced for s in op.totals.relaunch_host_s]
    relaunch_s = sum(sum(op.totals.relaunch_host_s) for op in traced)
    codec_s = sum(op.totals.self_s.get("codec", 0.0) for op in traced)
    trace_s = sum(op.totals.self_s.get("trace", 0.0) for op in traced)
    memo_hits = exact.get("fleet.trace_memo_hits", 0)
    mixes = exact.get("fleet.distinct_mixes", 0)
    prefetches = sim("predecomp_prefetches") + sim("zswap_readahead_reads")
    tasks = exact.get("runner.tasks", 0)
    metrics = {
        "trace.self_s": self_s["trace"],
        "trace.pages": counts.get("trace.pages", 0),
        "trace.pages_per_s": (counts.get("trace.pages", 0) * n / trace_s
                              if trace_s else 0.0),
        "codec.self_s": self_s["codec"],
        "codec.calls": counts.get("codec.calls", 0),
        "codec.bytes_in": counts.get("codec.bytes_in", 0),
        "codec.mb_per_s": (counts.get("codec.bytes_in", 0) * n / 1e6 / codec_s
                           if codec_s else 0.0),
        "sizecache.self_s": self_s["sizecache"],
        "sizecache.lookups": counts.get("sizecache.lookups", 0),
        "sizecache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "sim.self_s": self_s["sim"],
        **{f"sim.{phase}_s": mean(lambda t, p=phase: t.sim_phase_s.get(p, 0.0))
           for phase in ("build", "install", "relaunch")},
        **{f"sim.{scheme}.self_s":
           mean(lambda t, s=scheme: t.sim_scheme_s.get(s, 0.0))
           for scheme in SCHEME_NAMES},
        "sim.relaunches": counts.get("sim.relaunches", 0),
        "sim.relaunches_per_s": len(relaunch_us) / relaunch_s if relaunch_s else 0.0,
        "sim.relaunch_host_p50_us": (percentile(relaunch_us, 0.5)
                                     if relaunch_us else 0.0),
        "sim.relaunch_host_p99_us": (percentile(relaunch_us, 0.99)
                                     if relaunch_us else 0.0),
        "sim.compress_ops": sim("compress_ops"),
        "sim.decompress_ops": sim("decompress_ops"),
        "sim.pages_swapped_in": sim("pages_swapped_in"),
        "sim.pages_written_back": sim("pages_written_back"),
        "sim.flash_bytes_written": sim("flash_bytes_written"),
        "sim.compression_ratio": (counts["sim.original_bytes"]
                                  / counts["sim.stored_bytes"]
                                  if counts.get("sim.stored_bytes") else 0.0),
        "sim.prefetch_hit_ratio": (sim("staging_hits") / prefetches
                                   if prefetches else 0.0),
        "fleet.self_s": self_s["fleet"],
        "fleet.trace_memo_hit_ratio": (memo_hits / (memo_hits + mixes)
                                       if mixes else 0.0),
        "fleet.distinct_mixes": mixes,
        "fleet.aggregate_bytes": exact.get("fleet.aggregate_bytes", 0),
        "runner.self_s": self_s["runner"],
        "runner.tasks": tasks,
        "runner.failed_tasks": exact.get("runner.failed_tasks", 0),
        "runner.critical_path_s": extra.get("critical_path_s", 0.0),
        "cache.self_s": self_s["cache"],
        "cache.result_hit_ratio": (exact.get("cache.cached_on_rerun", 0) / tasks
                                   if tasks else 0.0),
        "cache.entries": exact.get("cache.entries", 0),
        "cache.bytes_written": extra.get("result_bytes", 0),
        "tracing.wall_s": wall,
        "tracing.unattributed_s": unattributed,
        "tracing.overhead": (min(op.totals.wall_s for op in traced)
                             / min(untraced) - 1.0),
    }
    attributed = sum(self_s.values()) + unattributed
    lines = [f"layer split of the traced wall ({n} traced, {len(untraced)} "
             f"untraced operations; fastest untraced {min(untraced):.3f} s):"]
    for layer in LAYERS:
        lines.append(f"  {layer:<12} {self_s[layer]:10.4f} s  "
                     f"{self_s[layer] / wall:7.1%}")
    lines.append(f"  {'unattributed':<12} {unattributed:10.4f} s  "
                 f"{unattributed / wall:7.1%}")
    lines.append(f"  {'sum':<12} {attributed:10.4f} s  vs traced wall "
                 f"{wall:.4f} s (overhead {metrics['tracing.overhead']:+.1%})")
    if name == "suite":  # the second run_experiments call is the re-run
        last = first.top_level[-1]
        top_wall = sum(last.values())
        split = ", ".join(f"{layer} {seconds / top_wall:.1%}"
                          for layer, seconds in sorted(last.items()))
        lines.append(f"  re-run: {top_wall:.4f} s — {split}")
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else DEFAULT_SEEDS[args.workload]
    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    try:
        cache_dir = hermetic_environment(args.workload, scratch)
        sys.path[:0] = [str(SRC), str(HERE)]
        import workloads
        from metrics import END_TO_END, PER_LAYER

        facts = environment_facts(cache_dir)
        workload = workloads.WORKLOADS[args.workload](seed, bool(args.trace))
        imports, setups, setup_kernels = [], [], []
        for _ in range(IMPORT_REPEATS):
            setup_kernels.append(kernel_seconds())
            imports.append(import_seconds())
        for _ in range(SETUP_REPEATS):
            setup_kernels.append(kernel_seconds())
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        ops, tracer = measure(workload, args.seconds, bool(args.trace))
        closing_kernel = kernel_seconds()
        attempted, failed, problems = account(ops)

        print(f"perfbench {args.workload} seed={seed}"
              f"{'' if workload.seeded else ' (unused: experiments pin DEFAULT_SEED)'}"
              f" seconds={args.seconds:g} trace={args.trace}")
        print("environment: " + ", ".join(f"{k} {v}" for k, v in facts.items()))
        walls = [op.wall_s for op in ops if op.totals is None]
        check = ops[0].check
        if args.trace:
            values, lines = layer_metrics(args.workload, ops)
            declared = PER_LAYER
            print("\n".join(lines))
            trace_path = OUT / f"trace-{args.workload}-seed{seed}.json"
            tracer.write_chrome_trace(trace_path, {"workload": args.workload,
                                                   "seed": seed, **facts})
            print(f"chrome trace: {trace_path.relative_to(ROOT)}")
        else:
            # Each operation against the mean of the kernels just before
            # and just after it.
            around = [(op.kernel_s + after) / 2 for op, after in
                      zip(ops, [op.kernel_s for op in ops[1:]] + [closing_kernel])]
            setup_s = statistics.median(imports) + statistics.median(setups)
            values = {
                "wall_s": KERNEL_REF_S * statistics.median(
                    op.wall_s / kernel for op, kernel in zip(ops, around)),
                "setup_s": setup_s * KERNEL_REF_S / statistics.mean(setup_kernels),
                "peak_rss_mib": peak_rss_mib(args.workload == "suite"),
            }
            declared = END_TO_END
        for metric in declared:
            print(f"{metric.name:<28} {values[metric.name]:14.6g} {metric.unit}")
        kernels = setup_kernels + [op.kernel_s for op in ops] + [closing_kernel]
        print(f"{'calibration':<28} kernel median {statistics.median(kernels):.4f} s "
              f"(min {min(kernels):.4f}, max {max(kernels):.4f}) of {len(kernels)}; "
              f"reference {KERNEL_REF_S} s")
        print(f"{'ops':<28} {len(walls):>14} untraced, host seconds of each: "
              + " ".join(f"{w:.3f}" for w in walls))
        print(f"{'setup parts':<28} import median {statistics.median(imports):.3f} s "
              f"of {len(imports)}, set-up median {statistics.median(setups):.3f} s "
              f"of {len(setups)}")
        if "devices" in check.extra:
            print(f"{'devices_per_s':<28} {check.extra['devices'] / min(walls):14.6g} "
                  f"devices/s (N={check.extra['devices']})")
        if "rerun_s" in check.extra:
            reruns = [op.check.extra["rerun_s"] for op in ops if op.totals is None]
            print(f"{'rerun_s':<28} {min(reruns):14.6g} s "
                  f"(fastest of {len(reruns)} cached re-runs)")
        if check.model:
            print("\n".join(model_lines(args.workload, check.model)))
        print(f"{'error_rate':<28} {failed / attempted:14.6g} fraction "
              f"({failed} failed of {attempted} attempted)")
        for problem in problems[:20]:
            print(f"  FAILED: {problem}")
        exact = dict(check.exact)
        if args.trace:
            exact.update(boundary_exact(next(op.totals for op in ops if op.totals)))
        print("exact " + " ".join(f"{k}={v}" for k, v in sorted(exact.items())))
        print(f"digest {args.workload} {check.digest}")
        print(json.dumps({
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                        for m in declared},
        }))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
