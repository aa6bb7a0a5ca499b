"""sha-scope benchmark: one workload, one closed-loop client, outputs checked.

    python3 bench/run.py --workload survey --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src, nothing is
installed. With --trace 0 the run measures the end-to-end metrics; op times
are scaled to a reference host speed (see refclock.py). With
--trace 1 it wraps every public function of the package (see tracer.py),
runs a fixed set of ops alternately untraced and traced, and reports the
per-layer metrics; the spans go to .bench_out/<workload>.spans.jsonl.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
The line before it is a report with every metric, the tail percentile and
sample count, the failures, and the provenance of the run (git SHA, Python,
nproc, seed, src/ line count).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_SPAWNS = 15
TAIL_MIN_BEYOND = 10
# ops replayed per traced cycle: the first TRACE_BLOCKS blocks of the stream
TRACE_BLOCKS = 2
# reference-kernel samples before the first timed op
WARMUP_SAMPLES = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
}
# fail_ratio is 0 on a correct run; BENCHMARK.json carries the others, and
# the result line carries failures as "attempted"/"failed".
RESULT_METRICS = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")

RINGS = ("ZZ", "QQ", "Fp", "ZAB")
PER_LAYER = (
    [
        ("arith.factorize.calls_per_op", "calls/op"),
        ("arith.factorize.self_ms_per_op", "ms/op"),
        ("arith.factorize.repeat_ratio", "ratio"),
        ("arith.is_prime.calls_per_op", "calls/op"),
        ("arith.is_prime.self_ms_per_op", "ms/op"),
        ("arith.legendre.calls_per_op", "calls/op"),
        ("curves.minimize_short.self_ms_per_op", "ms/op"),
        ("curves.bad_primes.self_ms_per_op", "ms/op"),
        ("curves.reduction_report.calls_per_op", "calls/op"),
        ("galoisrules.theorem5_report.self_ms_per_op", "ms/op"),
        ("galoisrules.image_verdict.calls_per_op", "calls/op"),
        ("galoisrules.image_verdict.self_ms_per_op", "ms/op"),
        ("torsionq.rational_torsion.self_ms_per_op", "ms/op"),
        ("ffcurve.group_order.self_ms_per_op", "ms/op"),
        ("ffcurve.group_structure.self_ms_per_op", "ms/op"),
        ("ffcurve.ell_primary.self_ms_per_op", "ms/op"),
        ("ffcurve.point_order.self_ms_per_op", "ms/op"),
        ("ffcurve.enumerate_points.calls_per_op", "calls/op"),
        ("ffcurve.point_order.calls_per_op", "calls/op"),
        ("ffcurve.scalar_mul.calls_per_op", "calls/op"),
        ("ffcurve.add.calls_per_op", "calls/op"),
        ("liftkit.lift_plan.self_ms_per_op", "ms/op"),
    ]
    + [
        (f"poly.mul.{r}.{stat}", unit)
        for r in RINGS
        for stat, unit in (
            ("calls_per_op", "calls/op"),
            ("self_ms_per_op", "ms/op"),
            ("coeff_products_per_op", "products/op"),
        )
    ]
    + [(f"poly.divmod.{r}.self_ms_per_op", "ms/op") for r in RINGS[:3]]
    + [
        ("poly.ext_gcd_qq.self_ms_per_op", "ms/op"),
        ("divpoly.f.calls_per_op", "calls/op"),
        ("divpoly.f.computed_per_op", "calls/op"),
        ("divpoly.f.self_ms_per_op", "ms/op"),
        ("divpoly.f.max_degree", "degree"),
    ]
    + [
        (f"numfield.{fn}.self_ms_per_op", "ms/op")
        for fn in ("QuotRing", "invert_mod", "trace_in_ring", "alpha_trace_direct", "alpha_trace_step8")
    ]
    + [
        ("cli.main.self_ms_per_op", "ms/op"),
        ("cli.import_ms", "ms"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, bad arguments)."""


# ---------------------------------------------------------------------------
# provenance and set-up
# ---------------------------------------------------------------------------


def git_sha() -> str:
    """HEAD of a git checkout at ROOT, read from .git directly; "unknown" otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def provenance(args) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "src_lines": src_lines(),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _spawn_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


IMPORT_PROBE = "import time, shascope.cli; print(time.monotonic_ns())"
BARE_PROBE = "import time; print(time.monotonic_ns())"


def measure_setup(spawns: int = SETUP_SPAWNS) -> tuple[float, float]:
    """(scaled, unscaled) seconds from spawning an interpreter until
    `import shascope.cli` returns in it. A first, untimed spawn writes the
    bytecode cache.

    Each timed spawn follows a spawn of a bare interpreter (the same probe
    without the package import), and setup_s is the median of their ratios
    times refclock.SPAWN_NOMINAL_S: it reads as if a bare interpreter had
    started in exactly that time. Spawn times follow the host's process
    start-up speed far more closely than the reference kernel does, so this
    pairing, not the kernel, corrects them. The unscaled figure is the
    median of the timed spawns."""
    env = _spawn_env()

    def spawn(code: str) -> float:
        t0 = time.monotonic_ns()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True, timeout=60
        )
        return (int(done.stdout) - t0) / 1e9

    spawn(IMPORT_PROBE)
    times, ratios = [], []
    for _ in range(spawns):
        bare = spawn(BARE_PROBE)
        times.append(spawn(IMPORT_PROBE))
        ratios.append(times[-1] / bare)
    return statistics.median(ratios) * refclock.SPAWN_NOMINAL_S, statistics.median(times)


def measure_import_ms(spawns: int = SETUP_SPAWNS) -> float:
    """Median cumulative import time of shascope.cli in ms, from -X importtime."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import shascope.cli"]
    env = _spawn_env()
    times = []
    for _ in range(spawns):
        done = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True, timeout=60)
        for line in done.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*shascope\.cli$", line)
            if m:
                times.append(int(m.group(1)) / 1000)
    if not times:
        raise BenchError("-X importtime reported no shascope.cli import")
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Loop:
    """One client: run an op, check it, run the next; latencies in seconds.

    With `reference`, a reference-kernel sample is taken before each op, and
    `refs`, `elapsed` and `ok` hold one entry per attempted op."""

    def __init__(self, workload, tracer=None, reference=False):
        self.workload = workload
        self.tracer = tracer
        self.reference = reference
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.refs: list[float] = []
        self.elapsed: list[float] = []
        self.ok: list[bool] = []

    def run_op(self, op_id: int, item) -> float:
        self.attempted += 1
        gc.collect()  # each op starts on a clean heap, as a fresh CLI process would
        if self.reference:
            self.refs.append(refclock.sample())
        tracer = self.tracer
        if tracer:
            tracer.begin_op(op_id)
        t0 = time.perf_counter()
        try:
            out = self.workload.run(item)
        except Exception as exc:  # an op that raises is a failed op
            out, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end_op()
        if error is None:
            try:
                if tracer:
                    with tracer.suspended():
                        problems = self.workload.check(item, out)
                else:
                    problems = self.workload.check(item, out)
            except Exception as exc:  # a check that cannot read the output fails the op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            error = "; ".join(problems) or None
        if error is None:
            self.latencies.append(elapsed)
        else:
            self.failures.append(f"op {op_id} {item}: {error}"[:500])
        self.elapsed.append(elapsed)
        self.ok.append(error is None)
        return elapsed


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with TAIL_MIN_BEYOND
    samples above it: the (TAIL_MIN_BEYOND + 1)-th largest latency, or the
    largest when there are too few samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_MIN_BEYOND:
        return 100.0, xs[-1]
    return 100 * (n - TAIL_MIN_BEYOND) / n, xs[n - TAIL_MIN_BEYOND - 1]


def run_untraced(workload, seed: int, seconds: float):
    """End-to-end metrics over whole blocks of the stream, at least `seconds`,
    each op's time scaled to the reference host speed (refclock)."""
    for _ in range(WARMUP_SAMPLES):
        refclock.sample()
    loop = Loop(workload, reference=True)
    start = time.perf_counter()
    op_id = 0
    for block in workload.blocks(seed):
        for item in block:
            loop.run_op(op_id, item)
            op_id += 1
        if time.perf_counter() - start >= seconds:
            break
    scale = refclock.scales(loop.refs)
    scaled = [t * k for t, k in zip(loop.elapsed, scale)]
    lat = [t for t, ok in zip(scaled, loop.ok) if ok] or [0.0]  # no op succeeded: reported incorrect
    q, tail_s = tail(lat)
    busy = sum(scaled)
    raw = loop.latencies or [0.0]
    metrics = {
        "ops_per_s": len(loop.latencies) / busy if busy else 0.0,
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_tail_ms": tail_s * 1000,
        "fail_ratio": len(loop.failures) / loop.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "tail_percentile": q,
        "samples": len(loop.latencies),
        "measured_s": time.perf_counter() - start,
        "busy_s": busy,
        "unscaled": {
            "busy_s": sum(loop.elapsed),
            "ops_per_s": len(loop.latencies) / sum(loop.elapsed),
            "op_p50_ms": statistics.median(raw) * 1000,
            "op_tail_ms": tail(raw)[1] * 1000,
        },
        "reference_ms": {
            "nominal": refclock.NOMINAL_S * 1000,
            "trimmed_mean": refclock.trimmed_mean(loop.refs) * 1000,
            "min": min(loop.refs) * 1000,
            "max": max(loop.refs) * 1000,
        },
    }
    return metrics, extra, (loop,)


def run_traced(workload, seed: int, seconds: float):
    """Per-layer metrics: the first TRACE_BLOCKS blocks, replayed untraced then
    traced until `seconds` have passed, so every traced cycle repeats the same
    calls and the counts are exact."""
    import tracer as tracing

    blocks = workload.blocks(seed)
    items = [item for _ in range(TRACE_BLOCKS) for item in next(blocks)]
    tracer = tracing.Tracer()
    plain, traced = Loop(workload), Loop(workload, tracer)
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    while True:
        plain_s += sum(plain.run_op(i, item) for i, item in enumerate(items))
        tracer.install()
        try:
            traced_s += sum(traced.run_op(i, item) for i, item in enumerate(items))
        finally:
            tracer.uninstall()
        tracer.record_spans = False  # the first traced cycle's spans are kept
        if time.perf_counter() - start >= seconds:
            break
    ops = tracer.ops
    metrics = {}
    for name, _ in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if stat == "calls_per_op":
            metrics[name] = tracer.calls[fn] / ops
        elif stat == "self_ms_per_op":
            metrics[name] = tracer.self_ns[fn] / 1e6 / ops
        elif stat in ("coeff_products_per_op", "computed_per_op"):
            metrics[name] = tracer.extra[f"{fn}.{stat[: -len('_per_op')]}"] / ops
    calls = tracer.calls["arith.factorize"]
    metrics["arith.factorize.repeat_ratio"] = tracer.extra["arith.factorize.repeats"] / calls if calls else 0.0
    metrics["divpoly.f.max_degree"] = tracer.max_degree
    metrics["trace.overhead_ratio"] = traced_s / plain_s - 1
    metrics["cli.import_ms"] = measure_import_ms()
    path = OUT_DIR / f"{workload.name}.spans.jsonl"
    tracer.write_spans(path)
    extra = {
        "traced_ops": ops,
        "ops_per_cycle": len(items),
        "spans_written": tracer.span_count(),
        "spans_file": str(path.relative_to(ROOT)),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "measured_s": time.perf_counter() - start,
    }
    return metrics, extra, (plain, traced)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("survey", "fpgroups", "divpoly"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_package():
    if not (SRC / "shascope" / "__init__.py").is_file():
        raise BenchError(f"no source tree at {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import shascope

    if Path(shascope.__file__).resolve().parent != (SRC / "shascope").resolve():
        raise BenchError(f"shascope imported from {shascope.__file__}, not from {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_package()
        import workloads

        workload = workloads.WORKLOADS[args.workload]
        meta = provenance(args)
        if args.trace:
            metrics, extra, loops = run_traced(workload, args.seed, args.seconds)
            declared = PER_LAYER
        else:
            setup_s, setup_raw = measure_setup()
            metrics, extra, loops = run_untraced(workload, args.seed, args.seconds)
            metrics["setup_s"] = setup_s
            extra["unscaled"]["setup_s"] = setup_raw
            declared = [(name, END_TO_END_UNITS[name]) for name in RESULT_METRICS]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    attempted = sum(loop.attempted for loop in loops)
    failures = [f for loop in loops for f in loop.failures]
    units = dict(PER_LAYER) | END_TO_END_UNITS
    report = {
        "meta": meta,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
        **extra,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
