"""Benchmark of ``wol``: seeded workloads driven through its public
functions in one process, one caller, closed loop.

    python3 bench/run.py --workload cli-queries --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run it from the repository root; it imports ``wol`` from ``src/``.  A run
repeats whole passes over the workload's seeded inputs while another
fits in ``--seconds``.  Times are reported at reference speed (see
``speed``).  Every answer goes through the workload's correctness gate
outside the timed region.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, per traced pass.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  The exit code is
0 only when no operation failed.  Full results (run record, input
census, pass times, failures) and the traced run's spans are written
under ``bench/out/``.
"""

from __future__ import annotations

import os

# One thread for every numeric library numpy may load, set before numpy
# is imported (``speed`` imports it) and inherited by child processes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# wol raises its enumeration caps to this variable's value; the benchmark
# measures wol at its default caps.
os.environ.pop("WOL_NMAX_OVERRIDE", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import GeneratorType  # noqa: E402

import speed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 20
PROBES_PER_PASS = 3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "ops_per_s": "1/s",
}
PER_LAYER = {
    **{f"{layer}.{m}": ("s" if m == "busy_s" else "count")
       for layer in ("permutations", "posets", "classes", "diagrams",
                     "descent_diagrams", "tableaux", "hecke")
       for m in ("calls", "busy_s", "errors")},
    "permutations.elements": "count",
    "posets.linear_extensions": "count",
    "classes.members": "count",
    "classes.members_per_s": "1/s",
    "diagrams.tableaux": "count",
    "hecke.modules": "count",
    "hecke.dim_sum": "count",
    "hecke.relations_s": "s",
    "hecke.twist_s": "s",
    "hecke.intertwiner_s": "s",
    "hecke.generator_bytes": "B",
    "cli.calls": "count",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# A setup probe imports numpy first, untimed, then times the import of
# wol (through ``workloads``) with one warm-up op, and then the import of
# ``speed.IMPORT_MODULES``, and prints both times.
PROBE = (
    "import sys; sys.path[:0] = [{src!r}, {bench!r}]; import numpy; "
    "from time import perf_counter; start = perf_counter(); import workloads; "
    "workloads.warm_up({name!r}); mid = perf_counter(); import {modules}; "
    "print(mid - start, perf_counter() - mid, flush=True)"
)
CALIBRATE_EVERY_S = 0.05


def _parser(names: tuple[str, ...]) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*names, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every input (the smoke test uses this)")
    return p


# --- measuring --------------------------------------------------------------


class Tally:
    """Operations attempted and failed, with the first failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def gate(self, op, answer) -> None:
        self.attempted += 1
        if isinstance(answer, Exception):
            reasons = [f"{op.kind}: raised {type(answer).__name__}: {answer}"]
        else:
            try:
                reasons = op.gate(answer)
            except Exception as exc:  # a malformed answer must count, not crash
                reasons = [f"{op.kind}: gate rejected the answer ({exc!r})"]
        if reasons:
            self.failed += 1
            self.reasons.extend(reasons[: max(0, 20 - len(self.reasons))])


def timed_pass(workload, tally: Tally, tracer=None) -> tuple[list[float], list[float]]:
    """One pass over the workload's ops: each op's raw seconds and its
    seconds at reference speed (see ``speed``).

    The reference kernel runs between ops, at least every
    ``CALIBRATE_EVERY_S``; an op is scaled by the mean of the kernel times
    just before and just after it.  An op whose call returns a generator
    is timed step by step, with the kernel free to run at each ``yield``,
    so that a long op is scaled piecewise.  Time the tracer spends
    re-checking modules is taken out.  Answers are gated after the pass,
    outside the timed region.
    """
    ops, kind = workload.ops, workload.reference
    marks = [speed.reference_seconds(kind)]
    last_mark = perf_counter()
    segments = []  # (op index, raw seconds, index of the mark before it)
    answers = []

    def timed(k: int, step):
        nonlocal last_mark
        if perf_counter() - last_mark >= CALIBRATE_EVERY_S:
            marks.append(speed.reference_seconds(kind))
            last_mark = perf_counter()
        paused = tracer.paused if tracer else 0.0
        start = perf_counter()
        try:
            return step()
        finally:
            took = perf_counter() - start - ((tracer.paused - paused) if tracer else 0.0)
            segments.append((k, took, len(marks) - 1))

    for k, op in enumerate(ops):
        if tracer:
            tracer.op += 1
        try:
            answer = timed(k, op.call)
            if isinstance(answer, GeneratorType):
                steps = answer
                while True:
                    try:
                        timed(k, lambda: next(steps))
                    except StopIteration as stop:
                        answer = stop.value
                        break
        except Exception as exc:  # counted as a failed operation
            answer = exc
        answers.append(answer)
    marks.append(speed.reference_seconds(kind))
    nominal = speed.nominal_seconds(kind)
    raw, scaled = [0.0] * len(ops), [0.0] * len(ops)
    for k, took, b in segments:
        raw[k] += took
        scaled[k] += took * 2 * nominal / (marks[b] + marks[b + 1])
    for op, answer in zip(ops, answers):
        tally.gate(op, answer)
    return raw, scaled


def measure_setup(name: str) -> tuple[float, float]:
    """Seconds a fresh interpreter spends importing wol and running one
    warm-up op, as the interpreter times them itself, at reference speed
    and raw.  Interpreter start and the numpy import are left out: they
    are not wol's, and they vary more from process to process than wol's
    import does.  The time is scaled by the reference import of
    ``speed.IMPORT_MODULES`` in the same interpreter."""
    code = PROBE.format(src=str(SRC), bench=str(BENCH), name=name,
                        modules=", ".join(speed.IMPORT_MODULES))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}")
    took, reference = map(float, proc.stdout.split())
    return took * speed.IMPORT_NOMINAL_S / reference, took


def _p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def end_to_end(workload, args, tally: Tally) -> tuple[dict, dict]:
    """Passes while one more fits in ``--seconds`` of raw time, with
    ``PROBES_PER_PASS`` setup probes before each (``SETUP_PROBES`` at
    least), so that the probes sample the machine's speed over the whole
    run.  An op's time is its median over the passes."""
    import workloads

    workloads.warm_up(workload.name)
    ops = workload.ops
    probes, passes, raw_passes, per_op = [], [], [], [[] for _ in ops]
    while not passes or sum(raw_passes) + raw_passes[-1] <= args.seconds:
        probes.extend(measure_setup(workload.name) for _ in range(PROBES_PER_PASS))
        raw, scaled = timed_pass(workload, tally)
        raw_passes.append(sum(raw))
        passes.append(sum(scaled))
        for times, t in zip(per_op, scaled):
            times.append(t)
    while len(probes) < SETUP_PROBES:
        probes.append(measure_setup(workload.name))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    op_s = [statistics.median(times) for times in per_op]
    samples = [t for op, t in zip(ops, op_s) if op.sample]
    values = {
        "setup_s": statistics.median(p[0] for p in probes),
        "peak_rss_mb": peak_kb / 1024,
        "pass_s": statistics.median(passes),
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_p95_ms": _p95(samples) * 1e3,
        "ops_per_s": len(ops) / statistics.median(passes),
    }
    detail = {
        "passes_s": passes,
        "raw_passes_s": raw_passes,
        "setup_probes_s": [p[0] for p in probes],
        "raw_setup_probes_s": [p[1] for p in probes],
        "latency_samples": len(samples),
    }
    return values, detail


def per_layer(workload, args, tally: Tally) -> tuple[dict, dict]:
    """Untraced and traced passes in turn, while one more pair fits in
    ``--seconds`` of raw time.  Layer times are scaled to reference speed by the
    traced passes' overall ratio of scaled to raw time."""
    import workloads
    from tracing import Tracer

    workloads.warm_up(workload.name)
    tracer = Tracer()
    ops = workload.ops
    plain, traced, raw_total = [], [], [0.0, 0.0]
    while not traced or sum(raw_total) + last_pair <= args.seconds:
        raw, scaled = timed_pass(workload, tally)
        raw_total[0] += sum(raw)
        plain.append(sum(scaled))
        last_pair = sum(raw)
        tracer.install()
        try:
            raw, scaled = timed_pass(workload, tally, tracer)
        finally:
            tracer.uninstall()
        raw_total[1] += sum(raw)
        traced.append(sum(scaled))
        last_pair += sum(raw)
    k = len(traced)
    scale = sum(traced) / raw_total[1]
    totals = tracer.layer_totals()
    values = {}
    for name, unit in PER_LAYER.items():
        value = totals.get(name, 0) / k
        values[name] = value * scale if unit == "s" else value
    busy = totals["classes.busy_s"] * scale
    values["classes.members_per_s"] = totals.get("classes.members", 0) / busy if busy else 0.0
    values["cli.self_s"] = totals["cli.busy_s"] * scale / k
    values["trace.spans"] = tracer.spans / k
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}.npz")
    detail = {"untraced_passes_s": plain, "traced_passes_s": traced,
              "raw_seconds": raw_total, "reference_scale": scale,
              "spans_file": f"bench/out/spans-{workload.name}.npz"}
    return values, detail


# --- reporting ----------------------------------------------------------------


def run_record(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_one(args) -> int:
    import wol
    import workloads

    if not Path(wol.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: imported wol from {wol.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed, args.tiny)
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    values, detail = measure(workload, args, tally)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = run_record(args)

    OUT.mkdir(exist_ok=True)
    full = {"record": record, "census": workload.census, **detail,
            "error_rate": tally.failed / tally.attempted, "failures": tally.reasons, **result}
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(full, indent=1))

    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {tally.attempted} ops, {tally.failed} failed, "
          f"error_rate={tally.failed / tally.attempted:g}")
    for name, m in metrics.items():
        print(f"  {name:<26} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"record": record, "census": workload.census}))
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "wol" / "__init__.py").is_file():
        print(f"run.py: no wol sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    args = _parser(workloads.NAMES).parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
