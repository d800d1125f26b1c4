"""skiprec benchmark: one workload as a closed loop of one client.

    python3 perfbench/run.py --workload desk-decode --seed 1 --seconds 30 --trace 0

The workload's inputs come from ``--seed``. Each operation is timed, then its
output is checked; an operation that raises or fails its check counts as
failed. With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json. With ``--trace 1`` it runs untraced for a third of the time,
replays the same operations with every function in ``layers.TARGETS``
wrapped, and reports the per-layer metrics plus the tracing overhead.

The last line of standard output is the JSON result. A result file with the
environment record, and for traced runs the spans, go to ``.perfbench-out/``.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# BLAS runs on one thread; the pin must precede the first numpy import.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
UNTRACED_SHARE = 1 / 3   # of --seconds, in a traced run, before the traced replay


def import_program():
    """Import skiprec from this checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import skiprec
    if Path(skiprec.__file__).resolve().parent != (ROOT / "src" / "skiprec").resolve():
        raise ImportError(f"skiprec imported from {skiprec.__file__}, not this checkout")
    return skiprec


@dataclass
class Record:
    ident: str
    units: int
    seconds: float
    digest: str | None
    error: str | None


def run_op(wl, op, tracer=None) -> Record:
    """Time one operation, then check its output; failures are recorded, not raised."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.run(op)
        else:
            with tracer.span("op", op.ident):
                out = wl.run(op)
        seconds = time.perf_counter() - t0
        return Record(op.ident, op.units, seconds, wl.check(op, out), None)
    except Exception as exc:  # the loop must go on; the failure is counted and reported
        return Record(op.ident, op.units, time.perf_counter() - t0, None,
                      f"{type(exc).__name__}: {exc}")


def closed_loop(wl, seconds: float, kept: list | None = None) -> list[Record]:
    """Operations back to back until ``seconds`` have passed; at least one.

    Inputs are dropped after their operation, so memory does not grow with
    the number of operations, unless ``kept`` collects them for a replay.
    """
    records: list[Record] = []
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        op = wl.next_op()
        records.append(run_op(wl, op))
        if kept is None:
            wl.cleanup(op)
        else:
            kept.append(op)
    return records


def per_unit_ms(records: list[Record]) -> list[float]:
    return [1000.0 * r.seconds / r.units for r in records if r.error is None]


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(records: list[Record], setup_s: float) -> dict[str, float]:
    ok = [r for r in records if r.error is None]
    ms = per_unit_ms(records)
    busy = sum(r.seconds for r in ok)
    return {
        "utt_per_s": sum(r.units for r in ok) / busy if busy else 0.0,
        "utt_ms_p50": percentile(ms, 50),
        "utt_ms_p90": percentile(ms, 90),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(wl, seconds: float, tracer) -> tuple[list[Record], dict[str, float]]:
    """Untraced operations, then the same ones traced, plus the no-skip baseline."""
    import layers
    ops: list = []
    first = closed_loop(wl, seconds * UNTRACED_SHARE, kept=ops)
    tracer.install()
    second: list[Record] = []
    noskip = 0
    try:
        for op, ra in zip(ops, first):
            rb = run_op(wl, op, tracer)
            if rb.error is None and ra.error is None and rb.digest != ra.digest:
                rb.error = "traced output differs from the untraced output"
            try:
                with tracer.span("noskip", op.ident):
                    noskip += wl.noskip(op)
            except Exception as exc:  # counted against the operation, like a failed check
                rb.error = rb.error or f"no-skip pass: {type(exc).__name__}: {exc}"
            second.append(rb)
            wl.cleanup(op)
    finally:
        tracer.uninstall()
    ok = [r for r in second if r.error is None]
    units = sum(r.units for r in ok)
    steps = len(ok) * getattr(wl, "steps_per_op", 0)
    metrics = layers.per_layer(tracer, units, steps, noskip)
    metrics["trace.overhead_ms"] = (percentile(per_unit_ms(second), 50)
                                    - percentile(per_unit_ms(first), 50))
    return first + second, metrics


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(spec: dict, workload: str) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "workload_why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
    }


def repeated_setup(wl, tracer) -> list[float]:
    """Seconds of each of ``SETUP_REPEATS`` set-ups; a traced run traces them too."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if tracer is None:
            wl.setup()
        else:
            tracer.install()
            try:
                with tracer.span("setup"):
                    wl.setup()
            finally:
                tracer.uninstall()
        times.append(time.perf_counter() - t0)
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="skiprec benchmark, one workload per run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    import_program()
    sys.path.insert(0, str(HERE))
    import layers
    import workloads
    from tracer import Tracer
    import_s = time.perf_counter() - T0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    wl = workloads.make(args.workload, args.seed, work)
    tracer = Tracer(layers.TARGETS) if args.trace else None
    setup_times = repeated_setup(wl, tracer)
    setup_s = import_s + statistics.median(setup_times)

    try:
        warm = []
        if wl.warmup:   # untimed: lets lazy numpy and BLAS set-up finish first
            op = wl.next_op()
            warm.append(run_op(wl, op))
            wl.cleanup(op)
        if tracer is None:
            records = closed_loop(wl, args.seconds)
            metrics = end_to_end(records, setup_s)
            wanted = spec["end_to_end"]
        else:
            records, metrics = traced(wl, args.seconds, tracer)
            wanted = spec["per_layer"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    records = warm + records

    failures = [f"{r.ident}: {r.error}" for r in records if r.error is not None]
    failures += wl.gates()
    summary = wl.summary()
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": sum(r.error is not None for r in records),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(spec, args.workload),
        "setup_s_samples": [import_s + t for t in setup_times],
        "summary": {name: value for name, (value, _) in summary.items()},
        "result": result, "failures": failures[:20],
        "op_ms": [round(1000.0 * r.seconds, 3) for r in records],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.write(OUT / f"{tag}-spans.npz")
        detail["missing_targets"] = tracer.missing
        detail["spans_under_op"] = {
            name: {"calls": row["calls"], "inclusive_ms": row["inclusive_s"] * 1000.0,
                   "self_ms": row["self_s"] * 1000.0}
            for name, row in sorted(tracer.totals(("op",)).items())}
        if "model.forward_self_ms" in metrics:
            detail["forward_self_within_overhead"] = (
                metrics["model.forward_self_ms"] <= max(metrics["trace.overhead_ms"], 0.0))
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")

    rows = [(name, e["value"], e["unit"]) for name, e in result["metrics"].items()]
    rows += [(name, value, unit) for name, (value, unit) in summary.items()]
    rows += [("ops_attempted", result["attempted"], "count"),
             ("ops_failed", result["failed"], "count")]
    if "forward_self_within_overhead" in detail:
        rows.append(("forward_self_within_overhead",
                     int(detail["forward_self_within_overhead"]), "bool"))
    for name, value, unit in rows:
        print(f"{name:32s} {value:14.6g} {unit}")
    for line in failures[:5]:
        print(f"failure: {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
