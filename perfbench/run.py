"""Benchmark of the hookup library: one workload per run, checked against oracles.

    python3 perfbench/run.py --workload report-2q --seed 1 --seconds 15 --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
same checkout with BLAS/OpenMP pinned to one thread.  A run draws its inputs
from ``--seed``, repeats passes of the workload's fixed op list until
``--seconds`` have passed (at least one pass), checks every op, and prints a
table followed by one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes over the same inputs and reports the
per-layer metrics and the tracing overhead.  The full record, environment
included, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported anywhere in this process or its children.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import probe  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hookup" / "__init__.py").is_file():
        print(f"error: no hookup sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hookup

    if Path(hookup.__file__).resolve().parent != (SRC / "hookup").resolve():
        print(f"error: imported hookup from {hookup.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 0:
        print("error: --seconds must be non-negative", file=sys.stderr)
        return 2

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print_table(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


class Ledger:
    """Ops attempted and failed, failures with their inputs, op latencies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}

    def execute(self, op, pass_index, call=None):
        """Run, time and check one op; returns (seconds, digest, passed)."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = call(op.run) if call else op.run()
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            elapsed = time.perf_counter() - started
            self.fail(op, pass_index, [f"raised {type(exc).__name__}: {exc}"])
            return elapsed, None, False
        elapsed = time.perf_counter() - started
        if call is None:  # traced times would mix tracing overhead into the latencies
            self.by_kind.setdefault(op.kind, []).append(elapsed)
            self.latencies.append(elapsed)
        try:
            messages = op.check(result)
            digest = op.digest(result)
        except Exception as exc:
            messages, digest = [f"check raised {type(exc).__name__}: {exc}"], None
        if messages:
            self.fail(op, pass_index, messages)
        return elapsed, digest, not messages

    def fail(self, op, pass_index, messages):
        self.failed += 1
        self.failures.append({"op": op.kind, "input": op.label, "pass": pass_index,
                              "messages": messages})


def run_pass(workload, seed, index, ledger, call=None):
    """One pass over fresh ops; returns the ops, their times, digests and pass/fail flags."""
    ops = workload.make_pass(seed, index)
    times, digests, oks = [], [], []
    for op in ops:
        elapsed, digest, ok = ledger.execute(op, index, call)
        times.append(elapsed)
        digests.append(digest)
        oks.append(ok)
    return ops, times, digests, oks


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; ``tiny`` shrinks every workload for the harness tests."""
    import hookup
    import workloads

    workload = workloads.WORKLOADS[name](tiny)
    warm = time.perf_counter()
    probe.first_calls(hookup)
    warmup_s = time.perf_counter() - warm

    ledger = Ledger()
    record = {"workload": name, "sizes": workload.sizes,
              "environment": environment(seed, seconds, trace), "warmup_s": warmup_s}
    if trace:
        metrics = traced_run(workload, seed, seconds, ledger, record)
        units = spans.METRICS
    else:
        setup = measure_setup(1 if tiny else SETUP_PROBES)
        passes = []  # (op times, digests); ops are dropped so their inputs do not pile up
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < seconds:
            _, times, digests, _ = run_pass(workload, seed, len(passes), ledger)
            passes.append((times, digests))
        pass_s = [sum(times) for times, _ in passes]
        record["setup_probes_s"] = setup
        record["pass_s"] = pass_s
        record["digests"] = [_join(digests) for _, digests in passes]
        record["determinism"] = recheck(workload, seed, *passes[0], ledger)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(pass_s),
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    record["latency"] = latency_summary(ledger.latencies)
    record["op_median_s"] = {k: statistics.median(v) for k, v in ledger.by_kind.items()}
    record["failures"] = ledger.failures
    record["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    record["attempted"] = ledger.attempted
    record["failed"] = ledger.failed
    record["correct"] = ledger.failed == 0
    return record


def _join(digests) -> str:
    return hashlib.sha256("|".join(str(d) for d in digests).encode()).hexdigest()


def recheck(workload, seed, times, digests, ledger) -> dict:
    """Re-run the cheapest op of pass 0; a different digest fails that op."""
    k = min(range(len(times)), key=times.__getitem__)
    op = workload.make_pass(seed, 0)[k]  # rebuilt from the seed: no object of pass 0 is reused
    _, digest, ok = ledger.execute(op, 0)
    same = digest is not None and digest == digests[k]
    if ok and not same:
        ledger.fail(op, 0, [f"determinism: digest {digest} != first run {digests[k]}"])
    return {"op": op.kind, "digest": digest, "same": same}


def traced_run(workload, seed, seconds, ledger, record) -> dict:
    """Untraced and traced passes alternate over the same inputs."""
    import hookup

    modules = [getattr(hookup, layer) for layer in spans.LAYERS]
    tracer = spans.Tracer()
    untraced, traced = [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        index = len(traced)
        plain = run_pass(workload, seed, index, ledger)
        with tracer.installed(modules, extra_namespaces=[hookup]):
            spanned = run_pass(workload, seed, index, ledger,
                               call=lambda fn: tracer.span("bench.op", fn))
        ops, _, untraced_digests, _ = plain
        for op, a, b, ok in zip(ops, untraced_digests, spanned[2], spanned[3]):
            if ok and a != b:
                ledger.fail(op, index, ["determinism: traced and untraced digests differ"])
        untraced.append(sum(plain[1]))
        traced.append(sum(spanned[1]))
    metrics = spans.layer_metrics(tracer, len(traced))
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    record["pass_s"] = {"untraced": untraced, "traced": traced}
    record["spans"] = spans.span_summary(tracer)
    return metrics


# ---------------------------------------------------------------------------
# Set-up, environment, summaries
# ---------------------------------------------------------------------------


def measure_setup(probes: int) -> list[float]:
    """Import plus first calls, each in a fresh interpreter, in seconds."""
    out = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append(times["import_s"] + times["first_calls_s"])
    return out


def environment(seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def git_commit() -> str | None:
    """HEAD of the checkout read from ``.git``; None outside a git repository."""
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
        return None
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hookup").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def latency_summary(latencies: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    out = {"ops": n}
    if n >= 20:
        q = statistics.quantiles(latencies, n=100, method="inclusive")
        out["p50_s"] = q[49]
        for pct in (99, 90):
            if n * (100 - pct) / 100 >= 10:
                out[f"p{pct}_s"] = q[pct - 1]
                break
    return out


def print_table(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {env['seed']}  trace {int(env['trace'])}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  python {env['python']}  "
          f"nproc {env['nproc']}  threads {env['threads']['OMP_NUM_THREADS']}")
    for name, m in record["metrics"].items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    lat = record["latency"]
    extra = "  ".join(f"{k} {v:.4g} s" for k, v in lat.items() if k != "ops")
    print(f"  ops timed {lat['ops']}  {extra or '(too few ops for percentiles)'}")
    print(f"  fail_ratio {record['failed']}/{record['attempted']}")
    for f in record["failures"]:
        print(f"  FAIL pass {f['pass']} {f['op']} [{f['input']}]: {'; '.join(f['messages'])}")


if __name__ == "__main__":
    sys.exit(main())
