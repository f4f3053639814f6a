"""Layered benchmark for shelveread.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload counts --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` times closed-loop pipeline passes for about ``--seconds``,
spread over a few fresh worker processes run one after another, and
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced in-process passes in one process and reports the per-layer metrics
of ``layers.json``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record of the run (run
context, pass times, checks, spans) goes to
``.perfbench_out/results/<workload>-seed<seed>-trace<0|1>.json``.

The package is imported from ``src/`` of the checkout and nowhere else; the
benchmark exits with status 2 when it is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("counts", "counts_high_decay", "traces", "cli")
WORKERS = 3
IMPORT_PROBES = 3

# name -> unit; every workload reports all of them with --trace 0.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "sim_shots_per_s": "shots/s",
    "peak_mem_mb": "MiB",
}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def threads_available() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# Run context


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _last_level_cache() -> str | None:
    """Size of the highest cache level of CPU 0, as the kernel reports it."""
    levels = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            levels[int((index / "level").read_text())] = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
    return levels[max(levels)] if levels else None


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "shelveread").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_context(workload, args) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "threads_available": threads_available(),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": workload.sizes(),
    }


# ---------------------------------------------------------------------------
# Import probe (fresh processes)


def import_breakdown() -> dict[str, float]:
    """Median over fresh processes of ``python -X importtime -c 'import shelveread'``."""
    from workloads import src_env

    samples = {"import.total_s": [], "import.scipy_s": [], "import.shelveread_self_s": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import shelveread"],
            cwd=ROOT, env=src_env(ROOT), capture_output=True, text=True, timeout=60, check=True,
        )
        total = scipy_self = own_self = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            try:
                self_us, cum_us = int(fields[0]), int(fields[1])
            except ValueError:
                continue  # the header line
            module = fields[2].strip()
            top = module.split(".")[0]
            if module == "shelveread":
                total = cum_us
            if top == "scipy":
                scipy_self += self_us
            elif top == "shelveread":
                own_self += self_us
        samples["import.total_s"].append(total * 1e-6)
        samples["import.scipy_s"].append(scipy_self * 1e-6)
        samples["import.shelveread_self_s"].append(own_self * 1e-6)
    return {name: statistics.median(v) for name, v in samples.items()}


# ---------------------------------------------------------------------------
# Untraced and traced runs


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


class Checks:
    """Counts checks into ``attempted``/``failed`` and keeps failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"{name}: {detail}" if detail else name)
        return ok


def timed_loop(seconds, one_pass, checks, min_passes=1) -> list[dict]:
    """Closed loop: passes back to back for about ``seconds``.

    The loop stops once another pass would end more than half a pass past
    ``seconds``, so the measured time is ``seconds`` give or take half a pass.
    """
    passes = []
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        try:
            passes.append(one_pass(len(passes)))
        except Exception as exc:  # a failed pass counts against the run
            checks.expect("pass completed", False, repr(exc))
            traceback.print_exc(file=sys.stderr)
            break
        now = time.perf_counter()
        if now - t0 + 0.5 * (now - t) >= seconds and len(passes) >= min_passes:
            break
    return passes


def check_identical(checks, passes) -> None:
    digests = {p["digest"] for p in passes}
    checks.expect("outputs identical across the passes of the run", len(digests) == 1,
                  f"{len(digests)} distinct outputs")


def start_workload(args):
    """Import shelveread from src/, prepare the inputs and warm up."""
    sys.path.insert(0, str(SRC))
    import shelveread

    if Path(shelveread.__file__).resolve().parent != (SRC / "shelveread").resolve():
        raise SystemExit(f"error: shelveread imported from {shelveread.__file__}, not {SRC}")
    from workloads import WORKLOADS

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, threads_available(), workdir, ROOT)
    workload.warm_up()
    return workload


def worker_main(args) -> int:
    """One fresh process of an untraced run: set up, then timed passes.

    Prints a JSON report: the wall-clock instant set-up finished, the pass
    records, the peak RSS through set-up and the first pass, and the
    checks.  The last worker of a run also makes the once-per-run checks
    and measures the peak memory of one pass.
    """
    workload = start_workload(args)
    ready_at = time.time()
    checks = Checks()
    rss = []

    def one_pass(i):
        record = workload.run_pass(checks)
        if i == 0:
            rss.append(peak_rss_mb())
        return record

    memory = None
    try:
        passes = timed_loop(args.seconds, one_pass, checks)
        if passes and args.final:
            workload.check_run(checks)
            memory = workload.peak_memory(checks)
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)
    print(json.dumps({
        "ready_at": ready_at,
        "passes": passes,
        "peak_rss_mb": rss[0] if rss else None,
        "peak_memory": memory,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "notes": checks.notes,
        "context": run_context(workload, args),
    }))
    return 0


def run_untraced(args, checks) -> tuple[dict, dict]:
    """``WORKERS`` fresh processes back to back, sharing ``seconds`` of passes.

    Each worker's time from spawn to ready is a set-up sample.  The peak RSS
    of the workers is reported but not gated: it varies between processes
    by up to ~30 % with the timing of the simulation threads' allocations
    and with what the allocator keeps.  The gated ``peak_mem_mb`` comes from
    ``Workload.peak_memory``.
    """
    passes, setups, rss, context, memory = [], [], [], None, None
    for k in range(WORKERS):
        share = (args.seconds - sum(p["pass_s"] for p in passes)) / (WORKERS - k)
        argv = [sys.executable, str(Path(__file__).resolve()), "--worker",
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(share)] + (["--final"] if k == WORKERS - 1 else [])
        spawned_at = time.time()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {k} exited with status {proc.returncode}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append(report["ready_at"] - spawned_at)
        passes += report["passes"]
        if report["peak_rss_mb"] is not None:
            rss.append(report["peak_rss_mb"])
        memory = memory or report["peak_memory"]
        checks.attempted += report["attempted"]
        checks.failed += report["failed"]
        checks.notes += report["notes"]
        context = context or report["context"]
    if not (passes and memory):
        raise RuntimeError("no pass completed")
    memory_mb, memory_pass = memory
    check_identical(checks, passes + ([memory_pass] if memory_pass else []))

    pass_s = [p["pass_s"] for p in passes]
    q1, q3 = quartiles(pass_s)
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(pass_s),
        "sim_shots_per_s": statistics.median(p["sim_shots"] / p["sim_s"] for p in passes),
        "peak_mem_mb": memory_mb,
    }
    extra = {
        "passes": len(passes),
        "pass_s_q1": q1,
        "pass_s_q3": q3,
        "peak_rss_mb": statistics.median(rss),
        "failed_frac": checks.failed / checks.attempted,
    }
    for key in passes[0]["stages"]:
        extra[key] = statistics.median(p["stages"][key] for p in passes)
    record = {"extra": extra, "setup_s_samples": setups, "peak_rss_mb_samples": rss,
              "pass_records": passes, "context": context}
    return metrics, record


def run_traced(args, checks) -> tuple[dict, dict]:
    """Untraced and traced in-process passes, alternating, in this process."""
    from tracing import Tracer, install, layer_metrics

    workload = start_workload(args)
    tracer = Tracer()

    def one_pass(i):
        if i % 2 == 0:
            return dict(workload.traced_pass(checks, None), traced=False)
        install(tracer)
        try:
            with tracer.span("pass", index=i):
                return dict(workload.traced_pass(checks, tracer), traced=True)
        finally:
            tracer.restore()

    passes = timed_loop(args.seconds, one_pass, checks, min_passes=2)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not (untraced and traced):
        raise RuntimeError("no traced pass completed")
    check_identical(checks, passes)

    timings = workload.check_run(checks)
    install(tracer)
    try:
        extras = workload.trace_extras()
    finally:
        tracer.restore()

    layers = layer_metrics(tracer.spans, len(traced))
    layers.update(extras)
    if "single_thread_s" in timings:
        layers["monte_carlo.thread_scaling"] = timings["single_thread_s"] / statistics.median(
            p["stages"]["threaded_s"] for p in untraced
        )
    layers.update(import_breakdown())
    layers["trace.overhead_frac"] = (
        statistics.median(p["pass_s"] for p in traced) / statistics.median(p["pass_s"] for p in untraced) - 1.0
    )
    shutil.rmtree(workload.workdir, ignore_errors=True)
    record = {
        "pass_records": passes,
        "missing_names": sorted(set(tracer.missing)),
        "spans": [sp.as_dict() for sp in tracer.spans],
        "context": run_context(workload, args),
    }
    return layers, record


def load_layer_table() -> list[dict]:
    return json.loads((HERE / "layers.json").read_text())["metrics"]


# ---------------------------------------------------------------------------
# Entry points


def run_one(args) -> int:
    checks = Checks()
    if args.trace:
        values, record = run_traced(args, checks)
        table = load_layer_table()
        absent = [m["name"] for m in table if m["name"] not in values]
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in table}
    else:
        values, record = run_untraced(args, checks)
        absent = []
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    record.update(result=result, absent=absent, failures=checks.notes)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for note in checks.notes:
        print(f"check failed: {note}", file=sys.stderr)
    ctx = record["context"]
    print(f"workload {args.workload}  seed {args.seed}  threads {ctx['sizes']['threads']}  "
          f"checks {checks.attempted - checks.failed}/{checks.attempted}  record {path.relative_to(ROOT)}")
    print(f"  nproc {ctx['nproc']}, {ctx['cpu_model']}, last-level cache {ctx['last_level_cache']}, "
          f"python {ctx['python']}, numpy {ctx['numpy']}, scipy {ctx['scipy']}, "
          f"git {ctx['git_sha']}, src sha256 {ctx['src_sha256'][:12]}")
    for name, m in metrics.items():
        note = "  (absent)" if name in absent else ""
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{note}")
    for name, value in record.get("extra", {}).items():
        print(f"  {name:40s} {value:.6g}  (not gated)")
    if record.get("missing_names"):
        print(f"  wrapped names not found: {', '.join(record['missing_names'])}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one combined summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--final", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (0 <= args.seed < 2**63):
        parser.error("--seed must lie in [0, 2**63)")
    if not (SRC / "shelveread" / "__init__.py").is_file():
        print(f"error: no shelveread sources under {SRC}", file=sys.stderr)
        return 2
    if args.worker:
        return worker_main(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
