"""Benchmark of the retrialsi CLI: three workloads, output checks, and a traced run.

Run from the repository root:

    python3 bench/run.py --workload lattice --seed 1 --seconds 38 --trace 0

``--trace 0`` runs every operation as its own ``python3 -m retrialsi.cli``
process and times it end to end, interpreter start included, repeating the
workload until ``--seconds`` have passed.  ``--trace 1`` runs each operation
once in this process, with spans around the public functions of each layer.
Either way the outputs are checked, the last line of stdout is one JSON
object, and a fuller record is written to ``bench/out/``.  BLAS and OpenMP
are pinned to one thread here and in every child.  See ``bench/README.md``.
"""

import os

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}
os.environ.update(THREAD_ENV)  # before anything loads numpy

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REQUIRED = (SRC / "retrialsi" / "cli.py", ROOT / "demos" / "configs" / "wellmixed.yaml",
            ROOT / "reports" / "table_grid.csv")
# the keys of workloads.WORKLOADS, named here so that parsing arguments loads no numpy
WORKLOAD_NAMES = ("lattice", "report_grid", "stationary_mc")
END_TO_END = {  # name -> unit; the gated metrics, reported on every workload
    "setup_s": "s", "solve_ilt_s": "s", "solve_unif_s": "s", "transient_s": "s",
    "peak_rss_mb": "MB", "ilt_oracle_err": "abs",
}
OPERATION_TIMES = ("setup_s", "solve_ilt_s", "solve_unif_s", "table_s", "table_unif_s",
                   "sweep_s", "sweep_unif_s", "stationary_s", "mc_s")
RUN_LIMIT_S = 170.0  # a run must end within 180 s; no child outlives this

sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)  # carries THREAD_ENV
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(OUT / "tmp")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_cli(argv, out_dir: Path, log: Path, timeout: float) -> dict:
    """One CLI process: wall time, exit code and peak RSS.  Killed after ``timeout``."""
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [sys.executable, "-m", "retrialsi.cli", *argv, "--out", str(out_dir)]
    with open(log, "w", encoding="utf-8") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=sink, stderr=sink)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "message": last_line(log)}


def last_line(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def exit_reason(rc) -> str:
    if rc is None:
        return "uncaught exception (a traceback escapes the CLI)"
    if rc < 0:
        return f"killed by signal {-rc}"
    if rc not in (0, 2, 3):
        return f"exit code {rc}, outside the CLI's 0/2/3 contract"
    return f"exit code {rc}"


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):  # show_config's layout varies across numpy versions
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    fi = np.finfo(np.longdouble)
    return {
        "threads": THREAD_ENV,
        "one_operation_at_a_time": True,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "longdouble": {"dtype": str(fi.dtype), "nmant": int(fi.nmant),
                       "precision": int(fi.precision), "eps": float(fi.eps)},
    }


class Tally:
    """Attempts, failures, timing samples and checks of one run.

    ``attempted`` and ``failed`` count the workload's operations, not their
    invocations: an operation fails if any of its invocations fails.  How many
    times a repeated operation fits into ``--seconds`` varies with the host's
    speed, so counting invocations would make the counts vary between runs of
    the same code.  Every failed invocation is still listed in ``failures``.
    """

    def __init__(self, workload, out_dir):
        self.workload = workload
        self.out_dir = out_dir
        self.last_rc = {}             # op name -> exit code of its latest run
        self.invocations = 0
        self.failures = []            # (op, reason), one per failed invocation
        self.samples = {}             # metric -> [seconds]
        self.rss_mb = []
        self.oracle_err = []
        self.wrong_outputs = 0        # checks failed on output of an op that exited 0
        self.checks = []

    def judge(self, op, result: dict):
        """Check one finished operation; only a passing one gives a timing sample."""
        from workloads import run_checks

        self.invocations += 1
        self.last_rc[op.name] = result["rc"]
        if "rss_mb" in result:
            self.rss_mb.append(result["rss_mb"])
        if result["rc"] != 0:
            self.failures.append((op.name, f"{exit_reason(result['rc'])}: {result['message']}"))
            return
        bad = None
        for c in run_checks(self.workload, op.name, self.out_dir,
                            lambda name: self.last_rc.get(name) == 0):
            self.checks.append({"op": c.op, "ok": c.ok, "detail": c.detail})
            if not c.ok:
                bad = bad or c.detail
                self.wrong_outputs += 1
            elif c.oracle_err is not None:
                self.oracle_err.append(c.oracle_err)
        if bad:
            self.failures.append((op.name, bad))
        else:
            self.samples.setdefault(op.metric, []).append(result["wall_s"])

    @property
    def attempted(self) -> int:
        return len(self.last_rc)

    @property
    def failed(self) -> int:
        return len({op for op, _ in self.failures})


def record_metrics(workload, tally: Tally) -> dict:
    """The end-to-end metrics in the run record: the gated ones plus the median time
    of every kind of operation.  A time with no successful sample is None, never 0.
    """
    med = {metric: statistics.median(v) for metric, v in tally.samples.items()}
    transient = [op.metric for op in workload.ops if op.kind == "transient"]
    complete = all(m in med for m in transient)
    return {
        **{metric: med.get(metric) for metric in OPERATION_TIMES},
        "transient_s": sum(med[m] for m in set(transient)) if complete else None,
        "peak_rss_mb": max(tally.rss_mb) if tally.rss_mb else None,
        "ilt_oracle_err": max(tally.oracle_err) if tally.oracle_err else None,
        "failed_share": tally.failed / tally.attempted if tally.attempted else None,
    }


def measure(workload, seconds: float, started: float) -> Tally:
    """Cycle through the workload's operations, one process at a time, for ``seconds``."""
    work = OUT / workload.name
    work.mkdir(parents=True, exist_ok=True)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tally = Tally(workload, lambda op: work / op)

    def elapsed():
        return time.perf_counter() - started

    # warm-up, untimed: byte-compiled modules and the file cache are ready before timing
    warm = next(op for op in workload.ops if op.kind == "setup")
    run_cli(warm.argv, work / "warmup", work / "warmup.log", RUN_LIMIT_S - elapsed())
    for k, op in enumerate(workload.schedule()):
        if RUN_LIMIT_S - elapsed() < 1.0 or (k >= len(workload.ops) and elapsed() >= seconds):
            break
        tally.judge(op, run_cli(op.argv, work / op.name, work / f"{op.name}.log",
                                RUN_LIMIT_S - elapsed()))
    return tally


def traced(workload_name: str, seed: int) -> tuple[Tally, dict]:
    """Run each operation once in-process under the tracer."""
    import tracing

    tracer = tracing.Tracer()
    start = time.perf_counter()
    import retrialsi.cli  # noqa: F401  -- timed: interpreter-level import cost of the CLI
    tracer.record("cli.import", start, time.perf_counter())
    import workloads

    workload = workloads.build(workload_name, seed)
    work = OUT / workload.name / "trace"
    work.mkdir(parents=True, exist_ok=True)

    def out_dir(op):
        return work / op

    results = {}
    tracer.install()
    try:
        for op in workload.ops:
            out = out_dir(op.name)
            shutil.rmtree(out, ignore_errors=True)
            log = work / f"{op.name}.log"
            begin = time.perf_counter()
            rc, message = None, ""
            with open(log, "w", encoding="utf-8") as sink, \
                    contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    rc = tracer.call(f"op.{op.name}", retrialsi.cli.main,
                                     [*op.argv, "--out", str(out)])
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception as exc:  # the boundary: record the escape and go on
                    message = f"{type(exc).__name__}: {exc}"
            results[op.name] = {"rc": rc, "wall_s": time.perf_counter() - begin,
                                "message": message or last_line(log)}
    finally:
        tracer.uninstall()
    traced_wall = sum(r["wall_s"] for r in results.values())
    tally = Tally(workload, out_dir)
    for op in workload.ops:
        tally.judge(op, results[op.name])
    metrics, reasons = tracer.per_layer(traced_wall)
    spans = [{"name": n, "start": s, "end": e, "parent": p, "error": err}
             for n, s, e, p, err in tracer.spans]
    return tally, {"metrics": metrics, "reasons": reasons, "spans": spans,
                   "traced_wall_s": traced_wall}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"bench: not a retrialsi checkout, missing {missing}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so run_cli kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    if args.trace:
        tally, trace = traced(args.workload, args.seed)
        record["traced_run"] = trace
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in trace["metrics"].items()}
        for name, reason in trace["reasons"].items():
            print(f"bench: {name} missing: {reason}", file=sys.stderr)
    else:
        import workloads

        workload = workloads.build(args.workload, args.seed)
        tally = measure(workload, args.seconds, started)
        values = record_metrics(workload, tally)
        record["metrics"] = values
        metrics = {name: {"value": values.get(name), "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name, entry in metrics.items():
            if entry["value"] is None:
                print(f"bench: {name} missing: no successful sample", file=sys.stderr)

    correct = not tally.wrong_outputs and all(m["value"] is not None for m in metrics.values())
    record.update({
        "environment": environment(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "invocations": tally.invocations,
        "failures": tally.failures,
        "checks": tally.checks,
        "samples": tally.samples,
        "elapsed_s": time.perf_counter() - started,
    })
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    for op, reason in tally.failures:
        print(f"bench: {op} failed: {reason}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
