"""The benchmark's workloads: which CLI operations each runs, and how each output is checked.

Every operation is one ``retrialsi`` subcommand.  Every check reads the CSV
files an operation wrote and names the operation it judges; an operation
whose check fails counts as failed.  Reasons for the choice of workloads are
in ``bench/README.md``.
"""

from __future__ import annotations

import filecmp
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIGS = BENCH / "configs"
WELLMIXED = ROOT / "demos" / "configs" / "wellmixed.yaml"
REPORTS = ROOT / "reports"

ORACLE_BOUND = 1e-4              # max |ILT - uniformization|, the package's primary gate
STATIONARY_RESIDUAL_BOUND = 1e-10  # max |pi Q|
MC_SE_BOUND = 5.0                # Monte Carlo first moments vs uniformization, in standard errors
MC_MIN_REPLICAS = 100            # expected contributing replicas for the normal test to apply
REPORT_FILES = ("table_grid.csv", "table_grid_unrounded.csv", "reference_match.csv")
VALUE_COLUMNS = ("probability", "E_I", "E_R")


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  ``name`` is unique in its workload and names the output directory."""

    name: str
    metric: str          # timing bucket, e.g. "setup_s" or "solve_ilt_s"
    kind: str            # "setup", "transient", "stationary" or "oracle"
    argv: tuple[str, ...]  # subcommand and arguments, without --out


@dataclass
class CheckResult:
    op: str              # the operation judged
    ok: bool
    detail: str
    oracle_err: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    checks: tuple
    cycle: tuple[str, ...]  # names of the operations repeated after the first pass, in order

    def schedule(self):
        """Every operation once, then the ``cycle`` over and over."""
        yield from self.ops
        by_name = {op.name: op for op in self.ops}
        while True:
            yield from (by_name[name] for name in self.cycle)


def _op(name, metric, kind, subcommand, config, *extra):
    return Op(name, metric, kind, (subcommand, "--config", str(config), "--no-metadata", *extra))


def _read_csv(path: Path):
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


# --- checks -----------------------------------------------------------------


@dataclass(frozen=True)
class OracleAgreement:
    """The ILT output agrees with the uniformization output to ORACLE_BOUND, file by file."""

    ilt: str
    oracle: str
    files: tuple[str, ...]

    def reads(self):
        return (self.ilt, self.oracle)

    def run(self, out_dir) -> list[CheckResult]:
        worst = 0.0
        for name in self.files:
            head_a, a = _read_csv(out_dir(self.ilt) / name)
            head_b, b = _read_csv(out_dir(self.oracle) / name)
            if head_a != head_b or a.shape != b.shape:
                return [CheckResult(self.ilt, False, f"{name}: layout differs from the oracle's")]
            keys = [k for k, col in enumerate(head_a) if col not in VALUE_COLUMNS]
            values = [k for k, col in enumerate(head_a) if col in VALUE_COLUMNS]
            if not np.array_equal(a[:, keys], b[:, keys]):
                return [CheckResult(self.ilt, False, f"{name}: rows differ from the oracle's")]
            worst = max(worst, float(np.abs(a[:, values] - b[:, values]).max()))
        ok = worst <= ORACLE_BOUND
        return [CheckResult(self.ilt, ok, f"max |ILT - uniformization| = {worst:.3e}", worst)]


@dataclass(frozen=True)
class ReportBytes:
    """The uniformization table is byte-identical to the committed reports/."""

    op: str

    def reads(self):
        return (self.op,)

    def run(self, out_dir) -> list[CheckResult]:
        differing = [f for f in REPORT_FILES
                     if not filecmp.cmp(out_dir(self.op) / f, REPORTS / f, shallow=False)]
        detail = f"differs from reports/: {differing}" if differing else "reports/ byte-identical"
        return [CheckResult(self.op, not differing, detail)]


def _scenario(config):
    from retrialsi.cli import load_scenario
    return load_scenario(config)


@dataclass(frozen=True)
class StationaryResidual:
    """max |pi Q| of the written stationary.csv, with Q rebuilt by the public build_generator."""

    op: str
    config: Path

    def reads(self):
        return (self.op,)

    def run(self, out_dir) -> list[CheckResult]:
        from retrialsi import build_generator, rate_function
        scenario = _scenario(self.config)
        model = scenario.model
        gen = build_generator(model, rate_function(model, scenario.graph))
        _, rows = _read_csv(out_dir(self.op) / "stationary.csv")
        pi = np.zeros(model.space.size)
        pi[model.space.width * rows[:, 0].astype(int) + rows[:, 1].astype(int)] = rows[:, 2]
        residual = float(np.abs(gen.matrix.T @ pi).max())
        ok = residual <= STATIONARY_RESIDUAL_BOUND and abs(pi.sum() - 1.0) <= 1e-9
        return [CheckResult(self.op, ok, f"max |pi Q| = {residual:.3e}")]


@dataclass(frozen=True)
class MonteCarloAgreement:
    """Monte Carlo first moments lie within MC_SE_BOUND standard errors of uniformization.

    The standard error sqrt(Var / replicas) takes Var from the uniformization
    distribution.  A moment is compared only where at least MC_MIN_REPLICAS
    replicas are expected to contribute to it (the coordinate is nonzero):
    below that the sample mean is a skewed rare-event count, a single replica
    can sit tens of standard errors out, and the normal 5-SE test does not apply.
    """

    mc: str
    oracle: str
    config: Path

    def reads(self):
        return (self.mc, self.oracle)

    def run(self, out_dir) -> list[CheckResult]:
        replicas = _scenario(self.config).solver.replicas
        _, sampled = _read_csv(out_dir(self.mc) / "state_probs.csv")
        _, exact = _read_csv(out_dir(self.oracle) / "state_probs.csv")
        if not np.array_equal(sampled[:, :3], exact[:, :3]):
            return [CheckResult(self.mc, False, "state_probs.csv rows differ from the oracle's")]
        worst, compared = 0.0, 0
        for t in np.unique(exact[:, 0]):
            rows = exact[:, 0] == t
            for col in (1, 2):  # busy units i, orbit j
                x = exact[rows, col]
                if replicas * float(exact[rows, 3][x > 0].sum()) < MC_MIN_REPLICAS:
                    continue
                compared += 1
                mean = float(x @ exact[rows, 3])
                se = np.sqrt(max(float(x ** 2 @ exact[rows, 3]) - mean ** 2, 0.0) / replicas)
                gap = abs(float(x @ sampled[rows, 3]) - mean)
                if gap > MC_SE_BOUND * se + 1e-12:
                    return [CheckResult(self.mc, False,
                                        f"t={t}: first moment of column {col} is {gap:.3e} "
                                        f"from uniformization, SE {se:.3e}")]
                if se > 0:
                    worst = max(worst, gap / se)
        return [CheckResult(self.mc, compared > 0,
                            f"max deviation {worst:.2f} SE over {compared} moments")]


# --- workloads --------------------------------------------------------------
# Each oracle runs before the operations it judges, so a check can read its
# latest output.  "stationary" and "oracle" operations run once per run.  The
# cycle repeats the short gated operations (about 1 s each, most of it
# interpreter start and imports) more often than the long ones, so that their
# medians rest on six or more samples a run: single samples of them vary by
# up to ±25% on a shared host.


def _lattice(seed):
    cfg = CONFIGS / "lattice.yaml"
    ops = (
        _op("validate", "setup_s", "setup", "validate-config", cfg),
        _op("solve_unif", "solve_unif_s", "transient", "solve", cfg, "--method", "uniformization"),
        _op("validate_2", "setup_s", "setup", "validate-config", cfg),
        _op("solve_ilt", "solve_ilt_s", "transient", "solve", cfg, "--method", "ilt"),
        _op("validate_3", "setup_s", "setup", "validate-config", cfg),
        _op("stationary", "stationary_s", "stationary", "stationary", cfg),
    )
    checks = (
        OracleAgreement("solve_ilt", "solve_unif", ("state_probs.csv", "moments.csv")),
        StationaryResidual("stationary", cfg),
    )
    cycle = ("validate", "solve_unif", "validate_2", "solve_ilt", "validate_3", "solve_unif")
    return ops, checks, cycle


def _report_grid(seed):
    cfg = WELLMIXED
    ops = (
        _op("sweep_unif", "sweep_unif_s", "oracle", "sweep", cfg, "--method", "uniformization"),
        _op("stationary", "stationary_s", "stationary", "stationary", cfg),
        _op("validate", "setup_s", "setup", "validate-config", cfg),
        _op("solve_unif", "solve_unif_s", "transient", "solve", cfg, "--method", "uniformization"),
        _op("solve_ilt", "solve_ilt_s", "transient", "solve", cfg, "--method", "ilt"),
        _op("table_unif", "table_unif_s", "transient", "table", cfg, "--method", "uniformization"),
        _op("table", "table_s", "transient", "table", cfg, "--method", "ilt"),
        _op("validate_2", "setup_s", "setup", "validate-config", cfg),
        _op("sweep", "sweep_s", "transient", "sweep", cfg, "--method", "ilt"),
        _op("validate_3", "setup_s", "setup", "validate-config", cfg),
    )
    solve_files = ("moments.csv", "marginals_recovering.csv", "marginals_orbit.csv")
    checks = (
        OracleAgreement("solve_ilt", "solve_unif", solve_files),
        OracleAgreement("table", "table_unif", ("table_grid_unrounded.csv",)),
        OracleAgreement("sweep", "sweep_unif", ("sweep_homogeneous.csv",)),
        ReportBytes("table_unif"),
        StationaryResidual("solve_ilt", cfg),
        StationaryResidual("solve_unif", cfg),
        StationaryResidual("stationary", cfg),
    )
    cycle = ("validate", "solve_unif", "solve_ilt", "table_unif", "solve_ilt",
             "validate_2", "solve_unif", "solve_ilt", "table",
             "validate_3", "solve_unif", "solve_ilt", "sweep")
    return ops, checks, cycle


def _stationary_mc(seed):
    big = CONFIGS / "stationary_n100.yaml"
    mc = CONFIGS / "mc_n40.yaml"
    ops = (
        _op("stationary", "stationary_s", "stationary", "stationary", big),
        _op("validate", "setup_s", "setup", "validate-config", big),
        _op("solve_unif", "solve_unif_s", "transient", "solve", mc, "--method", "uniformization"),
        _op("solve_ilt", "solve_ilt_s", "transient", "solve", mc, "--method", "ilt"),
        _op("validate_2", "setup_s", "setup", "validate-config", mc),
        _op("mc", "mc_s", "transient", "solve", mc, "--method", "monte_carlo", "--seed", str(seed)),
        _op("validate_3", "setup_s", "setup", "validate-config", big),
    )
    checks = (
        OracleAgreement("solve_ilt", "solve_unif", ("state_probs.csv", "moments.csv")),
        MonteCarloAgreement("mc", "solve_unif", mc),
        StationaryResidual("stationary", big),
    )
    cycle = ("validate", "solve_unif", "solve_ilt", "validate_2", "mc", "validate_3", "solve_unif")
    return ops, checks, cycle


WORKLOADS = {"lattice": _lattice, "report_grid": _report_grid, "stationary_mc": _stationary_mc}


def build(name: str, seed: int) -> Workload:
    ops, checks, cycle = WORKLOADS[name](seed)
    return Workload(name, ops, checks, cycle)


def run_checks(workload: Workload, judged: str, out_dir, exit_ok) -> list[CheckResult]:
    """Run the checks that judge operation ``judged``, which exited 0.

    ``exit_ok(op)`` tells whether an oracle's latest run exited 0; a check
    whose oracle failed fails the operation it judges.
    """
    results = []
    for check in workload.checks:
        if check.reads()[0] != judged:
            continue
        missing = [op for op in check.reads()[1:] if not exit_ok(op)]
        if missing:
            results.append(CheckResult(judged, False, f"oracle operation {missing} failed"))
            continue
        try:
            results.extend(check.run(out_dir))
        except (OSError, ValueError) as exc:
            results.append(CheckResult(judged, False, f"{type(check).__name__}: {exc}"))
    return results
