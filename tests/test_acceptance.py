"""Acceptance suite: one criterion per test, each printing a PASS/FAIL line.

Two criteria check what the method and the documented model promise rather
than the published claims they started from; those claims are recorded in the
project README as not reproduced:

* the known-transform suite holds ``invert_at`` at K = 14 to 1e-8 of an
  independent order-14 Gaver-Stehfest evaluation (mpmath), and ``1/s``, on
  which the order-14 formula is exact, to 1e-8 of its inverse; the distance
  to the exact inverse on the other pairs is the formula's own truncation
  error (up to ~5e-5 here) and is reported, not asserted;
* the retrial-rate ordering checks that with theta = 0 (orbit never drains)
  the stationary E[I] is the closed form c (alpha/N) / (alpha/N + mu) of the
  c nodes left outside the full orbit, and that theta = 5 keeps more units
  busy both at t = 20 and at stationarity.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import retrialsi as rs
from retrialsi.cli import _write_table, scenario_from_mapping
from retrialsi.laplace import solve_resolvents
from retrialsi.reference import REFERENCE_FIRST_MOMENTS, REFERENCE_TOLERANCE

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORTS_DIR = REPO_ROOT / "reports"

TABLE_N = (10, 20, 40)
TABLE_C = (5, 10, 15, 20)
TABLE_TIMES = (0.5, 2.0, 5.0, 10.0, 20.0)
GATE_TIMES = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
SCALE_GATE_TIMES = (0.5, 2.0, 5.0)


def _line(ok, name, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} | {detail}")
    return ok


def _hom(N, c, theta=2.0, alpha=5.0, mu=0.4):
    cfg = rs.ModelConfig(N=N, c=c, alpha=alpha, mu=mu, theta=theta)
    gen = rs.build_generator(cfg, rs.rate_function(cfg))
    return cfg, gen, rs.delta_vector(cfg.space, (0, 0))


def test_criterion_generator_validity():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    all_ok = True
    for N in TABLE_N:
        graph = rs.ring_with_hub(N)
        for c in TABLE_C:
            if c >= N:
                continue
            hom = rs.ModelConfig(N=N, c=c, alpha=5.0, mu=0.4, theta=2.0)
            het = rs.ModelConfig(N=N, c=c, alpha=5.0, mu=0.4, theta=2.0,
                                 mode="heterogeneous", tagged_node=2)
            for cfg, graph_arg in ((hom, None), (het, graph)):
                report = rs.validate_generator(
                    rs.build_generator(cfg, rs.rate_function(cfg, graph_arg)))
                all_ok &= report.ok and report.stencil_checked
                worst = max(worst, report.max_abs_row_sum)
                count += 1
    elapsed = time.perf_counter() - start
    ok = all_ok and worst <= 1e-12 and elapsed < 1.0
    _line(ok, "generator validity (N x c x mode matrix)",
          f"{count} generators, max |row sum| {worst:.2e}, {elapsed:.2f}s < 1s")
    assert ok


def test_criterion_resolvent_correctness():
    start = time.perf_counter()
    worst_entry = worst_mass = 0.0
    for N, c in [(2, 1), (10, 5), (20, 5), (20, 15)]:  # every lattice of size <= 100
        cfg, gen, p0 = _hom(N, c)
        shifts = (0.1, 1.0, 10.0)
        ((_, x),) = solve_resolvents(gen, shifts, p0.values)
        for s, pstar in zip(shifts, x.astype(float)):
            dense = np.linalg.solve((s * np.eye(gen.dim) - gen.toarray()).T, p0.values)
            worst_entry = max(worst_entry, float(np.abs(pstar - dense).max()))
            worst_mass = max(worst_mass, abs(s * pstar.sum() - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst_entry <= 1e-10 and worst_mass <= 1e-10 and elapsed < 5.0
    _line(ok, "resolvent level sweep vs dense LU",
          f"entry {worst_entry:.2e} <= 1e-10, mass {worst_mass:.2e} <= 1e-10, {elapsed:.2f}s < 5s")
    assert ok


def test_criterion_ilt_oracle_equivalence():
    start = time.perf_counter()
    worst_entry = worst_moment = 0.0
    for N, c in [(10, 5), (20, 5), (20, 10)]:  # {10, 20} x {5, 10} with c < N
        for theta in (0.0, 2.0):
            cfg, gen, p0 = _hom(N, c, theta)
            sol = rs.transient_via_ilt(gen, p0, GATE_TIMES)
            for t, vec in zip(sol.times, sol.vectors):
                oracle = rs.uniformize(gen, p0, float(t))
                worst_entry = max(worst_entry, float(np.abs(vec.values - oracle.values).max()))
                worst_moment = max(
                    worst_moment,
                    abs(rs.moment_recovering(vec) - rs.moment_recovering(oracle)),
                    abs(rs.moment_orbit(vec) - rs.moment_orbit(oracle)),
                )
    elapsed = time.perf_counter() - start
    ok = worst_entry <= 1e-4 and worst_moment <= 1e-4 and elapsed < 30.0
    _line(ok, "ILT vs uniformization hard gate",
          f"entry {worst_entry:.2e} <= 1e-4, moments {worst_moment:.2e} <= 1e-4, "
          f"{elapsed:.2f}s < 30s")
    assert ok


def test_ilt_oracle_equivalence_at_scale():
    # the same 1e-4 gate on the c = N/2 rungs N = 100 and N = 200 of the ladder
    start = time.perf_counter()
    worst_entry = worst_moment = 0.0
    for N in (100, 200):
        for theta in (0.0, 2.0):
            cfg, gen, p0 = _hom(N, N // 2, theta)
            ilt = rs.transient_via_ilt(gen, p0, SCALE_GATE_TIMES)
            oracle = rs.transient_grid(gen, p0, SCALE_GATE_TIMES)
            for vec, exact in zip(ilt.vectors, oracle.vectors):
                worst_entry = max(worst_entry, float(np.abs(vec.values - exact.values).max()))
                worst_moment = max(
                    worst_moment,
                    abs(rs.moment_recovering(vec) - rs.moment_recovering(exact)),
                    abs(rs.moment_orbit(vec) - rs.moment_orbit(exact)),
                )
    elapsed = time.perf_counter() - start
    ok = worst_entry <= 1e-4 and worst_moment <= 1e-4 and elapsed < 30.0
    _line(ok, "ILT vs uniformization gate at N = 100, 200",
          f"entry {worst_entry:.2e} <= 1e-4, moments {worst_moment:.2e} <= 1e-4, "
          f"{elapsed:.2f}s < 30s")
    assert ok


def test_criterion_known_transform_suite():
    # the order-14 formula's truncation error (4.8e-5 on 1/(s+1) at t=10)
    # dwarfs 1e-8, so the tolerance applies to the error the implementation
    # controls: the distance to an order-14 evaluation in raised precision
    mpmath = pytest.importorskip("mpmath")
    pairs = (
        ("1/s", lambda s: 1.0 / s, lambda t: 1.0),
        ("1/s^2", lambda s: 1.0 / s ** 2, lambda t: t),
        ("1/(s+1)", lambda s: 1.0 / (s + 1.0), lambda t: math.exp(-t)),
        ("1/(s(s+1))", lambda s: 1.0 / (s * (s + 1.0)), lambda t: 1.0 - math.exp(-t)),
    )
    times = (0.1, 1.0, 10.0)
    reference = {
        (name, t): float(mpmath.invertlaplace(transform, t, method="stehfest", degree=14))
        for name, transform, _ in pairs for t in times
    }
    start = time.perf_counter()
    weights = rs.stehfest_coefficients(14)
    computed = {(name, t): rs.invert_at(transform, t, weights)
                for name, transform, _ in pairs for t in times}
    elapsed = time.perf_counter() - start
    worst, worst_case = max((abs(computed[key] - reference[key]), key) for key in computed)
    step_err = max(abs(computed[("1/s", t)] - 1.0) for t in times)
    truncation = max(abs(reference[(name, t)] - exact(t))
                     for name, _, exact in pairs for t in times)
    ok = worst <= 1e-8 and step_err <= 1e-8 and elapsed < 1.0
    _line(ok, "known-transform suite at K=14, 1e-8 absolute",
          f"vs mpmath order-14 worst {worst:.2e} ({worst_case[0]} at t={worst_case[1]:g}), "
          f"1/s vs exact {step_err:.2e}, formula truncation error up to {truncation:.2e}, "
          f"{elapsed:.2f}s < 1s")
    assert ok


def test_criterion_stationary_cross_check():
    start = time.perf_counter()
    cfg, gen, p0 = _hom(10, 5)
    pi = rs.stationary_nullspace(gen)
    late = rs.uniformize(gen, p0, 200.0)
    residual = float(np.abs(gen.matrix.T @ pi.values).max())
    d_late = float(np.abs(pi.values - late.values).max())
    elapsed = time.perf_counter() - start
    ok = residual <= 1e-10 and d_late <= 1e-6 and elapsed < 5.0
    _line(ok, "stationary: nullspace vs long horizon",
          f"max |pi Q| {residual:.2e} <= 1e-10, t=200 {d_late:.2e} <= 1e-6, {elapsed:.2f}s < 5s")
    assert ok


def test_criterion_monte_carlo_consistency():
    start = time.perf_counter()
    replicas = 100_000
    cfg, gen, p0 = _hom(10, 5)
    mc = rs.monte_carlo_estimate(cfg, rs.rate_function(cfg), [2.0, 5.0, 10.0],
                                 replicas, seed=20260810)
    all_ok = True
    details = []
    for t, vec in zip(mc.solution.times, mc.solution.vectors):
        oracle = rs.uniformize(gen, p0, float(t))
        for label, moment in (("E_I", rs.moment_recovering), ("E_R", rs.moment_orbit)):
            sigma = math.sqrt((moment(oracle, 2) - moment(oracle) ** 2) / replicas)
            diff = abs(moment(vec) - moment(oracle))
            all_ok &= diff <= 3.0 * sigma
            details.append(f"{label}(t={t:g}) {diff / sigma:.1f} sigma")
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 60.0
    _line(ok, "Monte Carlo within 3 standard errors",
          f"{replicas} replicas, " + ", ".join(details) + f", {elapsed:.2f}s < 60s")
    assert ok


def test_criterion_reference_grid_report():
    # soft gate: the grid is generated, compared cell by cell against the
    # published reference values, and the match report committed; matching is
    # tallied, not asserted (the source tabulation is not reproducible from
    # its stated parameters; see README)
    start = time.perf_counter()
    scenario = scenario_from_mapping({
        "model": {"N": 10, "c": 5, "alpha": 5.0, "mu": 0.4, "theta": 2.0},
        "solver": {"method": "uniformization"},
        "outputs": ["table_grid"],
        "table": {"N": list(TABLE_N), "c": list(TABLE_C), "times": list(TABLE_TIMES)},
    })
    paths = _write_table(scenario, REPORTS_DIR, meta=None)
    match_path = REPORTS_DIR / "reference_match.csv"
    content = match_path.read_text()
    tally_line = next(line for line in content.splitlines() if "matched" in line)
    anchors = [(5, 10.0, 10), (10, 5.0, 10), (15, 10.0, 20)]
    anchor_note = "; anchors " + ", ".join(
        f"(c={c},t={t:g},N={n})->ref{REFERENCE_FIRST_MOMENTS[(c, t, n)]}" for c, t, n in anchors
    )
    elapsed = time.perf_counter() - start
    ok = all(p.exists() for p in paths) and "matched" in content
    _line(ok, "reference first-moment grid + match report (soft gate)",
          tally_line.lstrip("# ") + anchor_note + f", {elapsed:.2f}s")
    assert ok


def test_criterion_qualitative_transient_shape():
    start = time.perf_counter()
    cfg, gen, p0 = _hom(10, 5)
    early = rs.transient_grid(gen, p0, np.round(np.arange(0.0, 1.01, 0.1), 10))
    p_idle = [rs.marginal_recovering(v)[0] for v in early.vectors]
    decreasing = all(a > b for a, b in zip(p_idle, p_idle[1:]))
    late = rs.marginal_recovering(rs.uniformize(gen, p0, 9.0))
    saturated = int(late.argmax()) == cfg.c
    elapsed = time.perf_counter() - start
    ok = decreasing and saturated
    _line(ok, "transient shape: idle probability decays, saturation dominates",
          f"p_0 strictly decreasing on [0,1]: {decreasing}, "
          f"argmax p_i(9) = {int(late.argmax())} (want {cfg.c}), {elapsed:.2f}s")
    assert ok


def test_criterion_qualitative_retrial_rate_ordering():
    # with theta = 0 the orbit only fills; once it holds N - c nodes, each of
    # the c others alternates between susceptible (rate alpha/N) and service
    # (rate mu), so the long-run E[I] is c (alpha/N) / (alpha/N + mu); with
    # retrials orbit nodes are recycled through service and more units stay
    # busy. t = 20 is transient at theta = 0 (E[R] ~ 1 there, ~8 at t = 2000)
    start = time.perf_counter()
    N, c, alpha, mu = 20, 8, 5.0, 1.0
    transient, stationary = {}, {}
    for theta in (0.0, 5.0):
        cfg, gen, p0 = _hom(N, c, theta=theta, alpha=alpha, mu=mu)
        transient[theta] = rs.moment_recovering(rs.uniformize(gen, p0, 20.0))
        stationary[theta] = rs.moment_recovering(rs.stationary_nullspace(gen))
    closed_form = c * (alpha / N) / (alpha / N + mu)
    elapsed = time.perf_counter() - start
    trap_err = abs(stationary[0.0] - closed_form)
    ok = (trap_err <= 1e-10 and transient[5.0] > transient[0.0]
          and stationary[5.0] > stationary[0.0])
    _line(ok, "retrial-rate ordering of E[I] (N=20, c=8, mu=1), theta=5 above theta=0",
          f"transient t=20: theta=0 {transient[0.0]:.4f} vs theta=5 {transient[5.0]:.4f}; "
          f"stationary: theta=0 {stationary[0.0]!r} (closed form {closed_form:g}, "
          f"off by {trap_err:.1e} <= 1e-10) vs theta=5 {stationary[5.0]:.4f}, {elapsed:.2f}s")
    assert ok


def test_criterion_qualitative_heterogeneous_transient():
    start = time.perf_counter()
    grid = np.round(np.arange(0.5, 40.01, 0.5), 10)

    def settle_time(cfg, graph=None):
        gen = rs.build_generator(cfg, rs.rate_function(cfg, graph))
        pi = rs.stationary_nullspace(gen)
        sol = rs.transient_grid(gen, rs.delta_vector(cfg.space, (0, 0)), grid)
        for t, vec in zip(sol.times, sol.vectors):
            if np.abs(vec.values - pi.values).sum() <= 0.01:
                return float(t)
        return float("inf")

    hom_cfg = rs.ModelConfig(N=10, c=5, alpha=5.0, mu=0.4, theta=2.0)
    het_cfg = rs.ModelConfig(N=10, c=5, alpha=5.0, mu=0.4, theta=2.0,
                             mode="heterogeneous", tagged_node=2)
    tau_hom = settle_time(hom_cfg)
    tau_het = settle_time(het_cfg, rs.ring_with_hub(10))
    elapsed = time.perf_counter() - start
    ok = tau_het > tau_hom
    _line(ok, "heterogeneous fixture settles slower than homogeneous",
          f"time to 1% of stationarity: ring_with_hub {tau_het:g} vs well-mixed {tau_hom:g}, "
          f"{elapsed:.2f}s")
    assert ok
