"""Config-driven scenario runner: wires the solvers together and emits CSV reports.

Subcommands: solve, table, sweep, timeseries, stationary, simulate,
validate-config.  Exit codes: 0 ok, 2 configuration error (a malformed
config value or an unwritable --out included), 3 numerical accuracy error.
All reports are UTF-8, comma-separated CSV with LF line endings; rounded
values use round-half-even.  Parsing and validating a well-mixed config loads
no numpy; each report imports the solver modules it runs where it runs them.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import itertools
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

import yaml

from . import __version__
from .errors import AccuracyError, ConfigError, DomainError, ModelError, NumericalError
from .model import (
    DEFAULT_CHAIN_ORDER,
    EPS_MAX,
    K_MAX,
    K_MIN,
    MIN_REPLICAS,
    ContactGraph,
    Mode,
    ModelConfig,
    checked_times,
    load_graph,
    rate_function,
    ring_with_hub,
)

if TYPE_CHECKING:
    from .transient import TransientSolution

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

METHODS = ("ilt", "uniformization", "monte_carlo")
OUTPUT_KINDS = ("state_probs", "marginals", "moments", "stationary", "table_grid", "theta_sweep")

DEFAULT_TABLE_N = (10, 20, 40)
DEFAULT_TABLE_C = (5, 10, 15, 20)
DEFAULT_TABLE_TIMES = (0.5, 2.0, 5.0, 10.0, 20.0)
DEFAULT_SWEEP_THETAS = (0.0, 1.0, 5.0)
MAX_RANGE_POINTS = 1_000_000  # most times a {start, stop, step} range may expand to
# most states (c + 1)(N - c + 1) of a model; 251,001 states (N = 1000, c = 500) peak at 172 MB RSS and
# take 36 s of inversion per time point
MAX_STATES = 300_000
# most times x states of one solved grid (a route keeps a vector per time, the inversion a longdouble
# accumulator besides); 3,844 times x 2,601 states peak at 281 MB RSS under the inversion, and the
# default 29-point grid at MAX_STATES holds 8.7e6
MAX_GRID_ENTRIES = 10_000_000
MAX_REPLICAS = 4_000_000  # most Monte Carlo replicas; 4e6 peak at 436 MB RSS


@dataclass(frozen=True)
class SolverSettings:
    method: str = "ilt"
    order: int = DEFAULT_CHAIN_ORDER  # config key "K"
    eps: float = 1e-10
    replicas: int = 100_000
    seed: int = 0


@dataclass(frozen=True)
class ScenarioConfig:
    model: ModelConfig
    solver: SolverSettings
    times: tuple[float, ...] | None
    outputs: tuple[str, ...]
    graph: ContactGraph | None = None
    graph_path: str | None = None
    table_n: tuple[int, ...] = DEFAULT_TABLE_N
    table_c: tuple[int, ...] = DEFAULT_TABLE_C
    table_times: tuple[float, ...] = DEFAULT_TABLE_TIMES
    sweep_thetas: tuple[float, ...] = DEFAULT_SWEEP_THETAS
    sweep_times: tuple[float, ...] | None = None
    raw: dict = field(default_factory=dict)

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def grid(self) -> tuple[float, ...]:
        """Configured time grid, defaulting to the mode's plotting range."""
        if self.times is not None:
            return self.times
        return _range_times(0.0, 9.0 if self.model.mode is Mode.HOMOGENEOUS else 14.0, 0.5)


@contextmanager
def _malformed(label):
    """Report a value that fails to convert or validate as a ConfigError naming ``label``."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _integer(value, label):
    """``value`` as an int; a bool or a non-integral number is an error, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{label}: expected an integer, got {value!r}")
    with _malformed(label):
        return int(value)


def _number(value, label):
    """``value`` as a float; a bool is an error, not taken as 0 or 1."""
    if isinstance(value, bool):
        raise ConfigError(f"{label}: expected a number, got {value!r}")
    with _malformed(label):
        return float(value)


def _section(mapping, key):
    section = mapping.get(key) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"{key}: must be a mapping")
    return section


def _range_times(start, stop, step) -> tuple[float, ...]:
    """``np.round(np.arange(start, stop + step / 2, step), 12)`` bit for bit, without numpy.

    arange fills ``start + i * ((start + step) - start)``, and rounding to 12
    places is ``rint(x * 1e12) / 1e12``, whose rint Python's half-even
    ``round`` matches on every finite x.
    """
    delta = (start + step) - start
    scaled = (1e12 * (start + i * delta) for i in range(math.ceil((stop + step / 2.0 - start) / step)))
    return tuple(round(x) / 1e12 if math.isfinite(x) else x / 1e12 for x in scaled)


def _parse_times(value, label):
    """A list of times or a {start, stop, step} range, checked by :func:`.model.checked_times`."""
    if value is None:
        return None
    if isinstance(value, dict):
        missing = {"start", "stop", "step"} - set(value)
        if missing:
            raise ConfigError(f"{label}: missing keys {sorted(missing)}")
        start, stop, step = (_number(value[k], f"{label}.{k}") for k in ("start", "stop", "step"))
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ConfigError(f"{label}: start, stop and step must be finite")
        if step <= 0:
            raise ConfigError(f"{label}.step: must be > 0, got {step}")
        if stop < start:
            raise ConfigError(f"{label}: stop {stop} precedes start {start}")
        if (stop - start) / step >= MAX_RANGE_POINTS:
            raise ConfigError(f"{label}: step {step} gives more than {MAX_RANGE_POINTS} times")
        with _malformed(label):
            value = _range_times(start, stop, step)
    elif not isinstance(value, (list, tuple)):
        raise ConfigError(f"{label}: expected a list or {{start, stop, step}}")
    else:
        value = [_number(t, label) for t in value]
    with _malformed(label):
        return checked_times(value)


def _check_states(label, n, c):
    states = (c + 1) * (n - c + 1)
    if states > MAX_STATES:
        raise ConfigError(f"{label}: N = {n}, c = {c} give {states} states, more than MAX_STATES = {MAX_STATES}")
    return states


def _check_grid(label, times, states):
    if times is not None and len(times) * states > MAX_GRID_ENTRIES:
        raise ConfigError(f"{label}: {len(times)} times x {states} states give {len(times) * states} "
                          f"values, more than MAX_GRID_ENTRIES = {MAX_GRID_ENTRIES}")


def load_scenario(path, method_override=None, seed_override=None) -> ScenarioConfig:
    """Parse and validate a YAML scenario document."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        mapping = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: invalid YAML: {exc}") from exc
    if not isinstance(mapping, dict):
        raise ConfigError("config: top level must be a mapping")
    return scenario_from_mapping(
        mapping, base_dir=path.parent,
        method_override=method_override, seed_override=seed_override,
    )


def scenario_from_mapping(mapping: dict, base_dir=".",
                          method_override=None, seed_override=None) -> ScenarioConfig:
    model_map = mapping.get("model")
    if not isinstance(model_map, dict):
        raise ConfigError("model: required mapping is missing")

    n_nodes = _integer(model_map.get("N", 0), "model.N")
    units = _integer(model_map.get("c", 0), "model.c")
    tagged_node = (
        _integer(model_map["tagged_node"], "model.tagged_node") if "tagged_node" in model_map
        else (2 if str(model_map.get("mode", "")).lower() == "heterogeneous" else None)
    )
    initial_state = model_map.get("initial_state", (0, 0))
    if not isinstance(initial_state, (list, tuple)) or len(initial_state) != 2:
        raise ConfigError(f"model.initial_state: expected a list of two integers, got {initial_state!r}")
    initial_state = tuple(_integer(v, "model.initial_state") for v in initial_state)
    with _malformed("model"):
        model = ModelConfig(
            N=n_nodes,
            c=units,
            alpha=_number(model_map.get("alpha", 0.0), "model.alpha"),
            mu=_number(model_map.get("mu", 0.0), "model.mu"),
            theta=_number(model_map.get("theta", 0.0), "model.theta"),
            mode=str(model_map.get("mode", "homogeneous")).lower(),
            tagged_node=tagged_node,
            closure=str(model_map.get("closure", "mean_field")).lower(),
            initial_state=initial_state,
        )

    states = _check_states("model", model.N, model.c)
    if model.tagged_node is not None and not 0 <= model.tagged_node < model.N:
        raise ConfigError(f"model.tagged_node: must lie in 0..{model.N - 1}, got {model.tagged_node}")

    graph = None
    graph_path = mapping.get("graph_path")
    if model.mode is Mode.HETEROGENEOUS:
        if not graph_path:
            raise ConfigError("graph_path: required when mode is heterogeneous")
        with _malformed("graph_path"):
            resolved = Path(base_dir) / graph_path
        try:
            graph = load_graph(resolved.read_text(encoding="utf-8"), nodes=model.N)
        except OSError as exc:
            raise ConfigError(f"graph_path: cannot read {resolved}: {exc}") from exc

    solver_map = _section(mapping, "solver")
    method = str(method_override or solver_map.get("method", "ilt")).lower()
    if method not in METHODS:
        raise ConfigError(f"solver.method: must be one of {METHODS}, got {method!r}")
    solver = SolverSettings(
        method=method,
        order=_integer(solver_map.get("K", DEFAULT_CHAIN_ORDER), "solver.K"),
        eps=_number(solver_map.get("eps", 1e-10), "solver.eps"),
        replicas=_integer(solver_map.get("replicas", 100_000), "solver.replicas"),
        seed=_integer(seed_override if seed_override is not None else solver_map.get("seed", 0),
                      "solver.seed"),
    )
    # checked whatever the method, since --method can switch it at run time
    if solver.order % 2 or not K_MIN <= solver.order <= K_MAX:
        raise ConfigError(f"solver.K: must be even and in [{K_MIN}, {K_MAX}], got {solver.order}")
    if not 0 < solver.eps <= EPS_MAX:
        raise ConfigError(f"solver.eps: must lie in (0, {EPS_MAX:g}], got {solver.eps}")
    if not MIN_REPLICAS <= solver.replicas <= MAX_REPLICAS:
        raise ConfigError(f"solver.replicas: must lie in [{MIN_REPLICAS}, {MAX_REPLICAS}], "
                          f"got {solver.replicas}")
    if solver.seed < 0:
        raise ConfigError(f"solver.seed: must be >= 0, got {solver.seed}")

    times = _parse_times(mapping.get("times"), "times")

    outputs_raw = mapping.get("outputs", ["moments"])
    if not isinstance(outputs_raw, (list, tuple)) or len(outputs_raw) == 0:
        raise ConfigError("outputs: at least one output kind is required")
    outputs = tuple(str(o).lower() for o in outputs_raw)
    unknown = [o for o in outputs if o not in OUTPUT_KINDS]
    if unknown:
        raise ConfigError(f"outputs: unknown kinds {unknown}; valid: {OUTPUT_KINDS}")

    table_map = _section(mapping, "table")
    sweep_map = _section(mapping, "sweep")
    with _malformed("table"):
        table_n = tuple(_integer(n, "table.N") for n in table_map.get("N", DEFAULT_TABLE_N))
        table_c = tuple(_integer(c, "table.c") for c in table_map.get("c", DEFAULT_TABLE_C))
    pairs = [(n, c) for n, c in itertools.product(table_n, table_c) if 1 <= c < n]  # the others are skipped
    table_states = [_check_states("table", n, c) for n, c in pairs]
    if model.mode is Mode.HETEROGENEOUS:  # each N runs on the fixture ring_with_hub(N), see _table_cells
        unusable = [n for n, _ in pairs if n < 4 or n <= model.tagged_node]
        if unusable:
            raise ConfigError(f"table.N: ring_with_hub(N) needs N >= 4 and N > tagged_node = "
                              f"{model.tagged_node}, got N = {unusable[0]}")
    table_times = _parse_times(table_map.get("times", DEFAULT_TABLE_TIMES), "table.times")
    _check_grid("table.times", table_times, max(table_states, default=0))
    with _malformed("sweep.thetas"):
        sweep_thetas = tuple(_number(t, "sweep.thetas")
                             for t in sweep_map.get("thetas", DEFAULT_SWEEP_THETAS))
    if not all(0 <= th < math.inf for th in sweep_thetas):  # NaN fails too
        raise ConfigError(f"sweep.thetas: must be finite and >= 0, got {list(sweep_thetas)}")

    raw = {k: v for k, v in mapping.items()}
    raw["solver"] = {**solver_map, "method": method, "seed": solver.seed}

    scenario = ScenarioConfig(
        model=model,
        solver=solver,
        times=times,
        outputs=outputs,
        graph=graph,
        graph_path=graph_path,
        table_n=table_n,
        table_c=table_c,
        table_times=table_times,
        sweep_thetas=sweep_thetas,
        sweep_times=_parse_times(sweep_map.get("times"), "sweep.times"),
        raw=raw,
    )
    _check_grid("times", scenario.grid(), states)  # the sweep's grid when it has none of its own
    _check_grid("sweep.times", scenario.sweep_times, states)
    return scenario


# --- solving ---------------------------------------------------------------


def _solve_grid(model: ModelConfig, graph, solver: SolverSettings, times) -> TransientSolution:
    """Distribution on a checked time grid under the configured method.

    The inversion and uniformization solve only the box of states the chain
    reaches by the last time except with probability ``tail = BOX_TAIL * eps``
    (:func:`.transient.reachable_box`), and embed it back.  Uniformization
    truncates each interval on the box at ``eps - tail``, so no time point's
    total variation bound exceeds the whole lattice's.  When the box is the
    whole lattice they solve it as it is, and spend no tail.  Monte Carlo, whose work is
    per event, samples the whole lattice.  The metadata records the states
    solved (``box_states``) and the tail spent (``box_tail``).  Only the
    inversion loads the inversion and Laplace modules.
    """
    from .generator import build_generator
    from .transient import BOX_TAIL, delta_vector, embedded, monte_carlo_estimate, reachable_box, transient_grid

    arrival = rate_function(model, graph)
    solved, tail = model, 0.0
    if solver.method == "monte_carlo":  # samples from the transition table, not from Q
        sol = monte_carlo_estimate(model, arrival, times, solver.replicas, solver.seed)
    else:
        box = reachable_box(model, arrival, max(times), BOX_TAIL * solver.eps)
        if box is not None:
            (solved, arrival), tail = box, BOX_TAIL * solver.eps
        gen = build_generator(solved, arrival)
        p0 = delta_vector(solved.space, solved.initial_state)
        if solver.method == "uniformization":
            sol = transient_grid(gen, p0, times, eps=solver.eps - tail)
        else:
            from .inversion import transient_via_ilt

            sol = transient_via_ilt(gen, p0, times, order=solver.order)
    if solved is not model:
        sol = embedded(sol, model.space)
    sol.metadata.update(box_states=solved.space.size, box_tail=tail)
    return sol


# --- report writing ---------------------------------------------------------


def _metadata(scenario: ScenarioConfig, command: str) -> dict:
    s = scenario.solver
    meta = {
        "generator": "retrialsi",
        "version": __version__,
        "command": command,
        "config_hash": scenario.config_hash,
        "method": s.method,
        "K": s.order,
        "eps": s.eps,
        "replicas": s.replicas,
        "seed": s.seed,
    }
    if scenario.model.mode is Mode.HETEROGENEOUS:
        meta["mode"] = "heterogeneous"
        meta["graph"] = scenario.graph_path or "ring_with_hub"
        meta["tagged_node"] = scenario.model.tagged_node
        meta["closure"] = scenario.model.closure.value
    meta["created"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return meta


def _write_csv(path: Path, columns, rows, meta: dict | None, comments=()):
    """Write one report: its ``# key: value`` header and ``# comment`` lines, then the CSV table."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as f:
            for key, value in (meta or {}).items():
                f.write(f"# {key}: {value}\n")
            for line in comments:
                f.write(f"# {line}\n")
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(rows)
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {path}: {exc}") from exc
    return path


def _fmt(x: float) -> str:
    return repr(float(x))


def _state_columns(space):
    """The i and j of every state, in index order, as two lists of ints."""
    import numpy as np

    return [column.tolist() for column in np.divmod(np.arange(space.size), space.width)]


def _write_state_probs(scenario, out_dir, meta, kind, sol):
    # one row per (t, state), built without a Python call per state
    i, j = _state_columns(scenario.model.space)
    rows = itertools.chain.from_iterable(
        zip(itertools.repeat(repr(t)), i, j, map(repr, vec.values.tolist()))
        for t, vec in zip(sol.times.tolist(), sol.vectors)
    )
    return [_write_csv(out_dir / f"{kind}.csv", ("t", "i", "j", "probability"), rows, meta)]


def _write_marginals(scenario, out_dir, meta, kind, sol):
    from .measures import marginal_orbit, marginal_recovering

    paths = []
    for marginal, name, level in ((marginal_recovering, "recovering", "i"), (marginal_orbit, "orbit", "j")):
        rows = itertools.chain.from_iterable(
            zip(itertools.repeat(repr(t)), itertools.count(), map(repr, marginal(vec).tolist()))
            for t, vec in zip(sol.times.tolist(), sol.vectors)
        )
        paths.append(_write_csv(out_dir / f"{kind}_{name}.csv", ("t", level, "probability"), rows, meta))
    return paths


def _first_moments(sol: TransientSolution):
    """(t, E[I], E[R]) at each time of ``sol``."""
    from .measures import moment_orbit, moment_recovering

    return [(t, moment_recovering(vec), moment_orbit(vec)) for t, vec in zip(sol.times.tolist(), sol.vectors)]


def _write_moments(scenario, out_dir, meta, kind, sol):
    rows = [tuple(map(_fmt, moments)) for moments in _first_moments(sol)]
    return [_write_csv(out_dir / f"{kind}.csv", ("t", "E_I", "E_R"), rows, meta)]


def _write_stationary(scenario, out_dir, meta, kind, sol):
    import numpy as np

    from .generator import build_generator, transposed_product
    from .laplace import stationary_nullspace

    gen = build_generator(scenario.model, rate_function(scenario.model, scenario.graph))
    pi = stationary_nullspace(gen)
    if meta is not None:  # max |pi Q| along Q's diagonals, which loads no scipy
        residual = transposed_product(gen.csr.diagonals(), pi.values, np.zeros(gen.dim))()
        meta = {**meta, "stationary_residual": float(np.abs(residual).max())}
    rows = zip(*_state_columns(scenario.model.space), map(repr, pi.values.tolist()))
    return [_write_csv(out_dir / f"{kind}.csv", ("i", "j", "probability"), rows, meta)]


def _table_cells(scenario: ScenarioConfig):
    """Compute (E_I, E_R) for every valid (N, c) pair on the table time grid.

    Heterogeneous grids span several population sizes, so they run on the
    documented fixture family ring_with_hub(N) rather than the single
    configured graph.
    """
    cells = {}
    heterogeneous = scenario.model.mode is Mode.HETEROGENEOUS
    for n in scenario.table_n:
        valid_c = [c for c in scenario.table_c if 1 <= c < n]  # MAX_STATES bounds these pairs
        graph = ring_with_hub(n) if heterogeneous and valid_c else None
        for c in valid_c:
            model = dataclasses.replace(scenario.model, N=n, c=c, initial_state=(0, 0))
            for t, e_i, e_r in _first_moments(_solve_grid(model, graph, scenario.solver, scenario.table_times)):
                cells[(c, t, n)] = (e_i, e_r)
    return cells


def _write_table(scenario, out_dir, meta, kind, sol):
    if scenario.model.mode is Mode.HETEROGENEOUS and meta is not None:
        meta = {**meta, "heterogeneous_fixture": "ring_with_hub(N)"}
    cells = _table_cells(scenario)
    columns = ["c", "t"] + [f"N={n}" for n in scenario.table_n]
    rounded_rows, tidy_rows = [], []
    for c in scenario.table_c:
        for t in scenario.table_times:
            row = [c, _fmt(t)]
            for n in scenario.table_n:
                cell = cells.get((c, float(t), n))
                row.append("" if cell is None else f"({cell[0]:.2f}, {cell[1]:.2f})")
                if cell is not None:
                    tidy_rows.append((n, c, _fmt(t), _fmt(cell[0]), _fmt(cell[1])))
            rounded_rows.append(row)
    return [
        _write_csv(out_dir / f"{kind}.csv", columns, rounded_rows, meta),
        _write_csv(out_dir / f"{kind}_unrounded.csv", ("N", "c", "t", "E_I", "E_R"), tidy_rows, meta),
        _write_match_report(scenario, cells, out_dir, meta),
    ]


def _write_match_report(scenario, cells, out_dir, meta):
    """Compare the computed grid against the published reference values."""
    from .reference import REFERENCE_FIRST_MOMENTS, REFERENCE_TOLERANCE

    rows = []
    compared = matched = 0
    for (c, t, n), ref in sorted(REFERENCE_FIRST_MOMENTS.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])):
        ours = cells.get((c, t, n))
        if ours is None:
            rows.append((c, _fmt(t), n, _fmt(ref[0]), _fmt(ref[1]), "", "", "not computed (requires c < N)"))
            continue
        compared += 1
        ok = abs(ours[0] - ref[0]) <= REFERENCE_TOLERANCE and abs(ours[1] - ref[1]) <= REFERENCE_TOLERANCE
        matched += ok
        rows.append((c, _fmt(t), n, _fmt(ref[0]), _fmt(ref[1]),
                     f"{ours[0]:.2f}", f"{ours[1]:.2f}", "match" if ok else "mismatch"))
    comments = (
        "reference values assume the parameter set alpha=5, mu=0.4, theta=2 (not restated by the source)",
        f"matched {matched} of {compared} compared cells at tolerance {REFERENCE_TOLERANCE}",
    )
    return _write_csv(out_dir / "reference_match.csv",
                      ("c", "t", "N", "ref_E_I", "ref_E_R", "E_I", "E_R", "status"),
                      rows, meta, comments=comments)


def _write_sweep(scenario, out_dir, meta, kind, sol):
    thetas = list(dict.fromkeys(scenario.sweep_thetas))
    dupes = [th for k, th in enumerate(scenario.sweep_thetas) if th in scenario.sweep_thetas[:k]]
    if dupes:
        print(f"warning: duplicate theta values deduplicated: {dupes}", file=sys.stderr)
    times = scenario.sweep_times if scenario.sweep_times is not None else scenario.grid()

    paths = []
    modes = [(Mode.HOMOGENEOUS, None, "sweep_homogeneous.csv")]
    if scenario.graph is not None and scenario.model.tagged_node is not None:
        modes.append((Mode.HETEROGENEOUS, scenario.graph, "sweep_heterogeneous.csv"))
    for mode, graph, name in modes:
        rows = []
        for th in thetas:
            model = dataclasses.replace(scenario.model, theta=th, mode=mode)
            sol = _solve_grid(model, graph, scenario.solver, times)
            rows += [(_fmt(th), *map(_fmt, moments)) for moments in _first_moments(sol)]
        paths.append(_write_csv(out_dir / name, ("theta", "t", "E_I", "E_R"), rows, meta))
    return paths


def _write_trajectory(scenario, out_dir, meta, kind, sol):
    from .transient import simulate_gillespie

    horizon = max(scenario.grid())
    if horizon <= 0:
        raise ConfigError("times: simulation horizon must be positive")
    trajectory = simulate_gillespie(
        scenario.model, rate_function(scenario.model, scenario.graph),
        horizon, scenario.solver.seed,
    )
    if meta is not None:
        meta = {**meta, "rng": trajectory.rng}
    rows = zip(map(repr, trajectory.times.tolist()), *trajectory.states.T.tolist())
    return [_write_csv(out_dir / f"{kind}.csv", ("time", "i", "j"), rows, meta)]


#: Each report kind's ``writer(scenario, out_dir, meta, kind, sol)``, which names its files after ``kind``.
_WRITERS = {
    "state_probs": _write_state_probs,
    "marginals": _write_marginals,
    "moments": _write_moments,
    "timeseries_marginals": _write_marginals,
    "timeseries_moments": _write_moments,
    "stationary": _write_stationary,
    "table_grid": _write_table,
    "theta_sweep": _write_sweep,
    "trajectory": _write_trajectory,
}

#: Reports written from the transient solution on the scenario's time grid.
_SOLUTION_REPORTS = {"state_probs", "marginals", "moments", "timeseries_marginals",
                     "timeseries_moments"}


def run_scenario(scenario: ScenarioConfig, out_dir, no_metadata=False, command="solve"):
    """Produce every configured report; returns the list of files written."""
    out_dir = Path(out_dir)
    meta = None if no_metadata else _metadata(scenario, command)
    sol = None
    if _SOLUTION_REPORTS & set(scenario.outputs):
        sol = _solve_grid(scenario.model, scenario.graph, scenario.solver, scenario.grid())
    return [path for kind in scenario.outputs for path in _WRITERS[kind](scenario, out_dir, meta, kind, sol)]


# --- command handlers --------------------------------------------------------


def _scenario_from_args(args) -> ScenarioConfig:
    return load_scenario(args.config, method_override=args.method, seed_override=args.seed)


def _cmd_report(args):
    """Body of every report subcommand: write its reports, then list the files.

    ``solve`` writes the configured outputs; every other subcommand writes its
    own reports in their place.
    """
    scenario = _scenario_from_args(args)
    reports = (f"timeseries_{args.kind}",) if args.command == "timeseries" else args.reports
    if reports:
        scenario = dataclasses.replace(scenario, outputs=reports)
    for path in run_scenario(scenario, args.out, args.no_metadata, command=args.command):
        print(path)
    return EXIT_OK


def _cmd_validate(args):
    scenario = _scenario_from_args(args)
    print(f"ok: config hash {scenario.config_hash}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retrialsi",
        description="Transient analysis of the retrial-SI chain from a scenario config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, reports=None, func=_cmd_report):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario YAML document")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--method", choices=METHODS, default=None, help="override solver method")
        p.add_argument("--seed", type=int, default=None, help="override solver seed")
        p.add_argument("--no-metadata", action="store_true",
                       help="omit metadata headers for byte-stable output")
        p.set_defaults(func=func, reports=reports)
        return p

    add("solve", "run every configured output kind")
    add("table", "first-moment (N, c, t) grid plus reference match report", ("table_grid",))
    add("sweep", "retrial-rate sweep of the first moments", ("theta_sweep",))
    ts = add("timeseries", "tidy time series for plotting")
    ts.add_argument("--kind", choices=("marginals", "moments"), default="moments")
    add("stationary", "stationary distribution (nullspace method)", ("stationary",))
    add("simulate", "dump one stochastic trajectory", ("trajectory",))
    add("validate-config", "parse and validate the config, then exit", func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError, ModelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AccuracyError, NumericalError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
