import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import retrialsi as rs
from retrialsi import cli, laplace, transient
from retrialsi.cli import main, scenario_from_mapping
from retrialsi.errors import ConfigError, ModelError, NumericalError

REPO = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted((REPO / "demos" / "configs").glob("*.yaml")) + sorted(
    (REPO / "bench" / "configs").glob("*.yaml"))

WELLMIXED_YAML = """\
model:
  N: 10
  c: 5
  alpha: 5.0
  mu: 0.4
  theta: 2.0
solver:
  method: {method}
  K: 20
  seed: 42
times: [0.5, 2.0, 5.0]
outputs: [{outputs}]
"""


MODEL_YAML = "model: {N: 10, c: 5, alpha: 5, mu: 0.4, theta: 2}\n"


def write_config(tmp_path, name="scenario.yaml", method="uniformization",
                 outputs="moments", extra="", times="[0.5, 2.0, 5.0]"):
    path = tmp_path / name
    text = WELLMIXED_YAML.format(method=method, outputs=outputs)
    path.write_text(text.replace("times: [0.5, 2.0, 5.0]", f"times: {times}") + extra)
    return str(path)


def read_report(path):
    """(comment lines, header, data rows) of one CSV report."""
    comments, rows = [], []
    with open(path, newline="") as f:
        for line in f:
            if line.startswith("#"):
                comments.append(line.strip())
            else:
                rows.append(line)
    parsed = list(csv.reader(rows))
    return comments, parsed[0], parsed[1:]


class TestSolve:
    def test_moments_files_and_shape(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        comments, header, rows = read_report(tmp_path / "out" / "moments.csv")
        assert header == ["t", "E_I", "E_R"]
        assert len(rows) == 3
        assert any("config_hash" in c for c in comments)
        assert any("method: uniformization" in c for c in comments)

    def test_marginals_two_files(self, tmp_path):
        cfg = write_config(tmp_path, outputs="marginals")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        _, header_rec, rows_rec = read_report(tmp_path / "out" / "marginals_recovering.csv")
        _, header_orb, rows_orb = read_report(tmp_path / "out" / "marginals_orbit.csv")
        assert header_rec == ["t", "i", "probability"]
        assert header_orb == ["t", "j", "probability"]
        assert len(rows_rec) == 3 * 6
        assert len(rows_orb) == 3 * 6

    def test_state_probs_sum_to_one(self, tmp_path):
        cfg = write_config(tmp_path, outputs="state_probs")
        main(["solve", "--config", cfg, "--out", str(tmp_path / "out"), "--no-metadata"])
        _, _, rows = read_report(tmp_path / "out" / "state_probs.csv")
        by_t = {}
        for t, i, j, p in rows:
            by_t.setdefault(t, 0.0)
            by_t[t] += float(p)
        for total in by_t.values():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_bytes_without_metadata(self, tmp_path):
        cfg = write_config(tmp_path, method="monte_carlo",
                           extra="    \n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["solve", "--config", cfg, "--out", str(out1), "--no-metadata"])
        main(["solve", "--config", cfg, "--out", str(out2), "--no-metadata"])
        assert (out1 / "moments.csv").read_bytes() == (out2 / "moments.csv").read_bytes()

    @staticmethod
    def assert_methods_agree(tmp_path, times):
        rows = {}
        for method in ("ilt", "uniformization"):
            cfg = write_config(tmp_path, f"{method}.yaml", method=method, times=times)
            out = tmp_path / method
            assert main(["solve", "--config", cfg, "--out", str(out), "--no-metadata"]) == 0
            _, _, rows[method] = read_report(out / "moments.csv")
        assert [a[0] for a in rows["ilt"]] == [b[0] for b in rows["uniformization"]]
        for a, b in zip(rows["ilt"], rows["uniformization"]):
            assert float(a[1]) == pytest.approx(float(b[1]), abs=1e-4)
            assert float(a[2]) == pytest.approx(float(b[2]), abs=1e-4)

    def test_methods_agree(self, tmp_path):
        self.assert_methods_agree(tmp_path, "[0.5, 2.0, 5.0]")

    def test_methods_agree_at_time_zero_only(self, tmp_path):
        # t = 0 is the initial distribution under every route
        self.assert_methods_agree(tmp_path, "[0.0]")

    @pytest.mark.parametrize("method", cli.METHODS)
    @pytest.mark.parametrize("times", [[0.0], [0.0, 0.5]], ids=["t0_only", "t0_and_later"])
    def test_solution_records_its_route(self, method, times):
        # metadata["method"] is the only record of the route, also for a grid that runs no inversion
        model = rs.ModelConfig(N=10, c=5, alpha=5.0, mu=0.4, theta=2.0)
        solver = cli.SolverSettings(method=method, replicas=1000)
        sol = cli._solve_grid(model, None, solver, np.array(times))
        assert sol.metadata["method"] == method

    @pytest.mark.parametrize("times", [[0.0], [0.0, 0.5, 1.0], [0.5, 1.0]])
    def test_ilt_metadata_has_one_entry_per_time(self, times):
        # a t = 0 row runs no inversion: its band excursion and raw mass deviation are 0.0
        model = rs.ModelConfig(N=10, c=5, alpha=5.0, mu=0.4, theta=2.0)
        sol = cli._solve_grid(model, None, cli.SolverSettings(method="ilt"), np.array(times))
        positive = [t for t in times if t > 0]
        inverted = {"band_excursion": [], "raw_sum_deviation": []}
        if positive:
            gen = rs.build_generator(model, rs.rate_function(model))
            inverted = rs.transient_via_ilt(gen, rs.delta_vector(model.space, (0, 0)), positive).metadata
        for key in ("band_excursion", "raw_sum_deviation"):
            assert sol.metadata[key] == [0.0] * (len(times) - len(positive)) + inverted[key]

    @pytest.mark.parametrize("method", ["ilt", "uniformization"])
    @pytest.mark.parametrize("config,states", [
        ("bench/configs/lattice.yaml", 142),  # m = 70 arrivals by t = 5: 71 unit counts, no orbit, one spare level
        ("demos/configs/wellmixed.yaml", 36),  # the box is the whole N = 10, c = 5 lattice
    ])
    def test_metadata_records_the_box(self, method, config, states):
        scenario = cli.load_scenario(REPO / config, method_override=method)
        sol = cli._solve_grid(scenario.model, scenario.graph, scenario.solver, scenario.grid())
        projected = states < scenario.model.space.size
        assert sol.metadata["box_states"] == states
        assert sol.metadata["box_tail"] == (transient.BOX_TAIL * scenario.solver.eps if projected else 0.0)
        assert all(v.space == scenario.model.space for v in sol.vectors)
        if method == "uniformization":  # truncated within what the box leaves of eps
            assert sol.metadata["eps"] == scenario.solver.eps - sol.metadata["box_tail"]

    def test_monte_carlo_samples_the_whole_lattice(self):
        scenario = cli.load_scenario(REPO / "bench" / "configs" / "lattice.yaml", method_override="monte_carlo")
        solver = cli.SolverSettings(method="monte_carlo", replicas=1000)
        sol = cli._solve_grid(scenario.model, scenario.graph, solver, scenario.grid())
        assert (sol.metadata["box_states"], sol.metadata["box_tail"]) == (10_201, 0.0)

    def test_method_override_flag(self, tmp_path):
        cfg = write_config(tmp_path, method="ilt")
        out = tmp_path / "out"
        main(["solve", "--config", cfg, "--out", str(out), "--method", "uniformization"])
        comments, _, _ = read_report(out / "moments.csv")
        assert any("method: uniformization" in c for c in comments)


class TestExitCodes:
    def test_missing_config(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.yaml"), "--out", "o"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_heterogeneous_requires_graph(self, tmp_path, capsys):
        path = tmp_path / "het.yaml"
        path.write_text(
            "model: {N: 10, c: 5, alpha: 5, mu: 0.4, theta: 2, mode: heterogeneous}\n"
            "outputs: [moments]\n"
        )
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "graph_path" in capsys.readouterr().err

    def test_tagged_node_outside_the_population_fails_validation(self, tmp_path, capsys):
        path = tmp_path / "het.yaml"
        path.write_text(
            "model: {N: 10, c: 5, alpha: 5, mu: 0.4, theta: 2, mode: heterogeneous, tagged_node: 50}\n"
            f"graph_path: {REPO / 'graphs' / 'ring_hub_10.txt'}\n"
            "outputs: [moments]\n"
        )
        for command in ("validate-config", "solve"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2, command
            assert "model.tagged_node" in capsys.readouterr().err

    @pytest.mark.parametrize("tagged_node, table", [(5, "{N: [4], c: [1]}"), (2, "{N: [3, 10], c: [1, 5]}")],
                             ids=["tagged_node_outside_fixture", "fixture_below_four_nodes"])
    def test_heterogeneous_table_fixture_fails_validation(self, tmp_path, capsys, tagged_node, table):
        # the table solves each N on ring_with_hub(N), which needs N >= 4 and holds nodes 0..N-1
        path = tmp_path / "het.yaml"
        path.write_text(
            f"model: {{N: 10, c: 5, alpha: 5, mu: 0.4, theta: 2, mode: heterogeneous, tagged_node: {tagged_node}}}\n"
            f"graph_path: {REPO / 'graphs' / 'ring_hub_10.txt'}\n"
            f"table: {table}\noutputs: [moments]\n"
        )
        for command in ("validate-config", "table"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2, command
            assert capsys.readouterr().err.startswith("config error: table.N: ring_with_hub(N) needs N >= 4")

    def test_empty_times(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "model: {N: 10, c: 5, alpha: 5, mu: 0.4, theta: 2}\n"
            "times: []\noutputs: [moments]\n"
        )
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_unsorted_times(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "model: {N: 10, c: 5, alpha: 5, mu: 0.4, theta: 2}\n"
            "times: [2.0, 1.0]\noutputs: [moments]\n"
        )
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_unknown_output_kind(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "model: {N: 10, c: 5, alpha: 5, mu: 0.4, theta: 2}\n"
            "times: [1.0]\noutputs: [plots]\n"
        )
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_invalid_model_field(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "model: {N: 10, c: 12, alpha: 5, mu: 0.4, theta: 2}\n"
            "times: [1.0]\noutputs: [moments]\n"
        )
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "model:" in capsys.readouterr().err

    def test_accuracy_failure_is_exit_three(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "model: {N: 10, c: 5, alpha: 5, mu: 0.4, theta: 2}\n"
            "solver: {method: ilt, K: 4}\n"
            "times: [0.5]\noutputs: [moments]\n"
        )
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("body, out_is_file", [
        ("model: {N: [10], c: 5, alpha: 5, mu: 0.4, theta: 2}\n", False),
        ("model: {N: 10, c: 5, alpha: 5, mu: 0.4, theta: 2, initial_state: 3}\n", False),
        (MODEL_YAML + "table: {N: 10}\n", False),
        (MODEL_YAML + "sweep: {thetas: 2.0}\n", False),
        (MODEL_YAML + "sweep: {thetas: [-1.0, 2.0]}\n", False),
        (MODEL_YAML + "times: [1.0, x]\n", False),
        (MODEL_YAML + "times: {start: 0, stop: 1, step: a}\n", False),
        (MODEL_YAML, True),
    ], ids=["list_N", "scalar_initial_state", "scalar_table_N", "scalar_thetas",
            "negative_theta", "string_time", "string_step", "out_is_file"])
    def test_malformed_input_is_exit_two(self, tmp_path, capsys, body, out_is_file):
        path = tmp_path / "cfg.yaml"
        path.write_text(body + "solver: {method: uniformization}\noutputs: [moments]\n")
        out = tmp_path / "out"
        if out_is_file:
            out.write_text("")
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("K", 7), ("eps", 0.1), ("replicas", 10)])
    def test_unusable_solver_value_fails_validation(self, tmp_path, capsys, key, value):
        # rejected whatever the method: --method can switch it at run time
        path = tmp_path / "cfg.yaml"
        path.write_text(MODEL_YAML + f"solver: {{method: ilt, {key}: {value}}}\n"
                        "times: [1.0]\noutputs: [moments]\n")
        assert main(["validate-config", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: solver.{key}") and "Traceback" not in err

    @pytest.mark.parametrize("body, flags, key", [
        ("model: {N: 10, c: 5, alpha: .inf, mu: 0.4, theta: 2}\n", (), "alpha"),
        ("model: {N: 10, c: 5, alpha: 5, mu: .nan, theta: 2}\n", (), "mu"),
        ("model: {N: 10, c: 5, alpha: 5, mu: 0.4, theta: .inf}\n", (), "theta"),
        (MODEL_YAML + "solver: {seed: -1}\n", (), "solver.seed"),
        (MODEL_YAML, ("--seed", "-5"), "solver.seed"),
        ("model: {N: 6.5, c: 3, alpha: 5, mu: 0.4, theta: 2}\n", (), "model.N"),
        ("model: {N: true, c: 1, alpha: 5, mu: 0.4, theta: 2}\n", (), "model.N"),
        (MODEL_YAML + "solver: {replicas: 1000.5}\n", (), "solver.replicas"),
        (MODEL_YAML + "table: {c: [5, 2.5]}\n", (), "table.c"),
        (MODEL_YAML + "times: {start: 0, stop: 1, step: 1.0e-300}\n", (), "times"),
        ("model: {N: 10, c: 5, alpha: true, mu: 0.4, theta: 2}\n", (), "model.alpha"),
        ("model: {N: 10, c: 5, alpha: 5, mu: 0.4, theta: false}\n", (), "model.theta"),
        (MODEL_YAML + "times: [true, 2.0]\n", (), "times"),
        (MODEL_YAML + "times: {start: false, stop: 1, step: 0.5}\n", (), "times.start"),
        (MODEL_YAML + "sweep: {thetas: [true, 0]}\n", (), "sweep.thetas"),
        (MODEL_YAML + "sweep: {thetas: [.nan]}\n", (), "sweep.thetas"),
        (MODEL_YAML + "sweep: {thetas: [.inf]}\n", (), "sweep.thetas"),
        ("model: {N: 10, c: 5, alpha: 5, mu: 0.4, theta: 2, initial_state: [1.5, 0]}\n", (),
         "model.initial_state"),
        ("model: {N: 10, c: 5, alpha: 5, mu: 0.4, theta: 2, initial_state: [true, 0]}\n", (),
         "model.initial_state"),
        ("model: {N: 10, c: 5, alpha: 5, mu: 0.4, theta: 2, initial_state: \"13\"}\n", (),
         "model.initial_state"),
    ], ids=["infinite_alpha", "nan_mu", "infinite_theta", "negative_seed", "negative_seed_flag",
            "fractional_N", "bool_N", "fractional_replicas", "fractional_table_c", "tiny_step",
            "bool_alpha", "bool_theta", "bool_time", "bool_range_start", "bool_sweep_theta",
            "nan_sweep_theta", "infinite_sweep_theta", "fractional_initial_state", "bool_initial_state",
            "string_initial_state"])
    def test_unusable_value_fails_validation_and_every_method(self, tmp_path, capsys,
                                                               body, flags, key):
        path = tmp_path / "cfg.yaml"
        path.write_text(body + "outputs: [moments]\n")
        runs = [["validate-config"]] + [["solve", "--method", m] for m in cli.METHODS]
        for run in runs:
            argv = [*run, "--config", str(path), *flags]
            if run[0] == "solve":
                argv += ["--out", str(tmp_path / "out")]
            assert main(argv) == 2, run
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and key in err and "Traceback" not in err, run

    def test_model_error_is_exit_two(self, tmp_path, monkeypatch):
        def ill_posed(*args):
            raise ModelError("reducible chain")

        monkeypatch.setattr(laplace, "stationary_nullspace", ill_posed)
        cfg = write_config(tmp_path)
        assert main(["stationary", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command, trigger, code", [
        ("solve", "residual", 3),
        ("table", "residual", 3),
        ("sweep", "out_is_file", 2),
        ("timeseries", "out_is_file", 2),
        ("stationary", "singular", 3),
        ("simulate", "time_zero", 2),
    ])
    def test_report_subcommand_failure(self, tmp_path, capsys, monkeypatch,
                                       command, trigger, code):
        times = "[0.0]" if trigger == "time_zero" else "[0.5, 2.0]"
        cfg = write_config(tmp_path, method="ilt", times=times,
                           extra="table: {N: [6], c: [3], times: [1.0]}\n")
        out = tmp_path / "out"
        if trigger == "out_is_file":
            out.write_text("")
        elif trigger == "residual":
            monkeypatch.setattr(laplace, "RESIDUAL_TOL", 0.0)
        elif trigger == "singular":
            def singular(gen):
                raise NumericalError("singular pivot in the stationary system")

            monkeypatch.setattr(laplace, "stationary_nullspace", singular)
        assert main([command, "--config", cfg, "--out", str(out)]) == code
        err = capsys.readouterr().err
        prefix = "config error: " if code == 2 else "numerical error: "
        assert err.startswith(prefix) and "Traceback" not in err

    def test_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--config", "x.yaml", "--method", "magic"])
        assert err.value.code == 2


@pytest.fixture(scope="module")
def table_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("table")
    path = tmp / "cfg.yaml"
    path.write_text(
        "model: {N: 10, c: 5, alpha: 5, mu: 0.4, theta: 2}\n"
        "solver: {method: uniformization}\n"
        "outputs: [table_grid]\n"
        "table:\n"
        "  N: [10, 20]\n"
        "  c: [5, 15]\n"
        "  times: [0.5, 2.0]\n"
    )
    out = tmp / "out"
    assert main(["table", "--config", str(path), "--out", str(out), "--no-metadata"]) == 0
    return out


class TestTable:
    def test_grid_shape_and_empty_cells(self, table_out):
        _, header, rows = read_report(table_out / "table_grid.csv")
        assert header == ["c", "t", "N=10", "N=20"]
        assert len(rows) == 4  # two c values x two times
        by_key = {(r[0], r[1]): r for r in rows}
        assert by_key[("15", "0.5")][2] == ""  # c = 15 needs N > 15
        assert by_key[("15", "0.5")][3] != ""

    def test_cells_rounded_to_two_decimals(self, table_out):
        _, _, rows = read_report(table_out / "table_grid.csv")
        cell = rows[0][2]
        assert cell.startswith("(") and cell.endswith(")")
        left, right = cell[1:-1].split(",")
        assert len(left.split(".")[1]) == 2
        assert len(right.strip().split(".")[1]) == 2

    def test_unrounded_companion(self, table_out):
        _, header, rows = read_report(table_out / "table_grid_unrounded.csv")
        assert header == ["N", "c", "t", "E_I", "E_R"]
        assert len(rows) == 6  # (10,5), (20,5), (20,15) each at two times

    def test_match_report_written(self, table_out):
        comments, header, rows = read_report(table_out / "reference_match.csv")
        assert header == ["c", "t", "N", "ref_E_I", "ref_E_R", "E_I", "E_R", "status"]
        assert any("matched" in c for c in comments)
        statuses = {r[7] for r in rows}
        assert statuses <= {"match", "mismatch", "not computed (requires c < N)"}

    def test_half_even_rounding_policy(self):
        assert f"{1.6249:.2f}" == "1.62"
        assert f"{0.125:.2f}" == "0.12"
        assert f"{0.375:.2f}" == "0.38"


class TestSweep:
    def test_sweep_output_and_dedup(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "model: {N: 10, c: 5, alpha: 5, mu: 0.4, theta: 2}\n"
            "solver: {method: uniformization}\n"
            "outputs: [theta_sweep]\n"
            "sweep:\n"
            "  thetas: [0.0, 1.0, 1.0, 5.0]\n"
            "  times: [1.0, 20.0]\n"
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--no-metadata"]) == 0
        assert "duplicate theta" in capsys.readouterr().err
        _, header, rows = read_report(out / "sweep_homogeneous.csv")
        assert header == ["theta", "t", "E_I", "E_R"]
        assert len(rows) == 3 * 2  # deduplicated thetas x times

    def test_heterogeneous_sweep_included_with_graph(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text(rs.graph_to_text(rs.ring_with_hub(10)))
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "model: {N: 10, c: 5, alpha: 5, mu: 0.4, theta: 2, mode: heterogeneous, tagged_node: 2}\n"
            "graph_path: g.txt\n"
            "solver: {method: uniformization}\n"
            "outputs: [theta_sweep]\n"
            "sweep: {thetas: [0.0, 2.0], times: [1.0]}\n"
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--no-metadata"]) == 0
        assert (out / "sweep_homogeneous.csv").exists()
        assert (out / "sweep_heterogeneous.csv").exists()


class TestOtherCommands:
    def test_timeseries_moments(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["timeseries", "--config", cfg, "--out", str(out), "--kind", "moments"]) == 0
        _, header, rows = read_report(out / "timeseries_moments.csv")
        assert header == ["t", "E_I", "E_R"]
        assert len(rows) == 3

    def test_timeseries_marginals(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["timeseries", "--config", cfg, "--out", str(out),
                     "--kind", "marginals"]) == 0
        assert (out / "timeseries_marginals_recovering.csv").exists()
        assert (out / "timeseries_marginals_orbit.csv").exists()

    def test_default_grid_when_times_missing(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "model: {N: 10, c: 5, alpha: 5, mu: 0.4, theta: 2}\n"
            "solver: {method: uniformization}\n"
            "outputs: [moments]\n"
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        _, _, rows = read_report(out / "moments.csv")
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == 9.0  # default homogeneous range

    def test_stationary(self, tmp_path):
        # N=200, c=100 has 10,201 states, past the generator's dense-conversion limit
        for N, c in [(10, 5), (200, 100)]:
            cfg = tmp_path / f"scenario_{N}.yaml"
            cfg.write_text(WELLMIXED_YAML.format(method="uniformization", outputs="moments")
                           .replace("N: 10\n  c: 5\n", f"N: {N}\n  c: {c}\n"))
            out = tmp_path / f"out_{N}"
            assert main(["stationary", "--config", str(cfg), "--out", str(out)]) == 0
            comments, header, rows = read_report(out / "stationary.csv")
            assert header == ["i", "j", "probability"]
            pi = np.array([float(r[2]) for r in rows])
            assert pi.sum() == pytest.approx(1.0, abs=1e-10)
            [residual] = [float(c.split(":")[1]) for c in comments
                          if c.startswith("# stationary_residual:")]
            assert residual <= 1e-10
            model = rs.ModelConfig(N=N, c=c, alpha=5.0, mu=0.4, theta=2.0)
            gen = rs.build_generator(model, rs.rate_function(model))
            assert np.abs(gen.matrix.T @ pi).max() <= 1e-10

    @pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=lambda path: path.name)
    def test_stationary_header_changes_no_row(self, tmp_path, config):
        runs = []
        for flags in ([], ["--no-metadata"]):
            out = tmp_path / f"out_{len(flags)}"
            assert main(["stationary", "--config", str(config), "--out", str(out), *flags]) == 0
            runs.append((out / "stationary.csv").read_bytes().splitlines(keepends=True))
        with_header, bare = runs
        assert with_header[0].startswith(b"# ") and not bare[0].startswith(b"#")
        assert [line for line in with_header if not line.startswith(b"#")] == bare

    @pytest.mark.parametrize("theta", [0.0, 2.0])
    def test_stationary_of_an_isolated_tagged_node(self, tmp_path, theta):
        # node 5 has no contacts, so nothing arrives: at theta = 0 every (0, j)
        # is absorbing, and at theta = 2 the orbit drains into (0, 0)
        (tmp_path / "graph.txt").write_text("n 6\n0 1\n1 2\n2 3\n3 4\n")
        cfg = tmp_path / "isolated.yaml"
        cfg.write_text(f"model: {{N: 6, c: 2, alpha: 5.0, mu: 0.4, theta: {theta}, "
                       "mode: heterogeneous, tagged_node: 5}\ngraph_path: graph.txt\n")
        out = tmp_path / "out"
        code = main(["stationary", "--config", str(cfg), "--out", str(out), "--no-metadata"])
        if theta == 0.0:
            assert code == 2
            return
        assert code == 0
        rows = [f"{i},{j},{1.0 if i == j == 0 else 0.0}\n" for i in range(3) for j in range(5)]
        assert (out / "stationary.csv").read_text() == "i,j,probability\n" + "".join(rows)

    def test_simulate_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["simulate", "--config", cfg, "--out", str(out1), "--no-metadata"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2), "--no-metadata"]) == 0
        body1 = (out1 / "trajectory.csv").read_bytes()
        assert body1 == (out2 / "trajectory.csv").read_bytes()
        assert body1.startswith(b"time,i,j\n0.0,0,0\n")

    def test_simulate_csv_dump(self, tmp_path):
        # one row per state of the path simulate_gillespie samples with the config's seed up to its last time
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--no-metadata"]) == 0
        model = cli.load_scenario(cfg).model
        traj = rs.simulate_gillespie(model, rs.rate_function(model), 5.0, 42)
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[:2] == ["time,i,j", "0.0,0,0"]
        assert lines[1:] == [f"{t!r},{i},{j}" for t, (i, j) in zip(traj.times.tolist(), traj.states.tolist())]

    def test_validate_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["validate-config", "--config", cfg]) == 0
        assert "ok" in capsys.readouterr().out


class TestScenarioParsing:
    def test_missing_model_section(self):
        with pytest.raises(ConfigError, match="model"):
            scenario_from_mapping({"outputs": ["moments"]})

    def test_times_range_form(self):
        scenario = scenario_from_mapping({
            "model": {"N": 10, "c": 5, "alpha": 5, "mu": 0.4, "theta": 2},
            "times": {"start": 0.0, "stop": 1.0, "step": 0.25},
            "outputs": ["moments"],
        })
        np.testing.assert_allclose(scenario.grid(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_times_range_validation(self):
        base = {"model": {"N": 10, "c": 5, "alpha": 5, "mu": 0.4, "theta": 2},
                "outputs": ["moments"]}
        with pytest.raises(ConfigError, match="step"):
            scenario_from_mapping({**base, "times": {"start": 0, "stop": 1, "step": 0}})
        with pytest.raises(ConfigError, match="times"):
            scenario_from_mapping({**base, "times": "noon"})
        with pytest.raises(ConfigError, match="^times: times must be finite and nonnegative"):
            scenario_from_mapping({**base, "times": {"start": -1.0, "stop": 2.0, "step": 0.5}})
        with pytest.raises(ConfigError, match="^table.times: times must be finite and nonnegative"):
            scenario_from_mapping({**base, "table": {"times": [-1.0, 1.0]}})
        with pytest.raises(ConfigError, match="^sweep.times: times must be finite"):
            scenario_from_mapping({**base, "sweep": {"times": [1.0, float("inf")]}})

    def test_grid_entries_bounded_on_every_grid(self):
        # N = 1000, c = 500 give 251,001 states: 39 times stay within MAX_GRID_ENTRIES, 40 do not
        model = {"N": 1000, "c": 500, "alpha": 5, "mu": 0.4, "theta": 2}
        small = {"N": 10, "c": 5, "alpha": 5, "mu": 0.4, "theta": 2}
        grid = {"start": 0.5, "stop": 20.0, "step": 0.5}
        assert len(scenario_from_mapping({"model": model, "times": {**grid, "stop": 19.5}}).grid()) == 39
        for label, mapping in [("times", {"model": model, "times": grid}),
                               ("sweep.times", {"model": model, "sweep": {"times": grid}}),
                               ("table.times", {"model": small,
                                                "table": {"N": [10, 1000], "c": [5, 500], "times": grid}})]:
            with pytest.raises(ConfigError, match=rf"^{label}: 40 times x 251001 states .* MAX_GRID_ENTRIES"):
                scenario_from_mapping(mapping)

    def test_default_grid_at_max_states_accepted(self, tmp_path):
        # the heterogeneous default grid has 29 times; N = 1093, c = 546 give 299,756 states
        graph = tmp_path / "g.txt"
        graph.write_text(rs.graph_to_text(rs.ring_with_hub(1093)))
        scenario = scenario_from_mapping({
            "model": {"N": 1093, "c": 546, "alpha": 5, "mu": 0.4, "theta": 2, "mode": "heterogeneous"},
            "graph_path": "g.txt",
        }, base_dir=tmp_path)
        assert len(scenario.grid()) == 29 and 299_756 <= cli.MAX_STATES

    def test_heterogeneous_default_tagged_node(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text(rs.graph_to_text(rs.ring_with_hub(10)))
        scenario = scenario_from_mapping({
            "model": {"N": 10, "c": 5, "alpha": 5, "mu": 0.4, "theta": 2,
                      "mode": "heterogeneous"},
            "graph_path": "g.txt",
            "outputs": ["moments"],
        }, base_dir=tmp_path)
        assert scenario.model.tagged_node == 2

    def test_config_hash_stable(self):
        mapping = {"model": {"N": 10, "c": 5, "alpha": 5, "mu": 0.4, "theta": 2},
                   "outputs": ["moments"]}
        a = scenario_from_mapping(dict(mapping)).config_hash
        b = scenario_from_mapping(dict(mapping)).config_hash
        assert a == b


class TestPerStateWriters:
    """The per-state reports are byte-identical to one ``state_at`` and ``repr`` per state."""

    @staticmethod
    def per_state_csv(header, rows):
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buffer.getvalue().encode()

    @pytest.fixture(params=[(2, 1), (12, 11), "ring_hub_10"], ids=str)
    def scenario(self, request):
        if request.param == "ring_hub_10":
            return cli.load_scenario(REPO / "demos" / "configs" / "heterogeneous.yaml")
        n, c = request.param
        return scenario_from_mapping({
            "model": {"N": n, "c": c, "alpha": 5.0, "mu": 0.4, "theta": 2.0},
            "solver": {"method": "uniformization"},
        })

    def test_state_probs(self, scenario, tmp_path):
        sol = cli._solve_grid(scenario.model, scenario.graph, scenario.solver,
                              np.array([0.0, 0.5, 2.0]))
        space = scenario.model.space
        rows = [(repr(float(t)), *space.state_at(idx), repr(float(p)))
                for t, vec in zip(sol.times, sol.vectors) for idx, p in enumerate(vec.values)]
        [path] = cli._write_state_probs(scenario, tmp_path, None, "state_probs", sol)
        assert path.read_bytes() == self.per_state_csv(("t", "i", "j", "probability"), rows)

    def test_stationary(self, scenario, tmp_path):
        model = scenario.model
        pi = rs.stationary_nullspace(rs.build_generator(model, rs.rate_function(model, scenario.graph)))
        rows = [(*model.space.state_at(idx), repr(float(p))) for idx, p in enumerate(pi.values)]
        [path] = cli._write_stationary(scenario, tmp_path, None, "stationary", None)
        assert path.read_bytes() == self.per_state_csv(("i", "j", "probability"), rows)


def test_every_report_kind_has_a_writer():
    assert set(cli._WRITERS) == {*cli.OUTPUT_KINDS, "timeseries_marginals", "timeseries_moments", "trajectory"}


#: Runs the CLI in a fresh interpreter and prints its exit code and the scipy, numpy
#: and retrialsi modules it loaded; with ``--block <package>`` first, every import
#: of that top-level package fails.
PROBE = """\
import json, sys
if sys.argv[1] == "--block":
    sys.modules[sys.argv[2]] = None
    del sys.argv[1:3]
from retrialsi import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m, module in sys.modules.items()
                               if module is not None and m.split(".")[0] in ("scipy", "numpy", "retrialsi"))]))
"""
SRC = Path(rs.__file__).resolve().parents[1]

#: Small enough to run every subcommand by every method in a fraction of a second.
SMALL_YAML = """\
model: {N: 6, c: 3, alpha: 5.0, mu: 0.4, theta: 2.0}
solver: {K: 14, replicas: 1000, seed: 1}
times: [0.5, 1.0]
outputs: [state_probs, marginals, moments, stationary]
table: {N: [4, 6], c: [2, 3], times: [0.5, 1.0]}
sweep: {thetas: [0.0, 1.0], times: [0.5, 1.0]}
"""
SUBCOMMANDS = ("solve", "table", "sweep", "timeseries", "stationary", "simulate", "validate-config")


def run_probe(tmp_path, *args, config, metadata=False, block=None, src=SRC):
    """The scipy, numpy and retrialsi modules one CLI run loads in a fresh interpreter.

    The package is imported from ``src``; with ``block``, every import of that
    top-level package fails.  The run must exit 0.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    argv = [*args, "--config", str(config), "--out", str(tmp_path / "out")]
    if not metadata:
        argv.append("--no-metadata")
    if block:
        argv = ["--block", block, *argv]
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(modules)


def scipy_of(modules):
    return {m for m in modules if m.split(".")[0] == "scipy"}


@pytest.mark.parametrize("method", cli.METHODS)
@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_runs_without_scipy(tmp_path, command, method):
    config = tmp_path / "small.yaml"
    config.write_text(SMALL_YAML)
    assert scipy_of(run_probe(tmp_path, command, "--method", method, config=config, block="scipy")) == set()


class TestScipyLoading:
    """No command loads a scipy module, even where scipy is installed."""

    @staticmethod
    def scipy_modules(tmp_path, *args, config=REPO / "bench" / "configs" / "lattice.yaml"):
        return scipy_of(run_probe(tmp_path, *args, config=config))

    def test_validate_config_loads_no_scipy(self, tmp_path):
        assert self.scipy_modules(tmp_path, "validate-config") == set()

    def test_ilt_solve_loads_no_scipy(self, tmp_path):
        assert self.scipy_modules(tmp_path, "solve", "--method", "ilt") == set()

    @pytest.mark.parametrize("command", ["table", "sweep", "timeseries"])
    def test_ilt_reports_load_no_scipy(self, tmp_path, command):
        wellmixed = REPO / "demos" / "configs" / "wellmixed.yaml"
        assert self.scipy_modules(tmp_path, command, "--method", "ilt", config=wellmixed) == set()

    def test_monte_carlo_solve_loads_no_scipy(self, tmp_path):
        mc = REPO / "bench" / "configs" / "mc_n40.yaml"
        assert self.scipy_modules(tmp_path, "solve", "--method", "monte_carlo", "--seed", "7",
                                  config=mc) == set()

    def test_uniformization_solve_loads_no_stationary_solver(self, tmp_path):
        assert self.scipy_modules(tmp_path, "solve", "--method", "uniformization") == set()

    def test_stationary_loads_no_scipy(self, tmp_path):
        assert self.scipy_modules(tmp_path, "stationary") == set()

    def test_stationary_header_loads_no_scipy(self, tmp_path):
        # the header's residual max |pi Q| must not go through GeneratorMatrix.matrix
        lattice = REPO / "bench" / "configs" / "lattice.yaml"
        assert scipy_of(run_probe(tmp_path, "stationary", config=lattice, metadata=True, block="scipy")) == set()
        comments, _, _ = read_report(tmp_path / "out" / "stationary.csv")
        assert any(c.startswith("# stationary_residual:") for c in comments)

    def test_ilt_solve_with_stationary_output_loads_no_scipy(self, tmp_path):
        wellmixed = REPO / "demos" / "configs" / "wellmixed.yaml"  # its outputs include stationary
        assert self.scipy_modules(tmp_path, "solve", "--method", "ilt", config=wellmixed) == set()

    def test_uniformization_with_stationary_output_loads_no_stationary_solver(self, tmp_path):
        wellmixed = REPO / "demos" / "configs" / "wellmixed.yaml"
        assert self.scipy_modules(tmp_path, "solve", "--method", "uniformization", config=wellmixed) == set()


#: What parsing a config may load: the package, the CLI and the numpy-free model layer.
PARSER_MODULES = {"retrialsi", "retrialsi.cli", "retrialsi.errors", "retrialsi.model"}
LATTICE = REPO / "bench" / "configs" / "lattice.yaml"


class TestModulesLoaded:
    """A subcommand loads only the modules it runs."""

    @pytest.mark.parametrize("config", [LATTICE, REPO / "bench" / "configs" / "stationary_n100.yaml",
                                        REPO / "bench" / "configs" / "mc_n40.yaml",
                                        REPO / "demos" / "configs" / "wellmixed.yaml"], ids=lambda p: p.name)
    def test_validate_config_runs_without_numpy(self, tmp_path, config):
        assert run_probe(tmp_path, "validate-config", config=config, block="numpy") == PARSER_MODULES

    def test_heterogeneous_validate_config_loads_numpy_and_no_solver(self, tmp_path):
        modules = run_probe(tmp_path, "validate-config", config=REPO / "demos" / "configs" / "heterogeneous.yaml")
        assert "numpy" in modules  # a contact graph is held as arrays
        assert {m for m in modules if m.split(".")[0] == "retrialsi"} == PARSER_MODULES

    def test_uniformization_loads_neither_inversion_nor_laplace(self, tmp_path):
        modules = run_probe(tmp_path, "solve", "--method", "uniformization", config=LATTICE)
        assert "retrialsi.transient" in modules
        assert not modules & {"retrialsi.inversion", "retrialsi.laplace"}

    def test_a_numpy_import_in_the_model_layer_fails_the_probe(self, tmp_path):
        copy = tmp_path / "src"
        shutil.copytree(SRC / "retrialsi", copy / "retrialsi", ignore=shutil.ignore_patterns("__pycache__"))
        model = copy / "retrialsi" / "model.py"
        future = "from __future__ import annotations\n"
        model.write_text(model.read_text().replace(future, future + "import numpy\n", 1))
        assert "numpy" in run_probe(tmp_path, "validate-config", config=LATTICE, src=copy)
        with pytest.raises(subprocess.CalledProcessError):
            run_probe(tmp_path, "validate-config", config=LATTICE, src=copy, block="numpy")


class TestLazyPackage:
    """The package resolves its exports from their submodules on first use."""

    def test_every_export_resolves(self):
        assert all(getattr(rs, name) is not None for name in rs.__all__)

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from retrialsi import *", namespace)
        assert set(rs.__all__) <= namespace.keys()

    def test_dir_lists_every_export(self):
        assert set(rs.__all__) <= set(dir(rs))

    def test_submodules_resolve(self):
        assert rs.measures.moment_orbit is rs.moment_orbit

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            rs.no_such_name
