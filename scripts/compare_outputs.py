"""Compare the `--no-metadata` reports and demo output of two retrialsi source trees byte for byte.

Run from the repository root, with the other tree checked out beside it:

    git worktree add ../base HEAD
    python3 scripts/compare_outputs.py --base ../base/src

Each tree runs, in its own child process with BLAS pinned to one thread, the
same 65 CLI runs and six demos, all taken from this checkout.  On each shipped
config (``demos/configs/*.yaml`` and ``bench/configs/*.yaml``) the runs are:

- ``solve`` with ``ilt``, ``uniformization`` and ``monte_carlo --seed 7``;
- ``table`` and ``sweep`` with ``ilt`` and ``uniformization``;
- ``timeseries --kind marginals`` and ``--kind moments`` with both methods;
- ``stationary`` and ``simulate``.

Every run writes with ``--no-metadata``, so its files carry no timestamp.  The
script prints each report file, exit code, CLI stdout and demo stdout that
differs between the trees, then a one-line total, and exits 1 on any
difference.  It uses only the standard library besides retrialsi.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
CONFIGS = sorted((ROOT / "demos" / "configs").glob("*.yaml")) + sorted((ROOT / "bench" / "configs").glob("*.yaml"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RUNS = {  # run name -> CLI arguments besides --config, --out and --no-metadata
    "solve-ilt": ["solve", "--method", "ilt"],
    "solve-uniformization": ["solve", "--method", "uniformization"],
    "solve-monte_carlo": ["solve", "--method", "monte_carlo", "--seed", "7"],
    **{f"{command}-{method}": [command, "--method", method]
       for command in ("table", "sweep") for method in ("ilt", "uniformization")},
    **{f"timeseries-{kind}-{method}": ["timeseries", "--kind", kind, "--method", method]
       for kind in ("marginals", "moments") for method in ("ilt", "uniformization")},
    "stationary": ["stationary"],
    "simulate": ["simulate"],
}


def _outcome(run) -> dict:
    """What ``run()`` printed and returned, or the exception it raised."""
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            result = run()
    except Exception as exc:  # a traceback in one run must not hide the others
        result = f"raised {type(exc).__name__}: {exc}"
    except SystemExit as exc:
        result = f"exited {exc.code}"
    return {"result": result, "stdout": stdout.getvalue()}


def run_tree(out: Path) -> dict:
    """Every run and demo in this process, into ``out`` (the working directory); their outcomes."""
    from retrialsi.cli import main

    os.chdir(out)
    outcomes = {}
    for config in CONFIGS:
        for name, args in RUNS.items():
            argv = [*args, "--config", str(config), "--out", f"runs/{config.stem}/{name}", "--no-metadata"]
            outcomes[f"{config.parent.parent.name}/{config.name} {name}"] = _outcome(lambda: main(argv))
    for demo in DEMOS:
        outcomes[f"demos/{demo.name}"] = _outcome(lambda: runpy.run_path(str(demo), run_name="__main__").clear())
    return outcomes


def _files(root: Path) -> dict:
    return {path.relative_to(root).as_posix(): path for path in sorted(root.rglob("*")) if path.is_file()}


def compare(base: Path, head: Path) -> list[str]:
    """One line per difference between the two trees' outcomes and report files."""
    differences = []
    outcomes = [json.loads((tree / "outcomes.json").read_text(encoding="utf-8")) for tree in (base, head)]
    for key in sorted(set(outcomes[0]) | set(outcomes[1])):
        a, b = (side.get(key, {}) for side in outcomes)
        if a.get("result") != b.get("result"):
            differences.append(f"{key}: outcome differs: {a.get('result')!r} != {b.get('result')!r}")
        if a.get("stdout") != b.get("stdout"):
            differences.append(f"{key}: stdout differs")
    files = [_files(tree / "runs") for tree in (base, head)]
    for name in sorted(set(files[0]) | set(files[1])):
        if name not in files[1]:
            differences.append(f"runs/{name}: written only under --base")
        elif name not in files[0]:
            differences.append(f"runs/{name}: written only under this checkout")
        elif files[0][name].read_bytes() != files[1][name].read_bytes():
            differences.append(f"runs/{name}: contents differ")
    return differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="the retrialsi source tree to compare against (required)")
    parser.add_argument("--tree", help=argparse.SUPPRESS)  # child mode: the output directory
    args = parser.parse_args(argv)

    if args.tree is not None:
        out = Path(args.tree)
        outcomes = run_tree(out)
        (out / "outcomes.json").write_text(json.dumps(outcomes, indent=1), encoding="utf-8")
        return 0

    if args.base is None or not (Path(args.base) / "retrialsi" / "cli.py").is_file():
        parser.error(f"--base must name a source tree holding retrialsi/cli.py, got {args.base}")
    trees = {"base": Path(args.base).resolve(), "head": ROOT / "src"}
    with tempfile.TemporaryDirectory() as tmp:
        for side, src in trees.items():
            out = Path(tmp) / side
            out.mkdir()
            subprocess.run([sys.executable, __file__, "--tree", str(out)],
                           env={**os.environ, **THREADS, "PYTHONPATH": str(src)}, check=True)
        differences = compare(Path(tmp) / "base", Path(tmp) / "head")
        reports = len(_files(Path(tmp) / "head" / "runs"))
    for line in differences:
        print(line)
    print(f"{len(differences)} differences over {len(CONFIGS) * len(RUNS)} runs ({reports} report files) "
          f"and {len(DEMOS)} demos")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
