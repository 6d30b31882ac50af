"""Time the two deterministic routes on the c = N/2 lattice ladder.

Run from the repository root:

    python3 scripts/ladder.py --into BENCH_6.json --key ladder

Each rung N in {10, 40, 100, 200, 400} (c = N/2, alpha=5, mu=0.4, theta=2,
start (0, 0), K = 20) times five stages, each in its own child process with
BLAS pinned to one thread, so that no stage runs in the memory another one
freed:

- the inversion route at t = 5 and on the grid t = 0.5, 1, ..., 9;
- uniformization at t = 5 and on the same grid;
- the stationary solve.

A stage's time is one call of its route on a prebuilt generator, so each
inversion stage includes building the longdouble generator on first use.
The rung's row also reports max |ILT - uniformization| per state, at t = 5
and over the grid; the stationary solve's max |pi Q|, summed over the CSR
entries in double precision; the number of distinct abscissae the grid
needs; and the largest peak RSS of the rung's children (the inversion
grid's dominates it).

``--rung N`` measures one rung and prints its row.  ``--src`` points at
another checkout's ``src`` to measure it the same way.  The script uses only
the standard library and numpy besides retrialsi.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNGS = (10, 40, 100, 200, 400)
THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
GRID = [0.5 * k for k in range(1, 19)]
STAGES = {  # the row's key for a stage's time -> (route, times); the stationary solve takes none
    "ilt_t5_s": ("transient_via_ilt", [5.0]),
    "unif_t5_s": ("transient_grid", [5.0]),
    "ilt_grid_s": ("transient_via_ilt", GRID),
    "unif_grid_s": ("transient_grid", GRID),
    "stationary_s": ("stationary_nullspace", None),
}


def stage(n: int, key: str, vectors: str) -> dict:
    """Time one stage of rung ``n`` in this process; a transient stage saves its vectors to ``vectors``."""
    import resource

    import numpy as np

    import retrialsi as rs

    cfg = rs.ModelConfig(N=n, c=n // 2, alpha=5.0, mu=0.4, theta=2.0)
    gen = rs.build_generator(cfg, rs.rate_function(cfg))
    route, times = STAGES[key]
    args = (gen,) if times is None else (gen, rs.delta_vector(cfg.space, (0, 0)), times)
    start = time.perf_counter()
    result = getattr(rs, route)(*args)
    row = {key: time.perf_counter() - start}
    if times is None:
        q = gen.csr
        pi_q = np.bincount(q.indices, weights=result.values[q.rows()] * q.data, minlength=gen.dim)
        row["stationary_residual"] = float(np.abs(pi_q).max())
    else:
        np.save(vectors, np.array([v.values for v in result.vectors]))
        if key == "ilt_grid_s":
            row["grid_abscissae"] = result.metadata.get("abscissae")
    row["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return row


def rung(n: int, env: dict) -> dict:
    """Measure one rung, each stage in its own child process."""
    import numpy as np

    row = {"N": n, "c": n // 2, "states": (n // 2 + 1) * (n - n // 2 + 1)}
    peaks = []
    with tempfile.TemporaryDirectory() as tmp:
        for key in STAGES:
            child = subprocess.run(
                [sys.executable, __file__, "--stage", str(n), key, os.path.join(tmp, f"{key}.npy")],
                env=env, capture_output=True, text=True, check=True)
            measured = json.loads(child.stdout.strip().splitlines()[-1])
            peaks.append(measured.pop("peak_rss_mb"))
            row.update(measured)

        def worst(ilt, unif):
            return float(np.abs(np.load(os.path.join(tmp, f"{ilt}.npy"))
                                - np.load(os.path.join(tmp, f"{unif}.npy"))).max())

        row["oracle_err_t5"] = worst("ilt_t5_s", "unif_t5_s")
        row["oracle_err_grid"] = worst("ilt_grid_s", "unif_grid_s")
    row["peak_rss_mb"] = max(peaks)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="the retrialsi source tree to time")
    parser.add_argument("--into", help="JSON file to add the ladder to (created if missing)")
    parser.add_argument("--key", default="ladder", help="key of the ladder in that file")
    parser.add_argument("--rung", type=int, help="measure this one rung and print its row")
    parser.add_argument("--stage", nargs=3, help=argparse.SUPPRESS)  # child mode: N, stage key, vectors file
    args = parser.parse_args(argv)

    if args.stage is not None:
        n, key, vectors = args.stage
        print(json.dumps(stage(int(n), key, vectors)))
        return 0

    env = {**os.environ, **THREADS, "PYTHONPATH": args.src}
    if args.rung is not None:
        print(json.dumps(rung(args.rung, env)))
        return 0

    rows = []
    for n in RUNGS:
        rows.append(rung(n, env))
        print(json.dumps(rows[-1]), file=sys.stderr)
    ladder = {"settings": "c = N/2, alpha=5, mu=0.4, theta=2, start (0,0), "
              "K=20, grid t = 0.5..9 step 0.5, one thread, one run per rung, "
              "each stage in its own process", "rows": rows}
    if args.into:
        path = Path(args.into)
        doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        doc[args.key] = ladder
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    else:
        print(json.dumps(ladder, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
