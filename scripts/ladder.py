"""Time the two deterministic routes on the c = N/2 lattice ladder.

Run from the repository root:

    python3 scripts/ladder.py --into BENCH_6.json --key ladder

Each rung N in {10, 40, 100, 200, 400} (c = N/2, alpha=5, mu=0.4, theta=2,
start (0, 0), K = 20) runs in its own child process, with BLAS pinned to one
thread, and reports:

- the inversion route at t = 5 and on the grid t = 0.5, 1, ..., 9;
- uniformization at t = 5 and on the same grid;
- max |ILT - uniformization| per state, at t = 5 and over the grid;
- the stationary solve's time and its max |pi Q|, summed over the CSR
  entries in double precision;
- the number of distinct abscissae the grid needs, and the child's peak RSS
  (the grid run dominates it).

``--src`` points at another checkout's ``src`` to measure it the same way.
The script uses only the standard library and numpy besides retrialsi.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNGS = (10, 40, 100, 200, 400)
THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def rung(n: int) -> dict:
    """Measure one rung in this process."""
    import resource

    import numpy as np

    import retrialsi as rs

    cfg = rs.ModelConfig(N=n, c=n // 2, alpha=5.0, mu=0.4, theta=2.0)
    gen = rs.build_generator(cfg, rs.rate_function(cfg))
    p0 = rs.delta_vector(cfg.space, (0, 0))
    grid = np.arange(1, 19) * 0.5

    def timed(fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - start

    def worst(a, b):
        return max(float(np.abs(x.values - y.values).max()) for x, y in zip(a, b))

    ilt5, ilt5_s = timed(rs.transient_via_ilt, gen, p0, [5.0])
    unif5, unif5_s = timed(rs.transient_grid, gen, p0, [5.0])
    ilt, ilt_s = timed(rs.transient_via_ilt, gen, p0, grid)
    unif, unif_s = timed(rs.transient_grid, gen, p0, grid)
    pi, stationary_s = timed(rs.stationary_nullspace, gen)
    q = gen.csr
    pi_q = np.bincount(q.indices, weights=pi.values[q.rows()] * q.data, minlength=gen.dim)
    return {"N": n, "c": n // 2, "states": gen.dim, "ilt_t5_s": ilt5_s, "unif_t5_s": unif5_s,
            "oracle_err_t5": worst(ilt5.vectors, unif5.vectors),
            "ilt_grid_s": ilt_s, "unif_grid_s": unif_s,
            "oracle_err_grid": worst(ilt.vectors, unif.vectors),
            "grid_abscissae": ilt.metadata.get("abscissae"),
            "stationary_s": stationary_s, "stationary_residual": float(np.abs(pi_q).max()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="the retrialsi source tree to time")
    parser.add_argument("--into", help="JSON file to add the ladder to (created if missing)")
    parser.add_argument("--key", default="ladder", help="key of the ladder in that file")
    parser.add_argument("--rung", type=int, help=argparse.SUPPRESS)  # child mode
    args = parser.parse_args(argv)

    if args.rung is not None:
        print(json.dumps(rung(args.rung)))
        return 0

    env = {**os.environ, **THREADS, "PYTHONPATH": args.src}
    rows = []
    for n in RUNGS:
        child = subprocess.run(
            [sys.executable, __file__, "--rung", str(n)],
            env=env, capture_output=True, text=True, check=True)
        rows.append(json.loads(child.stdout.strip().splitlines()[-1]))
        print(json.dumps(rows[-1]), file=sys.stderr)
    ladder = {"settings": "c = N/2, alpha=5, mu=0.4, theta=2, start (0,0), "
              "K=20, grid t = 0.5..9 step 0.5, one thread, one run per rung", "rows": rows}
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
