"""Two independent routes to the stationary distribution.

The method of record solves pi Q = 0 directly (nullspace), by the level sweep
at s = 0.  A long uniformization run from the initial state provides the
second, dynamics-based route, and the residual max |pi Q| measures how well
the null vector solves the balance equations.
"""

import numpy as np

import retrialsi as rs

cfg = rs.ModelConfig(N=10, c=5, alpha=5.0, mu=0.4, theta=2.0)
gen = rs.build_generator(cfg, rs.rate_function(cfg))
p0 = rs.delta_vector(cfg.space, cfg.initial_state)

pi = rs.stationary_nullspace(gen)
late = rs.uniformize(gen, p0, 200.0)

print(f"max |nullspace - P(200)|  = {np.abs(pi.values - late.values).max():.3e}")
print(f"residual max |pi Q|       = {np.abs(pi.values @ gen.toarray()).max():.3e}")

report = rs.marginal_report(pi)
print(f"\nstationary moments: E[I] = {report.mean_recovering:.4f} "
      f"(var {report.var_recovering:.4f}), E[R] = {report.mean_orbit:.4f} "
      f"(var {report.var_orbit:.4f})")

print("\nstationary distribution over (busy units, orbit):")
grid = pi.as_grid()
header = "  i\\j " + "".join(f"{j:>9}" for j in range(cfg.N - cfg.c + 1))
print(header)
for i, row in enumerate(grid):
    print(f"  {i:>3} " + "".join(f"{p:9.5f}" for p in row))
