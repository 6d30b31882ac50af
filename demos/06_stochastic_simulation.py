"""Event-level simulation against the analytic solvers.

A single seeded trajectory shows the jump structure (arrivals, recoveries,
successful retrials, orbit joins).  Then 50k replicas estimate the state
distribution at a few times, and the estimates land within a few standard
errors of uniformization, closing the loop between the stochastic and
analytic views of the same chain.
"""

import numpy as np

import retrialsi as rs

cfg = rs.ModelConfig(N=10, c=5, alpha=5.0, mu=0.4, theta=2.0)
arrival = rs.rate_function(cfg)  # the arrival rate of every state
gen = rs.build_generator(cfg, arrival)

trajectory = rs.simulate_gillespie(cfg, arrival, horizon=4.0, seed=7)
print(f"one path (seed 7, horizon 4, rng {trajectory.rng}): {len(trajectory) - 1} events")
labels = {(1, 0): "arrival -> unit", (-1, 0): "recovery", (1, -1): "retrial success",
          (0, 1): "arrival -> orbit"}
for k in range(1, min(len(trajectory), 12)):
    move = tuple(trajectory.states[k] - trajectory.states[k - 1])
    print(f"  t={trajectory.times[k]:7.4f}  {tuple(trajectory.states[k])}  {labels[move]}")
if len(trajectory) > 12:
    print(f"  ... {len(trajectory) - 12} more events")

replicas = 50_000
times = [1.0, 3.0, 8.0]
mc = rs.monte_carlo_estimate(cfg, arrival, times, replicas, seed=2026)
p0 = rs.delta_vector(cfg.space, cfg.initial_state)

print(f"\n{replicas} replicas vs uniformization:")
print(f"{'t':>5} {'E[I] mc':>9} {'E[I] exact':>11} {'gap/sigma':>10}"
      f" {'E[R] mc':>9} {'E[R] exact':>11} {'gap/sigma':>10}")
for t, vec in zip(mc.times, mc.vectors):
    exact = rs.uniformize(gen, p0, float(t))
    cells = []
    for moment in (rs.moment_recovering, rs.moment_orbit):
        sigma = np.sqrt((moment(exact, 2) - moment(exact) ** 2) / replicas)
        gap = abs(moment(vec) - moment(exact))
        cells += [moment(vec), moment(exact), gap / sigma]
    print(f"{t:5.1f} {cells[0]:9.4f} {cells[1]:11.4f} {cells[2]:10.1f}"
          f" {cells[3]:9.4f} {cells[4]:11.4f} {cells[5]:10.1f}")

worst = max(float(np.abs(v.values - rs.uniformize(gen, p0, float(t)).values).max())
            for t, v in zip(mc.times, mc.vectors))
print(f"\nworst per-state deviation: {worst:.4f} "
      f"(binomial noise scale ~ {1 / np.sqrt(replicas):.4f})")
