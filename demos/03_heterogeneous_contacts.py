"""Degree-dependent infection pressure on a concrete topology.

The contact graph is the documented fixture family: a ring over nodes 1..n-1
plus node 0 joined to everything.  The tagged node (2, degree 3) sees much
weaker infection pressure than under well-mixed contacts, so the transient
phase stretches out and the stationary regime arrives later.  Both closure
variants of the infected-neighbor term are shown.
"""

from pathlib import Path

import numpy as np

import retrialsi as rs

# the chain reads the graph only through the tagged node's degree
degree = rs.ring_with_hub(10, 2)
print("fixture graph ring_with_hub(10):")
print(f"  tagged node 2: degree {degree}  hub node 0: degree {rs.ring_with_hub(10, 0)}")
graph_file = Path(__file__).resolve().parents[1] / "graphs" / "ring_hub_10.txt"
print(f"  graphs/ring_hub_10.txt gives node 2 degree {rs.load_graph(graph_file.read_text(), 10, 2)}")

base = dict(N=10, c=5, alpha=5.0, mu=0.4, theta=2.0)
hom = rs.ModelConfig(**base)
mean_field = rs.ModelConfig(**base, mode="heterogeneous", tagged_node=2,
                            closure=rs.Closure.MEAN_FIELD)
full = rs.ModelConfig(**base, mode="heterogeneous", tagged_node=2,
                      closure=rs.Closure.FULL_NEIGHBOR)

print("\narrival rates seen at a few states (tagged node 2, degree 3):")
print(f"{'state':>8} {'well-mixed':>11} {'mean-field':>11} {'full-neighbor':>14}")
hom_rates = rs.rate_function(hom)  # one rate per state, in state-index order
mean_field_rates = rs.rate_function(mean_field, degree)
full_rates = rs.rate_function(full, degree)
for state in [(0, 0), (2, 1), (5, 2), (5, 5)]:
    k = hom.space.index(*state)
    print(f"{str(state):>8} {hom_rates[k]:11.4f} {mean_field_rates[k]:11.4f} {full_rates[k]:14.4f}")

grid = np.round(np.arange(0.5, 40.01, 0.5), 10)
print(f"\n{'model':>14} {'E[I](2)':>9} {'E[I](14)':>9} {'E[R](14)':>9} {'1%-settle':>10}")
for label, cfg, d in [("well-mixed", hom, None),
                      ("mean-field", mean_field, degree),
                      ("full-neighbor", full, degree)]:
    gen = rs.build_generator(cfg, rs.rate_function(cfg, d))
    p0 = rs.delta_vector(cfg.space, cfg.initial_state)
    pi = rs.stationary_nullspace(gen)
    sol = rs.transient_grid(gen, p0, grid)
    settle = next((float(t) for t, v in zip(sol.times, sol.vectors)
                   if np.abs(v.values - pi.values).sum() <= 0.01), float("inf"))
    print(f"{label:>14} {rs.moment_recovering(sol.at(2.0)):9.4f} "
          f"{rs.moment_recovering(sol.at(14.0)):9.4f} "
          f"{rs.moment_orbit(sol.at(14.0)):9.4f} {settle:10.1f}")

print("\nthe degree-bounded rates slow the spread: the heterogeneous variants"
      "\ntake noticeably longer to reach stationarity than the well-mixed model")
