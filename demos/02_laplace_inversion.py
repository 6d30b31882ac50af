"""The Laplace route, step by step.

First the inversion machinery alone: Gaver-Stehfest weights applied to
transforms with known inverses, showing the accuracy double precision buys.
Then the full chain pipeline: the resolvent system (s I - Q) is solved at the
Stehfest abscissas and the combination is checked against uniformization,
which integrates the same dynamics by a completely different route.
"""

import math

import numpy as np

import retrialsi as rs
from retrialsi.laplace import solve_resolvents

weights = rs.stehfest_coefficients(14)
rounded = weights.astype(float)
print(f"order 14 weights: min {rounded.min():.3e}, max {rounded.max():.3e}, sum {rounded.sum():.1e}")

print("\nknown transform pairs (K = 14):")
pairs = [
    ("1/s        -> 1", lambda s: 1 / s, lambda t: 1.0),
    ("1/s^2      -> t", lambda s: 1 / s ** 2, lambda t: t),
    ("1/(s+1)    -> exp(-t)", lambda s: 1 / (s + 1), lambda t: math.exp(-t)),
    ("1/(s(s+1)) -> 1-exp(-t)", lambda s: 1 / (s * (s + 1)), lambda t: 1 - math.exp(-t)),
]
for name, transform, exact in pairs:
    errs = [abs(rs.invert_at(transform, t, weights) - exact(t)) for t in (0.1, 1.0, 10.0)]
    print(f"  {name:26s} abs err at t=0.1/1/10: "
          + "  ".join(f"{e:.1e}" for e in errs))

print("\nchain probabilities: inversion vs uniformization")
cfg = rs.ModelConfig(N=10, c=5, alpha=5.0, mu=0.4, theta=2.0)
gen = rs.build_generator(cfg, rs.rate_function(cfg))
p0 = rs.delta_vector(cfg.space, cfg.initial_state)

times = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
ilt = rs.transient_via_ilt(gen, p0, times)  # K = 20, longdouble solves
for t, vec in zip(ilt.times, ilt.vectors):
    oracle = rs.uniformize(gen, p0, float(t))
    gap = np.abs(vec.values - oracle.values).max()
    print(f"  t={t:5.1f}: max |p_ilt - p_unif| = {gap:.2e}, "
          f"E[I] gap = {abs(rs.moment_recovering(vec) - rs.moment_recovering(oracle)):.2e}")

print(f"\n{ilt.metadata['abscissae']} distinct abscissae for {len(times)} x 20 pairs (k, t)")
print("raw mass deviations before renormalization:",
      ", ".join(f"{d:.1e}" for d in ilt.metadata["raw_sum_deviation"]))

# a single resolvent solve, dissected: the level sweep at one shift
((_, x),) = solve_resolvents(gen, [1.0], p0.values)  # one chunk, one row per shift
pstar = x[0].astype(float)
print(f"\nresolvent at s=1: sum p*(s) = {pstar.sum():.12f} (expect 1/s = 1), "
      f"p*_(0,0) = {pstar[0]:.6f}")
