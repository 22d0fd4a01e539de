"""Watch gap-safe screening identify the support of a sparse logistic model.

Runs the screened doubly stochastic solver on planted logistic data and
prints, per outer iteration, the duality gap, the safe-sphere radius, and the
surviving blocks; then certifies every eliminated block against the reference
optimum and compares the final active set with the equicorrelation set.
"""

import numpy as np

import gapsgd as G
from gapsgd.harness import SyntheticParams, build_spec, generate_synthetic
from gapsgd.solvers import _spectral_bound

params = SyntheticParams(n=150, d=300, sparsity=0.4, noise=0.02, seed=3,
                         support_size=9, model="logistic")
data = generate_synthetic(params)
spec = build_spec(data, model="logistic", lambda_ratio=0.5, q=10)
consts = G.lipschitz_constants(spec)
print(f"instance: n={data.n} d={data.d} q={spec.partition.q} lam={spec.lam:.4g} "
      f"L={consts.L:.3g} T={consts.T:.3g}")

rep = G.adsgd_solve(spec, G.SolverConfig(
    seed=3, gap_tol=1e-6, max_outer=200, eta=1.0 / (4.0 * _spectral_bound(spec))))

print(f"\n{'outer':>5} {'gap':>10} {'radius':>10} {'blocks':>6} {'working':>7}  "
      f"surviving block ids")
for row, blocks in zip(rep.trace, rep.active_history):
    print(f"{row.outer_iter:>5} {row.gap:>10.2e} {row.radius:>10.2e} "
          f"{row.active_blocks:>6} {row.working_blocks:>7}  {','.join(map(str, blocks))}")

oracle = G.reference_solve(spec, tol=1e-12)
eq = G.equicorrelation_set(spec, oracle.dual)
removed = sorted(set(range(spec.partition.q)) - set(rep.active_history[-1].tolist()))
print(f"\nfinal active blocks:       {sorted(rep.active_history[-1].tolist())}")
print(f"oracle equicorrelation set: {eq.tolist()}")
print(f"oracle support blocks:      "
      f"{sorted({int(spec.partition.block_of[i]) for i in oracle.support})}")

worst = 0.0
for j in removed:
    worst = max(worst, float(np.max(np.abs(oracle.x_final[spec.partition.groups[j]]),
                                    initial=0.0)))
print(f"safety certificate: largest oracle coordinate inside a removed block = {worst:.2e}")
print(f"solver vs oracle:   max coordinate difference = "
      f"{np.max(np.abs(rep.x_final - oracle.x_final)):.2e}")
