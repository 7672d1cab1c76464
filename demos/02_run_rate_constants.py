"""Walkthrough: the run-rate constant, exactly and by simulation.

The chance that an m-row strip carries a significant chain across n columns
decays like rate^n; the longest significant run under pure noise grows like
log(n) / log(1/rate). The exact rate is the Perron root of a transfer
operator on row subsets; a Monte Carlo estimate inverts the growth law. As
rows and columns grow together, the longest run grows like log(m*n) over
-log of the rate's limit in m.
"""

import chainscan as cs

print("exact run rates (drift bound 1):")
ps = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
print("  m\\p " + "".join(f"{p:8.1f}" for p in ps))
for m in (1, 2, 4, 8, 10):
    row = [cs.perron_root(cs.build_transfer_operator(m, 1, p)).value for p in ps]
    print(f"  {m:3d} " + "".join(f"{v:8.4f}" for v in row))

print("\nrank-one special case, two rows: rate = 1 - (1-p)^2")
for p in (0.2, 0.3, 0.5):
    op = cs.build_transfer_operator(2, 1, p)
    print(f"  p={p}: {cs.perron_root(op).value:.6f} vs {1 - (1 - p) ** 2:.6f}")

print("\nMonte Carlo cross-check (growth-law inversion, 30 nets of 10^5 columns):")
for m, p in ((4, 0.2), (8, 0.4)):
    exact = cs.perron_root(cs.build_transfer_operator(m, 1, p)).value
    est = cs.estimate_run_rate(m, 1, p, n_cols=10**5, trials=30, seed=1)
    print(f"  m={m} p={p}: exact {exact:.4f}, estimated {est.value:.4f}")

print("\njoint-growth regime: longest run ~ log(m*n) / area_rate(p), area_rate = -log rho_inf")
for p in (0.05, 0.1, 0.2):
    print(f"  p={p}: area rate {cs.resolve_area_rate(1, p):.4f}")
