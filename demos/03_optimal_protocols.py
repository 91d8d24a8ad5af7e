#!/usr/bin/env python3
"""Optimal protocol parameters: closed forms against the oracle.

The maxima of the extracted energy and of Bob's local energy reduction
have closed forms driven by two different edge correlators.  A global
maximisation that never touches those formulas (Alice's measurement axis
and Bob's rotation angle maximised exactly for each feedback axis, and
the feedback axis found by a fixed-point iteration of 3 x 3 Jacobi
eigensolves that stops once a Cholesky test proves its value the maximum
up to a factor 1 + 2^-44) lands on the same values.
"""

import numpy as np

from qetsim import (ModelParams, brute_force_max, crossover_field,
                    ground_state, max_extracted_energy, max_site_reduction,
                    peak_extracted_energy, protocol_sweep)
from qetsim.optimize import TARGET_EXTRACTED, TARGET_SITE

print("=" * 64)
print("Closed-form optima vs the global oracle")
print("=" * 64)

state = ground_state(ModelParams(h=0.5, k=1.0))

print("\n--- maximum extracted energy (h = 0.5) ---")
closed = max_extracted_energy(state)
brute = brute_force_max(state, TARGET_EXTRACTED)
print(f"closed form {closed.value:.12f}  at axes y -> x, "
      f"theta = {closed.params.theta:+.6f}")
print(f"oracle      {brute.value:.12f}  "
      f"(difference {abs(closed.value - brute.value):.1e}, "
      f"proven bound {brute.upper_bound:.12f})")
print(f"heat at this optimum: {closed.bond_reduction:+.1e} (none)")

print("\n--- maximum site-energy reduction (h = 0.5) ---")
closed = max_site_reduction(state)
brute = brute_force_max(state, TARGET_SITE)
print(f"closed form {closed.value:.12f}  at axes x -> y, "
      f"theta = {closed.params.theta:+.6f}")
print(f"oracle      {brute.value:.12f}  "
      f"(difference {abs(closed.value - brute.value):.1e}, "
      f"proven bound {brute.upper_bound:.12f})")
print(f"heat released alongside: {closed.bond_reduction:+.6f}")
print("the site reduction beats the extractable energy, but the bond")
print("pays for it: net extraction at these angles is negative.")

print("\n--- landmarks of the field dependence ---")
peak = peak_extracted_energy()
print(f"extracted-energy peak at h = {peak.h_peak:.4f} k")
print(f"extraction efficiency there: {peak.ratio_to_injected:.4f} "
      "of the injected energy")
print(f"site reduction overtakes the x-axis measurement cost below "
      f"h = {crossover_field():.4f} k")

print("\n--- sweep excerpt ---")
print("  h     xx_corr   yy_corr   extracted_max  site_red_max  net_at_site_opt")
for row in protocol_sweep(np.array([0.05, 0.18, 0.5, 1.0, 2.0])):
    print(f"  {row.h:4.2f}  {row.xx:+.5f}  {row.yy:+.5f}   "
          f"{row.extracted_max:.6f}       {row.site_reduction_max:.6f}      "
          f"{row.net_at_site_optimum:+.4f}")
print("\nfull tables: qetsim sweep --out sweep.csv")
