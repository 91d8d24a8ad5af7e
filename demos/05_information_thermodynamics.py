#!/usr/bin/env python3
"""Information thermodynamics of the protocol at zero temperature.

Bob's qubit carries an effective temperature set by its entanglement
with the rest of the chain.  The maximum site-energy reduction then
exactly saturates an information-thermodynamic budget: the sum of a
free-energy (relative entropy) term and the measurement's information
gain, each divided by the effective inverse temperature.
"""

import numpy as np

from qetsim import (ModelParams, ground_state, effective_temperature,
                    entropy_minimization_scan, max_extracted_energy,
                    run_protocol, second_law_report, thermo_sweep,
                    von_neumann_entropy)
from qetsim.thermo import reduced_state_initial

print("=" * 64)
print("Effective temperature and the energy-information budget")
print("=" * 64)

params = ModelParams(h=0.5, k=1.0)
state = ground_state(params)
report = second_law_report(state)

rho = reduced_state_initial(state)
print(f"\nBob's initial qubit: diag({rho[0, 0].real:.4f}, {rho[1, 1].real:.4f}),"
      f" entropy {von_neumann_entropy(rho):.6f}")

best_axis = entropy_minimization_scan(state)
print(f"measurement axis minimising Bob's post-measurement entropy: "
      f"({best_axis[0]:+.3f}, {best_axis[1]:+.3f}, {best_axis[2]:+.3f})")

print(f"information gain of the x-axis measurement: "
      f"I_QC = {report.mutual_information:.6f}")

thermal = effective_temperature(state)
print(f"effective inverse temperature beta_eff = {thermal.beta:.6f}")

print("\n--- the budget identity at h = 0.5 ---")
print(f"relative-entropy term  D/beta    = {report.kl_over_beta:.8f}")
print(f"information term       I_QC/beta = {report.info_over_beta:.8f}")
print(f"sum                              = "
      f"{report.kl_over_beta + report.info_over_beta:.8f}")
print(f"maximum site reduction           = {report.site_reduction_max:.8f}")
print(f"difference                       = {report.budget_residual:.1e}")

print("\n--- first law for Bob's qubit at the site optimum ---")
print(f"work gained     W  = {report.work:+.6f}")
print(f"heat absorbed   Q  = {report.heat:+.6f}")
print(f"energy change   dU = {report.energy_change:+.6f}")
print(f"W + Q - dU         = {report.work + report.heat - report.energy_change:+.1e}")

ext = max_extracted_energy(state)
print(f"\nat the extracted-energy optimum instead, the heat is "
      f"{run_protocol(state, ext.params).heat:+.1e}: pure work, no heat")

print("\n--- budget terms across the field range ---")
print("  h     site_red_max  D/beta      I_QC/beta")
for row in thermo_sweep(np.array([0.1, 0.5, 1.0, 2.0, 3.0])):
    print(f"  {row.h:4.2f}  {row.site_reduction_max:.6f}      "
          f"{row.kl_over_beta:.2e}    {row.info_over_beta:.2e}")
print("the relative-entropy share dies off first; at large fields the")
print("budget is almost pure information gain.")
