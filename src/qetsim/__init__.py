"""Quantum energy teleportation on a four-site spin chain.

Library layout:

* :mod:`qetsim.operators`  Pauli/fermion operators and basis conventions
* :mod:`qetsim.model`      Hamiltonian, symmetries, exact ground state
* :mod:`qetsim.protocol`   measurement, feedback, energy bookkeeping
* :mod:`qetsim.optimize`   closed-form maxima and the fixed-point oracle
* :mod:`qetsim.majorana`   Majorana operators and correlator identities
* :mod:`qetsim.chain`      free-fermion solver for long chains
* :mod:`qetsim.thermo`     entropies, effective temperature, second law
* :mod:`qetsim.checks`     the self-verification suite
* :mod:`qetsim.cli`        CSV-producing command line front end
"""

from .chain import ChainSpec, LengthScan, build_chain, correlators_vs_length, \
    edge_correlators, ground_covariance
from .majorana import MajoranaCorrelators, build_majorana_ops, \
    degenerate_sector_table, hamiltonian_residual, majorana_correlators
from .model import GroundState, ModelParams, build_hamiltonian, \
    build_symmetries, energy_decomposition, even_sector_spectrum, \
    ground_energy, ground_state, numeric_ground_state, odd_sector_spectrum
from .optimize import Certificate, brute_force_max, crossover_field, \
    max_extracted_energy, max_site_reduction, peak_extracted_energy, \
    protocol_sweep
from .protocol import EdgeCorrelators, EnergyLedger, ProtocolParams, \
    correlators, no_feedback_reduction, project, rotate, run_protocol
from .thermo import EffectiveThermal, ThermoReport, effective_temperature, \
    entropy_minimization_scan, qc_mutual_information, second_law_report, \
    thermo_sweep, von_neumann_entropy

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
