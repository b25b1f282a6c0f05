"""polspin: photon-polarization <-> electron-spin transfer simulator.

Models the band-edge selection-rule scheme that writes a polarization qubit
onto a conduction electron spin (and reads it back by recombination),
including spectral selection, Larmor precession, dephasing, donor-chain
storage and the device constraints of the emitter dot.
"""

from .angular import clebsch_gordan
from .bands import (BandScheme, FieldConfig, MaterialParams, SpectralWindow,
                    build_level_scheme, conduction_eigenstates,
                    degenerate_scheme, precession_period, resolvability_check,
                    valence_eigenstates, zeeman_splitting, INAS_GAAS_QW)
from .constants import (HBAR_UEV_NS, H_OVER_E2_OHM, KB_UEV_PER_K,
                        MU_B_UEV_PER_T, charging_energy_uev,
                        thermal_energy_uev)
from .errors import (DarkDirection, HeavyHoleTopmost, NoPrecession,
                     PolspinError)
from .noise import NoiseModel
from .pipeline import (ChainParams, ChannelReport, DotConstraints,
                       ScenarioConfig, dot_constraint_check, haar_qubits,
                       monte_carlo_average_fidelity, process_tomography,
                       run_detection, run_end_to_end, scenario_report, sweep)
from .processor import DonorChain, exchange_gate, fresh_chain, load_site, shuttle
from .qstate import (entanglement_entropy, is_cptp, process_fidelity,
                     purity)
from .transfer import (AbsorptionOutcome, PhotonQubit, absorb_case_a,
                       absorb_case_b, absorb_degenerate, dipole_matrix_element)

__version__ = "0.1.0"
