"""Physical constants, in the unit system used throughout: µeV, ns, tesla, kelvin.

Every derived number in the package and its tests traces back to this table,
so values are written out to full precision and never redefined elsewhere.
"""

# Bohr magneton, µeV per tesla (CODATA 5.788 381 806e-5 eV/T)
MU_B_UEV_PER_T = 57.8838180

# Reduced Planck constant, µeV·ns (CODATA 6.582 119 569e-16 eV·s)
HBAR_UEV_NS = 0.6582119569

# Boltzmann constant, µeV per kelvin (CODATA 8.617 333 262e-5 eV/K)
KB_UEV_PER_K = 86.173332

# Quantum of resistance h/e², ohm (von Klitzing constant)
H_OVER_E2_OHM = 25812.807

# Elementary charge, coulomb (exact)
E_CHARGE_C = 1.602176634e-19


def charging_energy_uev(capacitance_farad: float) -> float:
    """Single-electron charging energy e²/C in µeV."""
    if capacitance_farad <= 0:
        raise ValueError("capacitance must be positive")
    # e²/C in joule, divided by e to get eV, times 1e6 for µeV
    return E_CHARGE_C / capacitance_farad * 1e6


def thermal_energy_uev(temperature_k: float) -> float:
    """kB·T in µeV."""
    if temperature_k <= 0:
        raise ValueError("temperature must be positive")
    return KB_UEV_PER_K * temperature_k
