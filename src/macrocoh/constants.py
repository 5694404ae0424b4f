"""Physical constants in SI units (CODATA 2018 where applicable)."""

import math

from .config import record


@record
class PhysicalConstants:
    """Shared constant set; immutable so a single module-level instance suffices."""

    hbar: float = 1.054571817e-34         # J s
    c: float = 299792458.0                # m/s
    k_B: float = 1.380649e-23             # J/K
    G: float = 6.67430e-11                # m^3/(kg s^2)
    m_u: float = 1.66053906660e-27        # kg, atomic mass unit
    m_nucleon: float = 1.67262192369e-27  # kg, proton mass
    m_planck: float = 2.176434e-8         # kg
    gas_constant_R: float = 8.314462618   # J/(K mol)
    stefan_boltzmann: float = 5.670374419e-8  # W/(m^2 K^4)
    zeta9: float = 1.0020083928260822     # Riemann zeta(9)

    def __post_init__(self):
        for name, value in vars(self).items():
            if not value > 0.0:
                raise ValueError(f"constant {name} must be positive, got {value}")

    @property
    def planck_length(self):
        """sqrt(G hbar / c^3), in m."""
        return math.sqrt(self.G * self.hbar / self.c**3)


CONSTANTS = PhysicalConstants()

STANDARD_GRAVITY = 9.81  # m/s^2, surface reference value
