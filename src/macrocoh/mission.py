"""Orbit geometry, sensor integration, actuator noise, and budget ledgers.

Two-body ellipse only: period from Kepler's third law, local gravity from the
inverse-square law, and time-in-altitude-band from the closed true-anomaly ->
eccentric-anomaly -> mean-anomaly chain around perigee.
"""

import math

from . import config
from .constants import CONSTANTS, STANDARD_GRAVITY

EARTH_RADIUS = 6.371e6     # m
EARTH_MU = 3.986e14        # m^3/s^2


@config.record
class OrbitElements:
    """Two-body ellipse given by apogee/perigee altitudes above the body."""

    apogee_altitude: float    # m
    perigee_altitude: float   # m
    body_radius: float = EARTH_RADIUS
    body_mu: float = EARTH_MU
    inclination_deg: float = 0.0  # informational only

    def __post_init__(self):
        if not self.apogee_altitude >= self.perigee_altitude >= 0.0:
            raise ValueError("need apogee >= perigee >= 0")
        if not (self.body_radius > 0.0 and self.body_mu > 0.0):
            raise ValueError("body radius and mu must be positive")

    @property
    def perigee_radius(self):
        return self.body_radius + self.perigee_altitude

    @property
    def apogee_radius(self):
        return self.body_radius + self.apogee_altitude

    @property
    def semi_major_axis(self):
        return 0.5 * (self.perigee_radius + self.apogee_radius)

    @property
    def eccentricity(self):
        return ((self.apogee_radius - self.perigee_radius)
                / (self.apogee_radius + self.perigee_radius))


def orbital_period(orbit):
    """Keplerian period 2 pi sqrt(a^3 / mu), in seconds."""
    return 2.0 * math.pi * math.sqrt(orbit.semi_major_axis**3 / orbit.body_mu)


@config.record
class GravitySample:
    acceleration: float  # m/s^2
    g_fraction: float    # relative to 9.81 m/s^2


def local_gravity(orbit, altitude):
    """Gravitational acceleration mu / (R + h)^2 at the given altitude."""
    if altitude < 0.0:
        raise ValueError("altitude must be non-negative")
    accel = orbit.body_mu / (orbit.body_radius + altitude) ** 2
    return GravitySample(acceleration=accel, g_fraction=accel / STANDARD_GRAVITY)


def time_from_perigee(orbit, altitude):
    """Coast time from perigee to the first crossing of the given altitude."""
    if not orbit.perigee_altitude <= altitude <= orbit.apogee_altitude:
        raise ValueError("altitude lies outside the orbit")
    ecc = orbit.eccentricity
    if ecc == 0.0:
        return 0.0
    radius = orbit.body_radius + altitude
    semilatus = orbit.semi_major_axis * (1.0 - ecc**2)
    cos_nu = max(-1.0, min(1.0, (semilatus / radius - 1.0) / ecc))
    nu = math.acos(cos_nu)
    ecc_anomaly = 2.0 * math.atan(
        math.sqrt((1.0 - ecc) / (1.0 + ecc)) * math.tan(0.5 * nu))
    mean_anomaly = ecc_anomaly - ecc * math.sin(ecc_anomaly)
    return mean_anomaly / (2.0 * math.pi) * orbital_period(orbit)


def altitude_window(orbit, h_lo, h_hi):
    """Time per orbit spent with altitude in [h_lo, h_hi] around perigee, s.

    The band is crossed symmetrically before and after perigee, so the
    one-sided coast-time difference is doubled.  A circular orbit spends the
    whole period at its single altitude.
    """
    if h_lo > h_hi:
        raise ValueError("need h_lo <= h_hi")
    if h_lo < orbit.perigee_altitude or h_hi > orbit.apogee_altitude:
        raise ValueError("altitude band lies outside the orbit")
    if orbit.eccentricity == 0.0:
        return orbital_period(orbit)
    return 2.0 * (time_from_perigee(orbit, h_hi) - time_from_perigee(orbit, h_lo))


@config.record
class IntegratedAccuracy:
    absolute: float    # m/s^2 after integration
    fractional: float  # relative to the reference acceleration


def integrated_accuracy(psd, integration_time, reference_accel=1.0):
    """White-noise accuracy psd / sqrt(T), absolute and as a fraction."""
    if not (psd > 0.0 and integration_time > 0.0 and reference_accel > 0.0):
        raise ValueError("psd, integration time, and reference must be positive")
    absolute = psd / math.sqrt(integration_time)
    return IntegratedAccuracy(absolute=absolute,
                              fractional=absolute / reference_accel)


@config.record
class ThrusterNoise:
    accel_psd: float       # (m/s^2)/sqrt(Hz)
    position_spread: float  # m


def thruster_position_noise(duration, accel_psd):
    """Free-drift position spread under white thruster acceleration noise.

    Double-integrated white noise gives sigma_x = sqrt(S_a t^3 / 3) with
    S_a = accel_psd^2; `thruster_accel_psd` gives accel_psd from a force PSD.
    """
    if not duration > 0.0:
        raise ValueError("duration must be positive")
    if accel_psd < 0.0:
        raise ValueError("acceleration PSD must be non-negative")
    spread = math.sqrt(accel_psd**2 * duration**3 / 3.0)
    return ThrusterNoise(accel_psd=accel_psd, position_spread=spread)


def thruster_accel_psd(force_psd, spacecraft_mass):
    """Acceleration noise PSD force_psd / spacecraft_mass, (m/s^2)/sqrt(Hz)."""
    if not spacecraft_mass > 0.0:
        raise ValueError("spacecraft mass must be positive")
    if force_psd < 0.0:
        raise ValueError("acceleration PSD must be non-negative")
    return force_psd / spacecraft_mass


def cooling_noise_threshold(g0, quality_factor, temperature):
    """Maximum tolerable laser phase-noise PSD for ground-state cooling, Hz.

    Cooling works while S(omega_m) < g0^2 / Gamma_m with the thermalization
    rate Gamma_m = k_B T / (hbar Q), i.e. threshold = g0^2 hbar Q / (k_B T).
    """
    if not (g0 > 0.0 and quality_factor > 0.0 and temperature > 0.0):
        raise ValueError("g0, Q, and temperature must be positive")
    return g0**2 * CONSTANTS.hbar * quality_factor / (CONSTANTS.k_B * temperature)


@config.record
class BudgetLedger:
    name: str
    unit: str               # "kg" or "W"
    items: tuple            # ordered (label, value) pairs
    declared_total: float

    def __post_init__(self):
        if not self.items:
            raise ValueError(f"budget {self.name!r} has no line items")


@config.record
class BudgetCheck:
    computed_total: float
    declared_total: float
    delta: float


def budget_check(ledger):
    """Sum the line items and compare against the declared total."""
    computed = sum(value for _, value in ledger.items)
    return BudgetCheck(computed_total=computed,
                       declared_total=ledger.declared_total,
                       delta=computed - ledger.declared_total)


def load_orbit(path=None):
    """Load orbit elements plus the report target figures; returns (orbit,
    doc, source name)."""
    doc, source = config.load_document(path, "orbit_heo.yaml")
    orbit = config.build(
        OrbitElements, source,
        apogee_altitude=config.quantity(
            doc, source, {"apogee_altitude_m": 1.0, "apogee_altitude_km": 1e3}),
        perigee_altitude=config.quantity(
            doc, source, {"perigee_altitude_m": 1.0, "perigee_altitude_km": 1e3}),
        body_radius=config.quantity(
            doc, source, {"body_radius_m": 1.0, "body_radius_km": 1e3},
            default=EARTH_RADIUS),
        body_mu=config.number(doc, "body_mu_m3_s2", source, default=EARTH_MU),
        inclination_deg=config.number(doc, "inclination_deg", source, default=0.0),
    )
    return orbit, doc, source


def _ledger_from_mapping(name, doc, path):
    items_doc = config.section(doc, "items", path)
    items = tuple((str(label), config.number(items_doc, label, f"{path}.items"))
                  for label in items_doc)
    if not items:
        raise config.ConfigError(f"{path}.items: budget has no line items")
    unit = doc.get("unit")
    if unit not in ("kg", "W"):
        raise config.ConfigError(f"{path}.unit: expected 'kg' or 'W'")
    return BudgetLedger(name=name, unit=unit, items=items,
                        declared_total=config.number(doc, "declared_total", path))


def load_budgets(path=None):
    """Load budget ledgers keyed by name; returns (ledgers, source name)."""
    doc, source = config.load_document(path, "budgets.yaml")
    ledgers = {}
    for group in ("mass_budgets", "power_budgets"):
        for name, entry, path in config.entries(doc, group, source):
            ledgers[name] = _ledger_from_mapping(name, entry, path)
    return ledgers, source
