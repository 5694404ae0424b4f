"""Independent coherent-expansion-time oracle and output checkers.

Nothing here calls the program's solver.  The oracle takes the decoherence
coefficients (Lambda, the constant rate F_c and the saturation separation b)
from the public coefficient functions of `macrocoh` and solves 4 Gamma(tau) = 1
on its own:

    F(dx)     = Lambda * min(dx, b)^2 + F_c,   dx = 2 sigma(t),
    sigma(t)  = sqrt(x0^2 + v^2 t^2),
    4 Gamma   = a tau^3 + c tau                  for tau <= t_b,
    4 Gamma   = 4 Gamma(t_b) + 4 F(b) (tau - t_b)  for tau >  t_b,

with a = 16/3 Lambda v^2, c = 16 Lambda x0^2 + 4 F_c and t_b the time at which
2 sigma reaches b.  The cubic is solved by Newton's method started from an
upper bound of the root, which converges monotonically from above; the
program uses Cardano's formula or bracketing plus bisection instead.

The checkers parse the CSVs the CLI writes and return a list of problems
(empty when the output is correct), plus the number of cells that failed.
"""

import csv
import io
import math
from dataclasses import dataclass

TAU_CAP = 1e9            # s; the program reports CET beyond this as infinite
CED_REL_TOL = 1e-9       # relative agreement required of every finite CED
SCALING_REL_TOL = 1e-11  # relative spread allowed in Lambda / r^n over a grid
# The program's bracket doubles from 1e-12 s and gives up past TAU_CAP, so
# every root above 1e-12 * 2^69 s is reported as infinite: a known fault.
FAULT_TAU_LO = 1e-12 * 2.0**69

MODEL_FAMILIES = {"csl": "csl", "csl_adler": "csl", "qg": "qg", "k": "k",
                  "k_sat": "k_sat", "dp": "dp"}


def cubic_root(a, c):
    """Positive root of a tau^3 + c tau = 1 for a, c >= 0, not both zero."""
    if a == 0.0:
        return 1.0 / c
    tau = a ** (-1.0 / 3.0)
    if c > 0.0:
        tau = min(tau, 1.0 / c)
    # f is increasing and convex on tau > 0, so Newton from above decreases
    # monotonically to the root; stop once it no longer decreases.
    for _ in range(200):
        f = a * tau**3 + c * tau - 1.0
        step = f / (3.0 * a * tau * tau + c)
        nxt = tau - step
        if not nxt < tau:
            break
        tau = nxt
    return tau


def cet(lam, f_c, x0, v, b=math.inf):
    """CET (s) of the law Lambda * min(dx, b)^2 + F_c; inf if it never decays."""
    if lam == 0.0 and f_c == 0.0:
        return math.inf
    a = 16.0 / 3.0 * lam * v * v
    c = 16.0 * lam * x0 * x0 + 4.0 * f_c
    if math.isinf(b):
        return cubic_root(a, c)
    saturated_rate = 4.0 * (lam * b * b + f_c)
    if 0.5 * b <= x0:
        # 2 sigma >= 2 x0 >= b from the start: a constant rate throughout
        return 1.0 / saturated_rate
    t_b = math.sqrt((0.5 * b) ** 2 - x0 * x0) / v
    g_b = a * t_b**3 + c * t_b
    if g_b >= 1.0:
        return cubic_root(a, c)
    return t_b + (1.0 - g_b) / saturated_rate


def four_gamma(tau, lam, f_c, x0, v):
    """4 Gamma(tau) of a purely quadratic law plus a constant rate."""
    return 16.0 * lam * (x0 * x0 * tau + v * v * tau**3 / 3.0) + 4.0 * f_c * tau


@dataclass(frozen=True)
class CellLaw:
    lam: float
    f_c: float = 0.0
    b: float = math.inf


def cell_laws(scenario, radius, model_names):
    """(mass, x0, v, {column: CellLaw}, scaling) at one radius, via the
    public API; `scaling` holds the channel coefficients whose radius power
    laws are checked over the grid."""
    from macrocoh import collapse, decoherence, scenario as scen

    row = scenario.with_radius(radius)
    particle = row.particle
    mass, x0, v = scen.scenario_kinematics(row)
    rates = decoherence.qm_channel_rates(row)
    laws = {"qm": CellLaw(rates.total_lambda, rates.gas_rate)}
    for name in model_names:
        family = MODEL_FAMILIES[name]
        if family == "csl":
            params = collapse.CSL_ADLER if name == "csl_adler" else collapse.CSL_DEFAULT
            laws[name] = CellLaw(collapse.csl_lambda(particle, params))
        elif family == "qg":
            laws[name] = CellLaw(collapse.qg_lambda(mass))
        elif family == "k":
            laws[name] = CellLaw(collapse.k_lambda(particle))
        elif family == "k_sat":
            laws[name] = CellLaw(collapse.k_lambda(particle),
                                 b=collapse.k_coherence_cell(particle))
        elif family == "dp":
            laws[name] = CellLaw(collapse.dp_lambda(particle), b=radius)
    scaling = {
        "gas": (rates.gas_rate, 2),
        "bb_scatter": (rates.lambda_bb_scatter, 6),
        "bb_absorb": (rates.lambda_bb_absorb, 3),
        "bb_emit": (rates.lambda_bb_emit, 3),
        "qg": (collapse.qg_lambda(mass), 3),
        "dp": (collapse.dp_lambda(particle), 3),
    }
    return mass, x0, v, laws, scaling


@dataclass
class SweepExpectation:
    """Oracle values for one testability run: per radius, per column."""

    model_names: list
    radii: list
    masses: list
    ced: dict            # column -> list of oracle CED (m), inf past TAU_CAP
    cet: dict            # column -> list of oracle CET (s)
    problems: list       # failed scaling-law checks


def expect_sweep(scenario, radii, model_names):
    columns = ["qm"] + list(model_names)
    ced = {col: [] for col in columns}
    cets = {col: [] for col in columns}
    masses = []
    scaled = {}
    for radius in radii:
        mass, x0, v, laws, scaling = cell_laws(scenario, radius, model_names)
        masses.append(mass)
        for col in columns:
            law = laws[col]
            tau = cet(law.lam, law.f_c, x0, v, law.b)
            cets[col].append(tau)
            ced[col].append(math.inf if tau > TAU_CAP else v * tau)
        for key, (value, power) in scaling.items():
            scaled.setdefault(key, []).append(value / radius**power)
    problems = []
    for key, values in scaled.items():
        lo, hi = min(values), max(values)
        if hi > 0.0 and (hi - lo) > SCALING_REL_TOL * hi:
            problems.append(f"scaling law {key}: coefficient / r^n spreads "
                            f"from {lo:.17g} to {hi:.17g} over the grid")
    return SweepExpectation(list(model_names), list(radii), masses, ced, cets,
                            problems)


def _rel_close(x, y, tol):
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= tol * max(abs(x), abs(y))


def check_sweep_csv(text, intervals_text, expect):
    """Compare a sweep CSV and its intervals CSV with the oracle.

    Returns (problems, cells, failed, faults): `problems` lists anything that
    makes the output wrong beyond the known bracketing fault; `cells` counts
    data cells (radius x column, QM included); `failed` counts cells that
    disagree with the oracle; `faults` lists the failed cells that match the
    known fault (reported inf while the oracle CET lies in
    (FAULT_TAU_LO, TAU_CAP]).
    """
    problems = list(expect.problems)
    names = expect.model_names
    columns = ["qm"] + names
    header = (["radius_m", "mass_kg", "ced_qm_m"]
              + [f"ced_{n}_m" for n in names]
              + [f"violated_{n}" for n in names])
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        return [f"sweep CSV header {rows[0] if rows else None} != {header}"], 0, 0, []
    data = rows[1:]
    if len(data) != len(expect.radii):
        return [f"sweep CSV has {len(data)} rows, expected {len(expect.radii)}"], 0, 0, []
    cells = 0
    failed = 0
    faults = []
    flags = {n: [] for n in names}
    for i, row in enumerate(data):
        if len(row) != len(header):
            problems.append(f"row {i}: {len(row)} fields")
            continue
        try:
            radius = float(row[0])
            mass = float(row[1])
            ceds = [float(x) for x in row[2:3 + len(names)]]
        except ValueError as exc:
            problems.append(f"row {i}: unparsable number ({exc})")
            continue
        if not _rel_close(radius, expect.radii[i], 1e-12):
            problems.append(f"row {i}: radius {radius!r} != grid {expect.radii[i]!r}")
        if not _rel_close(mass, expect.masses[i], 1e-12):
            problems.append(f"row {i}: mass {mass!r} != {expect.masses[i]!r}")
        for col, value in zip(columns, ceds):
            cells += 1
            want = expect.ced[col][i]
            if _rel_close(value, want, CED_REL_TOL):
                continue
            failed += 1
            tau = expect.cet[col][i]
            if (math.isinf(value) and value > 0 and col != "qm"
                    and FAULT_TAU_LO < tau <= TAU_CAP):
                faults.append((col, i, radius, tau))
            else:
                problems.append(f"row {i} r={radius!r}: ced_{col} {value!r} "
                                f"!= oracle {want!r}")
        for j, name in enumerate(names):
            flag_text = row[3 + len(names) + j]
            if flag_text not in ("true", "false"):
                problems.append(f"row {i}: violated_{name} = {flag_text!r}")
                continue
            flag = flag_text == "true"
            flags[name].append(flag)
            if flag != (ceds[1 + j] < ceds[0]):
                problems.append(f"row {i}: violated_{name}={flag_text} but "
                                f"ced_{name}={ceds[1 + j]!r}, ced_qm={ceds[0]!r}")
    if problems:
        return problems, cells, failed, faults
    problems += check_intervals(intervals_text, names, flags, [row[0] for row in data])
    return problems, cells, failed, faults


def check_intervals(text, names, flags, radius_text):
    """Each interval must be a maximal run of violated flags, in grid order,
    with the radii of its first and last row as endpoints."""
    want = []
    for name in names:
        start = None
        for i, flag in enumerate(flags[name] + [False]):
            if flag and start is None:
                start = i
            elif not flag and start is not None:
                want.append((name, float(radius_text[start]), float(radius_text[i - 1])))
                start = None
    rows = list(csv.reader(io.StringIO(text)))
    try:
        got = [(row[0], float(row[1]), float(row[2])) for row in rows[1:]]
    except (IndexError, ValueError) as exc:
        return [f"intervals CSV unreadable: {exc}"]
    if rows[:1] != [["model", "r_lo_m", "r_hi_m"]] or got != want:
        return [f"intervals {rows} are not the maximal violated runs {want}"]
    return []


# ------------------------------------------------------------------ reports


def data_cells(text):
    """Number of fields in the data rows of a CSV (header excluded)."""
    return sum(len(row) for row in list(csv.reader(io.StringIO(text)))[1:])


def read_table(text, key="quantity"):
    rows = list(csv.DictReader(io.StringIO(text)))
    return {row[key]: row for row in rows}, rows


def check_decoherence_report(text):
    """4 Gamma(cet) = 1 from the report's own values, and visibility 1/e."""
    table, rows = read_table(text)
    problems = []
    try:
        val = {name: float(row["value"]) for name, row in table.items()}
        lam = val["lambda_total"]
        parts = val["lambda_bb_scatter"] + val["lambda_bb_absorb"] + val["lambda_bb_emit"]
        if not _rel_close(lam, parts, 1e-14):
            problems.append(f"lambda_total {lam!r} != sum of channels {parts!r}")
        tau = val["cet"]
        x0, v = val["ground_state_width"], val["expansion_velocity"]
        g4 = four_gamma(tau, lam, val["gas_rate"], x0, v)
        if not abs(g4 - 1.0) <= 1e-9:
            problems.append(f"4 Gamma(cet) = {g4!r}, not 1")
        tau_o = cet(lam, val["gas_rate"], x0, v)
        if not _rel_close(tau, tau_o, CED_REL_TOL):
            problems.append(f"cet {tau!r} != oracle {tau_o!r}")
        if not _rel_close(val["ced"], v * tau, 1e-14):
            problems.append("ced != expansion_velocity * cet")
        if not _rel_close(val["visibility_at_cet"], math.exp(-1.0), 1e-9):
            problems.append(f"visibility {val['visibility_at_cet']!r} != 1/e")
        if not _rel_close(val["amplitude_factor_at_cet"], math.exp(-0.5), 1e-9):
            problems.append("amplitude factor != exp(-1/2)")
    except (KeyError, ValueError) as exc:
        problems.append(f"decoherence report unreadable: {exc}")
    return problems


def check_mission_report(text, orbit_doc, budgets_doc):
    """Kepler period from the orbit YAML; budget totals as ledger sums."""
    table, rows = read_table(text)
    problems = []
    try:
        radius = orbit_doc["body_radius_km"] * 1e3
        mu = orbit_doc["body_mu_m3_s2"]
        a = radius + 0.5e3 * (orbit_doc["apogee_altitude_km"]
                              + orbit_doc["perigee_altitude_km"])
        period_days = 2.0 * math.pi * math.sqrt(a**3 / mu) / 86400.0
        got = float(table["orbital_period_days"]["computed"])
        if not _rel_close(got, period_days, 1e-12):
            problems.append(f"period {got!r} d != Kepler {period_days!r} d")
        for group in ("mass_budgets", "power_budgets"):
            for name, ledger in budgets_doc.get(group, {}).items():
                row = table[f"budget_{name}_total"]
                total = sum(float(x) for x in ledger["items"].values())
                if not _rel_close(float(row["computed"]), total, 1e-12):
                    problems.append(f"budget {name}: {row['computed']} != {total!r}")
                if not _rel_close(float(row["target"]),
                                  float(ledger["declared_total"]), 1e-12):
                    problems.append(f"budget {name}: declared total misreported")
    except (KeyError, ValueError) as exc:
        problems.append(f"mission report unreadable: {exc}")
    return problems


BOLTZMANN = 1.380649e-23  # J/K, exact in the SI


def check_vacuum_report(text, materials_doc):
    """Ideal gas: pressure = n k_B T at the materials file's temperature."""
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    temperature = float(materials_doc["temperature_K"])
    if [row["material"] for row in rows] != list(materials_doc["summary_table"]):
        problems.append("vacuum report materials differ from the summary table")
    for row in rows:
        try:
            pressure = float(row["pressure_mbar"]) * 100.0
            density = float(row["number_density_per_m3"])
        except (KeyError, ValueError) as exc:
            problems.append(f"vacuum report unreadable: {exc}")
            continue
        if not _rel_close(pressure, density * BOLTZMANN * temperature, 1e-12):
            problems.append(f"{row['material']}: P {pressure!r} Pa != n k_B T")
    return problems
