"""Output oracles for the benchmark: the wave's closed forms, written again.

Nothing here imports the package under test.  Each oracle takes the
program's output (a parameter set, a field table, a verification report)
and the inputs it was made from, and returns the problems it found; no
problems means the output is accepted.  Tolerances are stated here and are
relative unless a unit is given.
"""

import json
import math

# Planetary constants and pressure gauge of the reference family (the
# program's defaults; the benchmark never overrides them)
G = 9.81
OMEGA = 7.29e-5
P0 = 101325.0

# closed-form identities and field values, relative to the scale named at
# each comparison
RTOL = 1e-12
# interface label s_plus [m]; the program bisects to a 1e-9 m bracket
INTERFACE_TOL_M = 1e-8

FIELD_COLUMNS = ("t", "q", "r", "s", "x", "y", "z",
                 "u", "v", "w", "p", "w1", "w2", "w3")
CHECK_NAMES = ("boundary", "euler", "incompressibility",
               "pressure_consistency", "vorticity")


def coriolis_pair(latitude_deg):
    """(f, f_hat) = 2 Omega (sin phi, cos phi)."""
    phi = math.radians(latitude_deg)
    return 2.0 * OMEGA * math.sin(phi), 2.0 * OMEGA * math.cos(phi)


def reduced_gravity(rho0, rho_plus):
    return G * (rho_plus - rho0) / rho0


def _close(problems, name, lhs, rhs, scale):
    if not abs(lhs - rhs) <= RTOL * scale:
        problems.append(f"{name}: {lhs!r} != {rhs!r} (scale {scale!r})")


def interface_map(p, scenario, s):
    """Thermocline-constant map F(s) = P0 - P0_tilde evaluated at label s."""
    f, f_hat = coriolis_pair(scenario["latitude_deg"])
    rho0, rho_plus = scenario["rho0"], scenario["rho_plus"]
    k, c, a, b, d, m = p.k, p.c, p.a, p.b, p.d, p.m
    e2 = math.exp(-2.0 * m * s)
    return ((rho_plus - rho0) * G * s
            + rho0 * e2 * 0.5 * k * c * b * (k * c * b - f_hat * a + f * d))


def check_parameters(p, scenario):
    """Identities a solved parameter set must satisfy for its scenario.

    ``p`` carries k, c, a, b, d, m, f, f_hat, s0, s_plus, P0, P0_tilde;
    ``scenario`` holds the RunConfig fields it was solved from.
    """
    problems = []
    f, f_hat = coriolis_pair(scenario["latitude_deg"])
    g_tilde = reduced_gravity(scenario["rho0"], scenario["rho_plus"])
    k, c, a, b, d, m = p.k, p.c, p.a, p.b, p.d, p.m
    _close(problems, "k", k, scenario["wavenumber"], k)
    _close(problems, "a", a, scenario["amplitude"], a)
    _close(problems, "s0", p.s0, scenario["s0"], p.s0)
    _close(problems, "f", p.f, f, 2.0 * OMEGA)
    _close(problems, "f_hat", p.f_hat, f_hat, 2.0 * OMEGA)
    if f == 0.0:
        # k c^2 - 2 Omega c - g_tilde = 0
        _close(problems, "equatorial dispersion", k * c * c - 2.0 * OMEGA * c,
               g_tilde, max(k * c * c, 2.0 * OMEGA * abs(c), g_tilde))
    else:
        lhs = c * c * (c * c * k * k - f * f)
        rhs = (c * f_hat + g_tilde) ** 2
        _close(problems, "dispersion c^2(c^2k^2-f^2)=(c f_hat+g_tilde)^2",
               lhs, rhs, max(abs(lhs), abs(rhs)))
    m2_lhs = m * m * (k * k * c * c - f * f)
    m2_rhs = k**4 * c * c
    _close(problems, "m^2 (k^2c^2 - f^2) = k^4 c^2", m2_lhs, m2_rhs,
           max(abs(m2_lhs), m2_rhs))
    _close(problems, "m a = k b", m * a, k * b, max(abs(m * a), abs(k * b)))
    _close(problems, "k c d + b f = 0", k * c * d, -b * f,
           max(abs(k * c * d), abs(b * f)))
    want_sign = -1.0 if scenario["branch"] == "negative" else 1.0
    if not c * want_sign > 0.0:
        problems.append(f"branch {scenario['branch']!r} has phase speed {c!r}")
    gate = (m * a * math.exp(-m * p.s0)) ** 2
    if not gate < 1.0:
        problems.append(f"amplitude gate m^2 a^2 e^(-2 m s0) = {gate!r} >= 1")
    if not p.s_plus > p.s0:
        problems.append(f"s_plus {p.s_plus!r} <= s0 {p.s0!r}")
        return problems
    _close(problems, "P0", p.P0, P0, P0)
    _close(problems, "P0_tilde", p.P0_tilde,
           P0 - interface_map(p, scenario, p.s0), P0)
    # s_plus solves F(s_plus) = F(s0) + beta0_offset; measure the miss in
    # label units through F'(s_plus)
    beta0 = interface_map(p, scenario, p.s0) + scenario["beta0_offset"]
    h = 1e-3
    slope = (interface_map(p, scenario, p.s_plus + h)
             - interface_map(p, scenario, p.s_plus - h)) / (2.0 * h)
    miss = (interface_map(p, scenario, p.s_plus) - beta0) / slope
    if not abs(miss) <= INTERFACE_TOL_M:
        problems.append(f"interface label s_plus={p.s_plus!r} misses "
                        f"beta0 by {miss!r} m")
    return problems


def field_row(p, scenario, q, r, s, t):
    """The 14 field columns at label (q, r, s) and time t."""
    f, f_hat = coriolis_pair(scenario["latitude_deg"])
    rho0 = scenario["rho0"]
    k, c, a, b, d, m = p.k, p.c, p.a, p.b, p.d, p.m
    theta = k * (q - c * t)
    e = math.exp(-m * s)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    kc = k * c
    p0_tilde = P0 - interface_map(p, scenario, p.s0)
    pressure = (p0_tilde - rho0 * G * s
                + rho0 * e * e * 0.5 * kc * b * (kc * b - f_hat * a + f * d)
                - rho0 * e * cos_t * (c * a * f_hat - c * d * f
                                      - k * c * c * b - a * G))
    denom = 1.0 - (m * a * e) ** 2
    return (
        t, q, r, s,
        q - b * e * sin_t,
        r - d * e * cos_t,
        s - a * e * cos_t,
        kc * b * e * cos_t,
        -kc * d * e * sin_t,
        -kc * a * e * sin_t,
        pressure,
        m * m * a * f * e * sin_t / (k * denom),
        c * a * e * (m * a * (m * m + k * k) * e
                     - (m * m - k * k) * cos_t) / denom,
        f * m * a * e * (cos_t + m * a * e) / denom,
    )


def lattice(start, stop, n):
    """n evenly spaced points from start to stop inclusive (numpy.linspace)."""
    step = (stop - start) / (n - 1)
    return [start + i * step for i in range(n - 1)] + [stop]


def parse_csv_table(text):
    """(header, rows) of a CSV table; rows stay unparsed strings."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return tuple(lines[0].split(",")), lines[1:]


def check_field_tables(csv_text, json_text, p, scenario, t, nq, ns,
                       row_indices):
    """CSV and JSON exports of one (q, s) lattice at time t.

    Both must carry the 14 columns and nq * ns rows; the rows listed in
    ``row_indices`` must match the closed forms in every column within
    RTOL of the column's largest magnitude among those rows, and must be
    equal across the two formats.
    """
    problems = []
    n_rows = nq * ns
    header, csv_rows = parse_csv_table(csv_text)
    if header != FIELD_COLUMNS:
        problems.append(f"csv header {header!r}")
    if len(csv_rows) != n_rows:
        problems.append(f"csv has {len(csv_rows)} rows, want {n_rows}")
    try:
        table = json.loads(json_text)
    except ValueError as exc:
        return problems + [f"json does not parse: {exc}"]
    if tuple(table) != FIELD_COLUMNS:
        problems.append(f"json columns {tuple(table)!r}")
    lengths = {len(v) for v in table.values()}
    if lengths != {n_rows}:
        problems.append(f"json column lengths {sorted(lengths)!r}, want {n_rows}")
    if problems:
        return problems
    qs = lattice(0.0, p.L, nq)
    ss = lattice(p.s0, p.s_plus, ns)
    expected = {}
    for idx in row_indices:
        j, i = divmod(idx, nq)
        expected[idx] = field_row(p, scenario, qs[i], 0.0, ss[j], t)
    scales = [max(abs(row[col]) for row in expected.values())
              for col in range(len(FIELD_COLUMNS))]
    # the lattice labels are numpy.linspace values; allow their own rounding
    scales[1] = max(scales[1], p.L)
    scales[3] = max(scales[3], p.s_plus)
    for idx, want in expected.items():
        csv_row = tuple(float(v) for v in csv_rows[idx].split(","))
        json_row = tuple(table[name][idx] for name in FIELD_COLUMNS)
        if csv_row != json_row:
            problems.append(f"row {idx}: csv {csv_row!r} != json {json_row!r}")
        for col, name in enumerate(FIELD_COLUMNS):
            if not abs(csv_row[col] - want[col]) <= RTOL * scales[col]:
                problems.append(f"row {idx} column {name}: "
                                f"{csv_row[col]!r} != {want[col]!r}")
    return problems


def expected_samples(n_theta=16, n_s=16, n_time=5, n_random=50):
    """n_samples of each check for the verifier's lattice-plus-random grids."""
    grid = n_theta * n_s * n_time + n_random
    return {
        "boundary": n_theta * n_time + n_random,
        "euler": grid,
        # distinct labels of the grid, then the divergence samples
        "incompressibility": n_theta * n_s + n_random + n_random,
        "pressure_consistency": grid,
        "vorticity": grid + n_random,
    }


def check_verify_report(exit_code, text, seed, perturb_c, expect_pass):
    """A ``verify --out`` JSON report and the command's exit code.

    Returns (outcome, content) problem lists.  ``outcome`` holds a normal op
    that did not pass: the verification run failed, but its report may still
    be a true account of its residuals.  ``content`` holds everything that
    makes the output wrong: a malformed or inconsistent report, or a control
    op (perturbed phase speed) that passed.
    """
    outcome, content = [], []
    want_exit = 0 if expect_pass else 1
    if exit_code not in (0, 1):
        return [f"exit code {exit_code!r}, want {want_exit}"], []
    try:
        report = json.loads(text)
    except ValueError as exc:
        return outcome, [f"report does not parse: {exc}"]
    if exit_code != want_exit or report.get("passed") is not expect_pass:
        problem = (f"exit code {exit_code!r} passed={report.get('passed')!r}, "
                   f"want {want_exit} passed={expect_pass}")
        (outcome if expect_pass else content).append(problem)
    if report.get("passed") is not (exit_code == 0):
        content.append(f"passed={report.get('passed')!r} with exit code {exit_code!r}")
    config = report.get("config", {})
    if config.get("seed") != seed or config.get("perturb_c") != perturb_c:
        content.append(f"report config seed={config.get('seed')!r} "
                       f"perturb_c={config.get('perturb_c')!r}")
    checks = report.get("checks", [])
    names = tuple(c.get("check_name") for c in checks)
    if names != CHECK_NAMES:
        content.append(f"check names {names!r}")
        return outcome, content
    samples = expected_samples()
    for check in checks:
        name = check["check_name"]
        if check["n_samples"] != samples[name]:
            content.append(f"{name}: n_samples {check['n_samples']!r}, "
                           f"want {samples[name]}")
        within = check["max_residual"] <= check["tolerance"]
        if check["passed"] is not within:
            content.append(f"{name}: passed={check['passed']!r} but "
                           f"residual {check['max_residual']!r} vs "
                           f"tolerance {check['tolerance']!r}")
        elif not within:
            outcome.append(f"{name} failed: residual {check['max_residual']!r} "
                           f"> tolerance {check['tolerance']!r}")
    if report.get("passed") is not all(c["passed"] for c in checks):
        content.append("report passed flag disagrees with its checks")
    if not expect_pass:
        outcome = []   # failing checks are what a control op must show
    return outcome, content
