"""Dispersion relation of the rotating internal wave and the solved parameter set.

The dimensional relation c^2 (c^2 k^2 - f^2) = (c f_hat + g_tilde)^2 is
non-dimensionalised with X = c sqrt(k/g_tilde), giving the degree-four polynomial

    P(X) = X^4 - alpha X^2 - 2 beta X - 1,
    alpha = (f^2 + f_hat^2) / (g_tilde k),  beta = f_hat / sqrt(g_tilde k),

whose coefficients are finite at every latitude.  At f = 0 it factors as
(X^2 - beta X - 1)(X^2 + beta X + 1), so the Equator needs no separate path.
Above the wavenumber threshold (alpha < 1) P has exactly one positive and one
negative root at every latitude, each refined by safeguarded Newton on a
closed-form bracket: X+ in (1, sqrt(1 + alpha + 2 beta)] and X- in
[-sqrt(1 + alpha), 0).  The root x0 of X^2 - beta X - 1 on the root's side
of 0 has P(x0) = -(alpha - beta^2) x0^2 <= 0, since P is that product less
(alpha - beta^2) X^2, and is the root itself at the Equator.  Newton starts
one Halley step on from x0, taken from that closed form with no call for P,
and each Newton step makes one call for P and P' together: 1.3 calls per
root over the sweep_solve benchmark's sites, against 2.8 from x0.
nondimensionalize, the one wavenumber gate, returns P with the (site, strat, k)
it admitted; solve_branch and derive_parameters take P, so k is gated once.

From a solved phase speed the dependent parameters follow in closed form:

    m^2 = k^4 c^2 / (k^2 c^2 - f^2),   b = m a / k,   d = -f m a / (k^2 c),

with m a positive finite double, the amplitude gate a <= 1/m,
m^2 a^2 e^(-2 m s0) < 1 (a local diffeomorphism at s0) and the
thermocline/interface pressure constants completing the set.  Products, not
float powers: cheaper, and inf on overflow where a power raises OverflowError.
"""

import math
from dataclasses import dataclass

from .errors import InputError, NumericError
from .geo import Site, Stratification, min_wavenumber

# Default gauge: thermocline reference pressure [Pa]
P0_STANDARD = 101325.0

# Relative tolerance for root residuals and closed-form identity checks
IDENTITY_TOL = 1e-12

# Interface label tolerance [m]; the map's roundoff is about 1e-10 m in s
INTERFACE_TOL = 1e-9

_MAX_STEPS = 100  # iteration cap of the Newton loops


@dataclass
class NondimDispersion:
    """Non-dimensional dispersion polynomial P(X) = X^4 - alpha X^2 - 2 beta X - 1
    with the (site, strat, k) admitted by nondimensionalize, which alone makes one.

    alpha = 4 Omega^2 / (g_tilde k) and beta = f_hat / sqrt(g_tilde k) are
    positive and the same in both hemispheres, so the roots are too.

    Not frozen and built positionally, for the construction costs given under
    WaveParameters (of these 5 fields: 0.84 us frozen, 0.36 us plain by keyword,
    0.23 us plain positionally): each solve builds one.  Callers treat it as
    read-only; dataclasses.replace makes a variant.
    """

    alpha: float
    beta: float
    site: Site
    strat: Stratification
    k: float

    def value_and_slope(self, x):
        """(P(x), P'(x)), sharing x^2: one call per Newton step and per residual
        gate; accepts scalars or numpy arrays."""
        x2 = x * x
        return (((x2 - self.alpha) * x - 2.0 * self.beta) * x - 1.0,
                (4.0 * x2 - 2.0 * self.alpha) * x - 2.0 * self.beta)


@dataclass
class WaveParameters:
    """Complete solved parameter set of the explicit wave.

    Lengths in m, speeds in m/s, pressures in Pa.  The Coriolis pair and the
    Stratification the set was solved under are carried along, so that field
    evaluation and verification read every physical parameter from the set.

    Not frozen: every configured solve builds a fresh set, and a frozen
    dataclass's __init__ sets each field through object.__setattr__, which
    took 2.0 us per set of 15 against 0.30 us for this plain one (2-core Xeon
    host, CPython 3.11), where a configured solve takes about 10 us.  For the
    same reason derive_parameters passes the 15 fields positionally, in field
    order: built by keyword, a set took 0.65 us, the extra spent matching
    names.  So argument order alone maps each value to its field.  Callers
    treat a set as read-only and make a variant with dataclasses.replace, as
    the perturb_c control does.
    """

    a: float        # amplitude parameter
    k: float        # wavenumber
    L: float        # wavelength 2 pi / k
    c: float        # phase speed (signed; positive = eastward branch)
    m: float        # vertical decay rate
    b: float        # longitudinal orbit parameter, b = m a / k
    d: float        # latitudinal orbit parameter, d = -f m a / (k^2 c)
    s0: float       # thermocline label, the floor of the label domain
    s_plus: float   # upper interface label
    P0: float       # thermocline pressure constant
    P0_tilde: float  # pressure gauge constant
    beta0: float    # interface pressure constant
    f: float
    f_hat: float
    strat: Stratification


def nondimensionalize(site: Site, strat: Stratification,
                      k: float) -> NondimDispersion:
    """The one wavenumber gate: P of (site, strat, k), alpha = threshold / k and
    beta = f_hat / sqrt(g_tilde k), if min_wavenumber(site, strat) < k < 1e77
    (k^4 overflows a double above 1.16e77), and an InputError otherwise."""
    threshold = min_wavenumber(site, strat)
    if not k > threshold:
        raise InputError(f"wavenumber k={k!r} must exceed 4*Omega^2/g_tilde={threshold!r}")
    if not k < 1e77:
        raise InputError(f"wavenumber k={k!r} must be below 1e77, where k^4 overflows")
    return NondimDispersion(threshold / k, site.f_hat / math.sqrt(strat.g_tilde * k),
                            site, strat, k)


def root_brackets(nd: NondimDispersion):
    """Brackets (inner, outer) of X+ and of X-, with P(inner) < 0 < P(outer):
    (1, sqrt(1 + alpha + 2 beta)) and (0, -sqrt(1 + alpha)).

    P(1) = -alpha - 2 beta and P(0) = -1.  A root X >= 1 has X^4 = alpha X^2 +
    2 beta X + 1 <= (1 + alpha + 2 beta) X^2, and a root X = -Y, Y >= 1, has
    Y^4 <= (1 + alpha) Y^2, which bounds each root by its outer end."""
    return ((1.0, math.sqrt(1.0 + nd.alpha + 2.0 * nd.beta)),
            (0.0, -math.sqrt(1.0 + nd.alpha)))


def _newton(fun, lo, hi, x, tol):
    """Safeguarded Newton from ``x`` for a root of ``fun``, which returns the
    pair (value, slope), between ``lo``, where the value < 0, and ``hi``, where
    it is > 0; they may come in either order, and hi = inf leaves the bracket
    open above.

    One fun call per iteration narrows the bracket; a step out of it goes to
    its midpoint or, while it is open, doubles x - lo for the ``lo`` given
    (every iterate below the root joins the bracket as its lower end).
    Stops at |step| <= tol or 2 ulp(x), checked before the safeguard so that an
    iterate converged onto a bracket end is not bisected away, or at an
    unhalvable bracket; a NumericError after _MAX_STEPS iterations."""
    anchor = lo
    for _ in range(_MAX_STEPS):
        value, slope = fun(x)
        lo, hi = (x, hi) if value < 0.0 else (lo, x)
        step = value / slope if slope else math.inf
        if abs(step) <= tol or abs(step) <= 2.0 * math.ulp(x):
            return x - step
        mid = 0.5 * (lo + hi) if hi < math.inf else 2.0 * x - anchor
        if mid == lo or mid == hi:
            return x
        x = x - step if (x - step - lo) * (x - step - hi) < 0.0 else mid
    raise NumericError(f"Newton did not converge within {_MAX_STEPS} steps at x={x!r}")


def _refine_root(nd: NondimDispersion, inner: float, outer: float) -> float:
    """The root of P on one root_brackets bracket, by _newton from the root of
    the equatorial factor X^2 - beta X - 1 on the bracket's side of 0:
    x0 = (beta + sqrt(beta^2 + 4)) / 2 or -2 / (beta + sqrt(beta^2 + 4)).

    P = (X^2 - beta X - 1)(X^2 + beta X + 1) - (alpha - beta^2) X^2, and
    alpha - beta^2 = f^2 / (g_tilde k) >= 0, so P(x0) = -(alpha - beta^2) x0^2
    <= 0: x0 lies between the bracket's inner end and the root, and at the
    Equator it is the root itself.  Newton starts one Halley step on from x0,
    x0 - 2 P P' / (2 P'^2 - P P'') with P' = (4 x0^2 - 2 alpha) x0 - 2 beta
    and P'' = 12 x0^2 - 2 alpha, which needs no call for P; it starts at x0
    where P(x0) is not negative, where the denominator is not positive, or
    where the Halley point is not strictly inside the bracket."""
    beta, alpha = nd.beta, nd.alpha
    r = beta + math.sqrt(beta * beta + 4.0)
    x = 0.5 * r if outer > 0.0 else -2.0 / r
    x2 = x * x
    value = (beta * beta - alpha) * x2
    if value < 0.0:
        slope = (4.0 * x2 - 2.0 * alpha) * x - 2.0 * beta
        denom = 2.0 * slope * slope - value * (12.0 * x2 - 2.0 * alpha)
        if denom > 0.0:
            halley = x - 2.0 * value * slope / denom
            if (halley - inner) * (halley - outer) < 0.0:
                x = halley
    return _newton(nd.value_and_slope, inner, outer, x, 0.0)


def solve_branch(nd: NondimDispersion, branch: str):
    """(X, c) of one branch of nd, "positive" (X > 0) or "negative" (X < 0), with
    c = X sqrt(g_tilde / k), |P(X)| <= IDENTITY_TOL * max(1, X^4) and the dimensional
    identity rho0^2 c^2 (c^2 k^2 - f^2) = (rho0 c f_hat + g (rho_plus - rho0))^2
    met to the same relative tolerance, at nd's (site, strat, k).  Densities and
    k for which a side of the identity overflows a double are an InputError."""
    if branch not in ("positive", "negative"):
        raise InputError(f"unknown branch {branch!r}")
    site, strat, k = nd.site, nd.strat, nd.k
    sign = 1.0 if branch == "positive" else -1.0
    x = _refine_root(nd, *root_brackets(nd)[0 if branch == "positive" else 1])
    p = nd.value_and_slope(x)[0]
    if abs(p) > IDENTITY_TOL * max(1.0, x * x * (x * x)):
        raise NumericError(f"root refinement stalled at X={x!r} with |P(X)|={abs(p)!r}")
    if not sign * x > 0.0:
        raise NumericError(f"the {branch} root X={x!r} is on the wrong side of 0")
    c = x * math.sqrt(strat.g_tilde / k)
    rho_c = strat.rho0 * c  # products, not powers: a float power that overflows raises
    root = rho_c * site.f_hat + strat.g * (strat.rho_plus - strat.rho0)
    lhs, rhs = rho_c * rho_c * (c * k * (c * k) - site.f * site.f), root * root
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise InputError(f"the dispersion relation overflows a double at rho0="
                         f"{strat.rho0!r}, rho_plus={strat.rho_plus!r}, k={k!r}")
    if abs(lhs - rhs) > IDENTITY_TOL * max(abs(lhs), abs(rhs)):
        raise NumericError(
            f"dimensional dispersion identity violated at c={c!r}: |{lhs!r} - {rhs!r}|")
    return x, c


def pressure_coefficient_a(f, f_hat, k, c, a, b, d):
    """A, the coefficient of e^(-2 m s) in the wave pressure
    -rho0 (A e^(-2 m s) + B e^(-m s) cos(theta))."""
    return (-0.5 * (k * k) * (c * c) * (b * b) + 0.5 * f_hat * k * c * a * b
            - 0.5 * f * k * c * b * d)


def _interface_map(strat, A, m, s, beta0=0.0):
    """(F(s) - beta0, F'(s)): the RHS F of the thermocline-constant equation
    at the label s, with A = pressure_coefficient_a(...), from one exponential.

    In the reduced form F = (rho_plus - rho0) g s - rho0 A e^(-2 m s), which
    has no cancellation between rho0 g s and rho_plus g s.  F is strictly
    increasing in s whenever the amplitude gate holds, since
    F' = 2 m rho0 A e^(-2 m s) + (rho_plus - rho0) g reduces to
    rho0 g_tilde (1 - m^2 a^2 e^(-2 m s)).
    """
    wave = strat.rho0 * A * math.exp(-2.0 * m * s)
    flat = (strat.rho_plus - strat.rho0) * strat.g
    return flat * s - wave - beta0, 2.0 * m * wave + flat


def _invert_interface_map(strat, A, m, s0, map_s0, slope_s0, beta0):
    """Label s_plus > s0 with _interface_map(s_plus) = beta0 > map_s0, given
    the map's value map_s0 and slope slope_s0 at s0.

    The map's slope lies between slope_s0 and rho0 g_tilde, which bound
    s_plus - s0 = (beta0 - map_s0) / slope; rho_plus g s must not overflow at
    the lower one.  _newton runs from the upper bound, on the bracket from s0
    open above, to a step <= INTERFACE_TOL / 2.  A <= 0 makes the map convex as
    well as increasing, so Newton stays above s_plus: no call probes a lower end."""
    if not beta0 > map_s0:
        if not math.isfinite(map_s0):
            raise InputError(f"s0={s0!r} overflows the thermocline map "
                             f"(rho_plus - rho0) g s0 - rho0 A e^(-2 m s0)")
        raise InputError(f"beta0={beta0!r} must exceed P0 - P0_tilde={map_s0!r}")
    offset = beta0 - map_s0
    least = s0 + offset / ((strat.rho_plus - strat.rho0) * strat.g)
    if not math.isfinite(strat.rho_plus * strat.g * least):
        raise InputError(
            f"beta0 offset {offset!r} overflows rho_plus g s_plus (s_plus >= {least!r})")
    return _newton(lambda s: _interface_map(strat, A, m, s, beta0), s0, math.inf,
                   s0 + (offset / slope_s0 if slope_s0 > 0.0 else 1.0), INTERFACE_TOL / 2)


def orbit_parameters(f: float, k: float, a: float, c: float):
    """(m, b, d) of a phase speed c, by the closed forms above."""
    k2, c2 = k * k, c * c
    m2_denom = k2 * c2 - f * f
    if not m2_denom > 0:
        raise InputError(
            f"k^2 c^2 = {k2 * c2!r} must exceed f^2 = {f * f!r}; "
            "the vertical decay rate m diverges as k^2 c^2 -> f^2")
    m = math.sqrt(k2 * k2 * c2 / m2_denom)
    if not 0.0 < m < math.inf:  # k^4 underflows below k of about 1e-81
        raise InputError(f"the decay rate m={m!r} at k={k!r} is not positive and finite")
    return m, m * a / k, -f * m * a / (k2 * c)


def require_admissible_amplitude(m: float, a: float, s0: float):
    """The amplitude gate at the thermocline label s0: an InputError unless s0
    is positive and finite, and an InputError unless 0 <= a <= 1/m
    (the thermocline bound) and m^2 a^2 e^(-2 m s0) < 1 (a local
    diffeomorphism at s0).  derive_parameters applies it, for every command."""
    if not 0.0 < s0 < math.inf:
        raise InputError(f"thermocline label must be positive and finite, got {s0!r}")
    if a < 0:
        raise InputError(f"amplitude must be non-negative, got {a!r}")
    gate = m * a * math.exp(-m * s0)
    gate *= gate  # a product, not a power: a float power that overflows raises
    if a > 1.0 / m or not gate < 1.0:
        raise InputError(
            f"amplitude a={a!r} must satisfy a <= 1/m = {1.0 / m!r} and "
            f"m^2 a^2 e^(-2 m s0) < 1 (got {gate!r})")


def derive_parameters(nd: NondimDispersion, a: float, c: float, s0: float,
                      beta0_offset: float) -> WaveParameters:
    """Complete the parameter set for a phase speed c at nd's (site, strat, k).

    m, b, d follow from the closed forms; the amplitude gate
    (require_admissible_amplitude) is enforced before any map call; the pressure
    constants are fixed by the dynamic boundary condition at s0 (gauge
    P0_STANDARD) and the interface label s_plus solves the monotone
    thermocline map for beta0 = (P0 - P0_tilde) + beta0_offset, which must
    exceed P0 - P0_tilde (an InputError otherwise).  The map is monotone for
    the k that nondimensionalize admitted.
    """
    if not (math.isfinite(s0) and math.isfinite(beta0_offset)):
        raise InputError(f"s0={s0!r} and beta0_offset={beta0_offset!r} must both be finite")
    site, strat, k = nd.site, nd.strat, nd.k
    m, b, d = orbit_parameters(site.f, k, a, c)
    require_admissible_amplitude(m, a, s0)
    A = pressure_coefficient_a(site.f, site.f_hat, k, c, a, b, d)
    p0_minus_ptilde, slope_s0 = _interface_map(strat, A, m, s0)
    p0_tilde = P0_STANDARD - p0_minus_ptilde
    beta0 = p0_minus_ptilde + beta0_offset
    s_plus = _invert_interface_map(strat, A, m, s0, p0_minus_ptilde, slope_s0, beta0)
    return WaveParameters(a, k, 2.0 * math.pi / k, c, m, b, d, s0, s_plus, P0_STANDARD,
                          p0_tilde, beta0, site.f, site.f_hat, strat)
