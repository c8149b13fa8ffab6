"""Dispersion relation of the rotating internal wave and the solved parameter set.

The dimensional relation c^2 (c^2 k^2 - f^2) = (c f_hat + g_tilde)^2 is
non-dimensionalised with X = c sqrt(k/g_tilde), eps = f / sqrt(g_tilde k),
F = f_hat / f, giving the degree-four polynomial

    P(X) = X^4 - alpha X^2 - 2 beta X - 1,  alpha = eps^2 + (eps F)^2,  beta = eps F.

alpha and beta stay finite where F diverges, towards the Equator.  In the
mid-latitude regime P has two real roots, refined by safeguarded Newton on
sign-change brackets: one above 1, and one in (-1, 0) if P(-1) = 2 beta - alpha
> 0, at or below -1 otherwise (high latitudes, long waves).

From a solved phase speed the dependent parameters follow in closed form:

    m^2 = k^4 c^2 / (k^2 c^2 - f^2),   b = m a / k,   d = -f m a / (k^2 c),

with the local-diffeomorphism gate m^2 a^2 e^(-2 m s0) < 1 and the
thermocline/interface pressure constants completing the set.
"""

import math
from dataclasses import dataclass, field

from .errors import (
    AmplitudeBoundError,
    BracketError,
    ConvergenceError,
    EquatorialBranchError,
    EvanescentRegimeError,
    InputError,
    InterfaceOrderingError,
    RegimeError,
    WavenumberError,
)
from .geo import PhysicalConstants, Site, Stratification, min_wavenumber

# Default gauge: thermocline reference pressure [Pa]
P0_STANDARD = 101325.0

# Relative tolerance for root residuals and closed-form identity checks
IDENTITY_TOL = 1e-12

# Interface label tolerance [m]; the map's roundoff is about 1e-10 m in s
INTERFACE_TOL = 1e-9

_MAX_BRACKET_EXPANSIONS = 10
_MAX_STEPS = 100  # iteration cap of the Newton loops


@dataclass(frozen=True)
class NondimDispersion:
    """Non-dimensional dispersion polynomial P(X) for one (site, strat, k).

    epsilon = f / sqrt(g_tilde k) and F = f_hat / f; both flip sign in the
    Southern Hemisphere but the product epsilon*F = f_hat / sqrt(g_tilde k)
    stays positive, so the polynomial (and its roots) are hemisphere
    symmetric.  ``coeffs`` holds (X^4, X^3, X^2, X, 1) coefficients.
    """

    epsilon: float
    F: float
    coeffs: tuple = field(init=False)

    def __post_init__(self):
        beta = self.epsilon * self.F
        alpha = self.epsilon**2 + beta**2
        object.__setattr__(self, "coeffs", (1.0, 0.0, -alpha, -2.0 * beta, -1.0))

    def evaluate(self, x):
        """P(x); accepts scalars or numpy arrays."""
        c4, c3, c2, c1, c0 = self.coeffs
        return (((c4 * x + c3) * x + c2) * x + c1) * x + c0

    def derivative(self, x):
        """P'(x)."""
        c4, c3, c2, c1, _ = self.coeffs
        return ((4.0 * c4 * x + 3.0 * c3) * x + 2.0 * c2) * x + c1

    @property
    def discriminant(self) -> float:
        """128 alpha^3 - 1728 beta^2, the discriminant of P'; < 0 in the mid-latitude regime."""
        alpha, beta = -self.coeffs[2], -0.5 * self.coeffs[3]
        return 128.0 * alpha**3 - 1728.0 * beta**2


@dataclass(frozen=True)
class DispersionRoots:
    """Both real roots of P and the corresponding dimensional phase speeds."""

    x_plus: float
    x_minus: float
    c_plus: float
    c_minus: float


@dataclass(frozen=True)
class WaveParameters:
    """Complete solved parameter set of the explicit wave.

    Lengths in m, speeds in m/s, pressures in Pa.  The Coriolis parameters
    the set was solved under are carried along (f, f_hat) so that field
    evaluation does not need the Site again.
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


def nondimensionalize(site: Site, strat: Stratification,
                      k: float) -> NondimDispersion:
    """Map (site, strat, k) to the non-dimensional polynomial coefficients.

    Requires k above the 4 Omega^2 / g_tilde threshold and f != 0; on the
    Equator F is undefined and callers are directed to solve_equatorial.
    """
    if site.f == 0.0:
        raise EquatorialBranchError(
            "F = f_hat/f is undefined at f = 0; use solve_equatorial")
    _require_above_threshold(site, strat, k)
    F = site.f_hat / site.f
    if not math.isfinite(F):
        raise EquatorialBranchError(f"F = f_hat/f overflows at f={site.f!r}; solve at "
                                    "latitude 0 (solve_equatorial)")
    return NondimDispersion(epsilon=site.f / math.sqrt(strat.g_tilde * k), F=F)


def root_brackets(nd: NondimDispersion):
    """Verified sign-change brackets (positive, negative) for the two real roots of P.

    They start as (1, 1 + beta) and, by the sign of P(-1) = 2 beta - alpha, as
    (-1, -1 + beta) or (-1 - beta, -1); the end away from +-1 moves outwards
    (up to 10 doublings, never past 0, where P = -1) until P changes sign.
    Requires the mid-latitude regime discriminant gate.
    """
    if not nd.discriminant < 0.0:
        raise RegimeError(
            "discriminant of P' is non-negative "
            f"({nd.discriminant!r}); the two-real-root analysis only applies "
            "in the mid-latitude regime")
    w = nd.epsilon * nd.F  # beta, positive on both hemispheres
    p_minus_one = nd.evaluate(-1.0)
    start = -1.0 + w if p_minus_one > 0.0 else -1.0 - w
    return (_confirm_bracket(nd, 1.0, 1.0 + w),
            _confirm_bracket(nd, -1.0, start, p_minus_one, limit=0.0))


def _confirm_bracket(nd, end, start, p_end=None, limit=math.inf):
    """Sorted bracket of a sign change of P (a zero at an end counts) between
    the fixed ``end`` and a point that starts at ``start`` and doubles its
    distance from ``end`` at each expansion, never above ``limit``."""
    p_end = nd.evaluate(end) if p_end is None else p_end
    other = start if start < limit else limit
    for _ in range(_MAX_BRACKET_EXPANSIONS):
        if p_end * nd.evaluate(other) <= 0.0:
            return (end, other) if end < other else (other, end)
        other = end + (other - end) * 2.0
        other = other if other < limit else limit
    raise BracketError(
        f"no sign change of P found starting from ({end}, {start}) "
        f"after {_MAX_BRACKET_EXPANSIONS} expansions")


def _bisect_newton(nd, lo, hi, tol):
    """Safeguarded Newton for the root of P in the sign-change bracket (lo, hi).

    From hi, one P and one P' per iteration; a step out of the bracket goes to
    its midpoint.  Stops at a step <= 2 ulp or an unhalvable bracket, within
    _MAX_STEPS iterations, and then requires |P(X)| <= tol * max(1, X^4)."""
    x, p = hi, nd.evaluate(hi)
    lo_negative = p > 0.0
    for _ in range(_MAX_STEPS):
        slope = nd.derivative(x)
        step = p / slope if slope else math.inf
        if abs(step) <= 2.0 * math.ulp(x):  # before the safeguard bisects away
            x -= step
            p = nd.evaluate(x)
            break
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        x = x - step if lo < x - step < hi else mid
        p = nd.evaluate(x)
        lo, hi = (x, hi) if (p < 0.0) == lo_negative else (lo, x)
    if abs(p) > tol * max(1.0, x**4):
        raise ConvergenceError(
            f"root refinement stalled at X={x!r} with |P(X)|={abs(p)!r}")
    return x


def solve_dispersion(nd: NondimDispersion, site: Site, strat: Stratification,
                     k: float, tol: float = IDENTITY_TOL) -> DispersionRoots:
    """Both real roots of P with their dimensional phase speeds.

    Each root satisfies |P(X)| <= tol * max(1, |X|^4) and the returned
    speeds satisfy the dimensional pressure-continuity identity
    rho0^2 c^2 (c^2 k^2 - f^2) = (rho0 c f_hat + g (rho_plus - rho0))^2
    to the same relative tolerance.
    """
    scale = math.sqrt(strat.g_tilde / k)
    if nd.epsilon == 0.0:
        # rotationless degenerate limit: P(X) = X^4 - 1, exact roots +-1;
        # the polynomial did not come from the (rotating) site, so the
        # dimensional identity check below does not apply
        return DispersionRoots(x_plus=1.0, x_minus=-1.0,
                               c_plus=scale, c_minus=-scale)
    (lo_p, hi_p), (lo_m, hi_m) = root_brackets(nd)
    x_plus = _bisect_newton(nd, lo_p, hi_p, tol)
    x_minus = _bisect_newton(nd, lo_m, hi_m, tol)
    if not x_minus < 0.0 < x_plus:
        raise ConvergenceError(f"roots {x_minus!r}, {x_plus!r} are not on either side of 0")
    roots = DispersionRoots(x_plus=x_plus, x_minus=x_minus,
                            c_plus=x_plus * scale, c_minus=x_minus * scale)
    for c in (roots.c_plus, roots.c_minus):
        lhs = strat.rho0**2 * c**2 * (c**2 * k**2 - site.f**2)
        rhs = (strat.rho0 * c * site.f_hat
               + strat.g * (strat.rho_plus - strat.rho0)) ** 2
        if abs(lhs - rhs) > tol * max(abs(lhs), abs(rhs)):
            raise ConvergenceError(
                f"dimensional dispersion identity violated at c={c!r}: "
                f"|{lhs!r} - {rhs!r}|")
    return roots


def solve_equatorial(constants: PhysicalConstants, strat: Stratification,
                     k: float):
    """Exact phase speeds on the Equator: k c^2 - 2 Omega c - g_tilde = 0.

    Returns (c_plus, c_minus) = (Omega +- sqrt(Omega^2 + k g_tilde)) / k.
    """
    if not k > 0:
        raise WavenumberError(f"wavenumber must be positive, got {k!r}")
    disc = math.sqrt(constants.Omega**2 + k * strat.g_tilde)
    return ((constants.Omega + disc) / k, (constants.Omega - disc) / k)


def _require_above_threshold(site, strat, k):
    """Raise WavenumberError unless k exceeds min_wavenumber(site, strat)."""
    threshold = min_wavenumber(site, strat)
    if not k > threshold:
        raise WavenumberError(
            f"wavenumber k={k!r} must exceed 4*Omega^2/g_tilde={threshold!r}")


def pressure_coefficient_a(f, f_hat, k, c, a, b, d):
    """A, the coefficient of e^(-2 m s) in the wave pressure
    -rho0 (A e^(-2 m s) + B e^(-m s) cos(theta))."""
    return -0.5 * k**2 * c**2 * b**2 + 0.5 * f_hat * k * c * a * b - 0.5 * f * k * c * b * d


def _interface_map(strat, A, m, s):
    """RHS of the thermocline-constant equation as a function of the label s,
    with A = pressure_coefficient_a(...).

    Strictly increasing in s whenever the amplitude gate holds, since its
    derivative reduces to rho0 * g_tilde * (1 - m^2 a^2 e^(-2 m s)).
    """
    return (-strat.rho0 * (A * math.exp(-2.0 * m * s) + strat.g * s)
            + strat.rho_plus * strat.g * s)


def _invert_interface_map(site, strat, k, A, m, s0, map_s0, beta0):
    """Label s_plus > s0 with _interface_map(s_plus) = beta0 > map_s0, the map at s0.

    The map's slope lies between its value at s0 and rho0 g_tilde, which bound
    s_plus - s0 = (beta0 - map_s0) / slope.  Newton runs from the upper bound; a
    bound that the sign of map - beta0 does not confirm is dropped, and a step out
    of a bracket open above doubles s - s0.  Stops at a step <= INTERFACE_TOL / 2
    or an unhalvable bracket (ulp(s) > INTERFACE_TOL), within _MAX_STEPS."""
    if not beta0 > map_s0:
        raise InterfaceOrderingError(
            f"beta0={beta0!r} must exceed P0 - P0_tilde={map_s0!r}")
    _require_above_threshold(site, strat, k)  # the map's monotonicity
    # the exact slope of _interface_map, for any c: wave e^(-2ms) + flat
    wave = 2.0 * m * strat.rho0 * A
    flat, offset = (strat.rho_plus - strat.rho0) * strat.g, beta0 - map_s0
    slope = wave * math.exp(-2.0 * m * s0) + flat
    s = s0 + (offset / slope if slope > 0.0 else 1.0)
    lo, hi = s0 + offset / flat, math.inf
    if not (lo < s and _interface_map(strat, A, m, lo) < beta0):
        lo = s0
    for _ in range(_MAX_STEPS):
        value = _interface_map(strat, A, m, s) - beta0
        lo, hi = (s, hi) if value < 0.0 else (lo, s)
        slope = wave * math.exp(-2.0 * m * s) + flat
        step = value / slope if slope else math.inf
        if abs(step) <= 0.5 * INTERFACE_TOL:
            return s - step
        mid = 0.5 * (lo + hi) if hi < math.inf else 2.0 * s - s0
        if mid == lo or mid == hi:
            return s
        s = s - step if lo < s - step < hi else mid
    raise ConvergenceError(
        f"interface label not converged within {_MAX_STEPS} steps at s={s!r}")


def solve_interface(params: WaveParameters, site: Site, strat: Stratification,
                    beta0: float) -> float:
    """Interface label s_plus for a given beta0 > P0 - P0_tilde.

    Safeguarded Newton on the strictly increasing thermocline-constant map, to
    a step of at most 5e-10 m or to adjacent doubles, whichever is wider."""
    p = params
    A = pressure_coefficient_a(p.f, p.f_hat, p.k, p.c, p.a, p.b, p.d)
    return _invert_interface_map(site, strat, p.k, A, p.m, p.s0, p.P0 - p.P0_tilde, beta0)


def orbit_parameters(f: float, k: float, a: float, c: float):
    """(m, b, d) of a phase speed c, by the closed forms above."""
    m2_denom = k**2 * c**2 - f**2
    if not m2_denom > 0:
        raise EvanescentRegimeError(
            f"k^2 c^2 = {k**2 * c**2!r} must exceed f^2 = {f**2!r}; "
            "the vertical decay rate m diverges as k^2 c^2 -> f^2")
    m = math.sqrt(k**4 * c**2 / m2_denom)
    return m, m * a / k, -f * m * a / (k**2 * c)


def derive_parameters(site: Site, strat: Stratification, k: float, a: float,
                      c: float, s0: float, beta0: float, *,
                      beta0_is_offset: bool = False,
                      P0: float = P0_STANDARD) -> WaveParameters:
    """Complete the parameter set for a solved phase speed c.

    m, b, d follow from the closed forms; the amplitude gate
    m^2 a^2 e^(-2 m s0) < 1 is enforced at s0; the pressure
    constants are fixed by the dynamic boundary condition at s0 (gauge P0)
    and the interface label s_plus solves the monotone thermocline map for
    beta0.  With ``beta0_is_offset=True`` the given beta0 is interpreted as
    the (positive) offset above P0 - P0_tilde, which is always admissible.
    """
    if not s0 > 0:
        raise InputError(f"thermocline label must be positive, got {s0!r}")
    if a < 0:
        raise AmplitudeBoundError(f"amplitude must be non-negative, got {a!r}")
    m, b, d = orbit_parameters(site.f, k, a, c)
    gate = (m * a * math.exp(-m * s0)) ** 2
    if not gate < 1.0:
        raise AmplitudeBoundError(
            f"amplitude a={a!r} violates m^2 a^2 e^(-2 m s0) < 1 "
            f"(got {gate!r}); the thermocline amplitude bound is 1/m = {1.0 / m!r}")
    A = pressure_coefficient_a(site.f, site.f_hat, k, c, a, b, d)
    p0_minus_ptilde = _interface_map(strat, A, m, s0)
    p0_tilde = P0 - p0_minus_ptilde
    if beta0_is_offset:
        if not beta0 > 0:
            raise InterfaceOrderingError(
                f"beta0 offset must be positive, got {beta0!r}")
        beta0 = p0_minus_ptilde + beta0
    s_plus = _invert_interface_map(site, strat, k, A, m, s0, p0_minus_ptilde, beta0)
    return WaveParameters(a=a, k=k, L=2.0 * math.pi / k, c=c, m=m, b=b, d=d,
                          s0=s0, s_plus=s_plus, P0=P0,
                          P0_tilde=p0_tilde, beta0=beta0,
                          f=site.f, f_hat=site.f_hat)
