"""Shared fixtures: the reference mid-latitude scenario and an equatorial one.

The reference scenario (45 deg N, rho jump 4e-3, k = 6.28e-2 1/m, a = 10 m,
thermocline label 50 m) is solved once per session; tests freeze expected
values computed from it.
"""

import math

import pytest

import pollardwaves as pw
from pollardwaves.dispersion import _refine_root
from pollardwaves.errors import NumericError

REF_K = 6.28e-2
REF_A = 10.0
REF_S0 = 50.0
REF_BETA0_OFFSET = 2000.0


def nondim_of(eps, F):
    """The polynomial of eps = f / sqrt(g_tilde k) and F = f_hat / f:
    (alpha, beta) = (eps^2 (1 + F^2), eps F), of no site: for P and its roots only."""
    return pw.NondimDispersion(alpha=float(eps**2 * (1.0 + F**2)), beta=float(eps * F),
                               site=None, strat=None, k=None)


def refine_root(nd, inner, outer):
    """The root X of P on one root_brackets bracket, by the solver's own Newton
    loop and start (one Halley step on from the root of X^2 - beta X - 1 on
    the bracket's side of 0),
    held to |P(X)| <= 1e-12 max(1, X^4) (solve_branch's residual gate, without
    its sign and dimensional checks)."""
    x = _refine_root(nd, inner, outer)
    p = nd.value_and_slope(x)[0]
    if abs(p) > 1e-12 * max(1.0, x**4):
        raise NumericError(f"root refinement stalled at X={x!r} with |P(X)|={abs(p)!r}")
    return x


def derivative_discriminant(nd):
    """128 alpha^3 - 1728 beta^2, the discriminant of P'; < 0 where P' has one real zero."""
    return 128.0 * nd.alpha**3 - 1728.0 * nd.beta**2


@pytest.fixture(scope="session")
def constants():
    return pw.PhysicalConstants()


@pytest.fixture(scope="session")
def site45(constants):
    return pw.coriolis(constants, math.radians(45.0))


@pytest.fixture(scope="session")
def strat(constants):
    return pw.reduced_gravity(constants, 1000.0, 1004.0)


def both_roots(site, strat, k):
    """((X+, c+), (X-, c-)): both branches of solve_branch."""
    nd = pw.nondimensionalize(site, strat, k)
    return tuple(pw.solve_branch(nd, branch) for branch in ("positive", "negative"))


@pytest.fixture(scope="session")
def ref_roots(site45, strat):
    return both_roots(site45, strat, REF_K)


@pytest.fixture(scope="session")
def ref_nd(site45, strat):
    """The reference polynomial, which solve_branch and derive_parameters take."""
    return pw.nondimensionalize(site45, strat, REF_K)


@pytest.fixture(scope="session")
def ref_params(ref_nd, ref_roots):
    (_, c_plus), _ = ref_roots
    return pw.derive_parameters(ref_nd, REF_A, c_plus, REF_S0, REF_BETA0_OFFSET)


@pytest.fixture(scope="session")
def equator_site(constants):
    return pw.coriolis(constants, 0.0)


@pytest.fixture(scope="session")
def equatorial(equator_site, strat):
    """Equatorial wave at the critical amplitude a = 1/m (= 1/k there)."""
    nd = pw.nondimensionalize(equator_site, strat, REF_K)
    _, c_plus = pw.solve_branch(nd, "positive")
    return pw.derive_parameters(nd, 1.0 / REF_K, c_plus, REF_S0, REF_BETA0_OFFSET)
