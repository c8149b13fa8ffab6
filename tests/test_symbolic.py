"""Symbolic backing for the dispersion solver and the pressure closed form.

sympy proves, for symbols rather than sampled numbers, the algebra that
``dispersion`` and ``Flow.pressure`` rely on:

* the dynamic condition c f_hat + g_tilde = m (k^2 c^2 - f^2) / k^2, squared
  under m^2 = k^4 c^2 / (k^2 c^2 - f^2), is the dimensional relation
  c^2 (c^2 k^2 - f^2) = (c f_hat + g_tilde)^2, which X = c sqrt(k / g_tilde)
  reduces to g_tilde^2 P(X) with P(X) = X^4 - alpha X^2 - 2 beta X - 1;
* on P = 0, 1 + beta X = (X^4 - alpha X^2 + 1) / 2, which exceeds 3/8 for
  alpha < 1, so squaring added no spurious root;
* P = -(alpha - beta^2) X^2 <= 0 at both roots of X^2 - beta X - 1, from
  which the root solves take their Halley step;
* the cos^2 coefficient a^2 + d^2 - b^2 of the raw pressure vanishes under
  b = m a / k, d = -f m a / (k^2 c) and m^2 = k^4 c^2 / (k^2 c^2 - f^2);
* the label Jacobian of the flow map has det J = 1 - k m a b e^(-2 m s)
  under m a = k b, so J is time-invariant;
* the curl of the Eulerian velocity, through the inverse Jacobian, is the
  closed form of ``Flow.vorticity``, third component's sign included;
* the code's pressure solves the three momentum equations in label form,
  J^T (Du/Dt + 2 Omega x u + g z_hat + grad P / rho0) = 0, under the b, d and
  m^2 closed forms.

The flow-map identities are polynomials in E = e^(-m s), S = sin(theta) and
C = cos(theta), differentiated by the chain rule and reduced modulo
S^2 + C^2 - 1 and then modulo the m^2 relation.
"""

import math

import sympy as sp

import pollardwaves as pw

# k, g_tilde, c (either sign, through c^2 only where it matters) and the
# Coriolis pair; positivity lets sympy split sqrt(g_tilde / k)
k, g_tilde, f_hat, a, m = sp.symbols("k g_tilde f_hat a m", positive=True)
f, c, X, alpha, beta, u = sp.symbols("f c X alpha beta u", real=True)

P = X**4 - alpha * X**2 - 2 * beta * X - 1
ALPHA = (f**2 + f_hat**2) / (g_tilde * k)
BETA = f_hat / sp.sqrt(g_tilde * k)


def is_zero(expr):
    return sp.simplify(sp.together(sp.expand(expr))) == 0


def test_squared_dynamic_condition_reduces_to_P():
    m2 = k**4 * c**2 / (k**2 * c**2 - f**2)
    dynamic_rhs = m * (k**2 * c**2 - f**2) / k**2
    squared = (dynamic_rhs**2).subs(m**2, m2)
    assert is_zero(squared - c**2 * (c**2 * k**2 - f**2))

    lhs = c**2 * (c**2 * k**2 - f**2)
    rhs = (c * f_hat + g_tilde) ** 2
    residual = (lhs - rhs).subs(c, X * sp.sqrt(g_tilde / k))
    assert is_zero(residual / g_tilde**2 - P.subs({alpha: ALPHA, beta: BETA}))


def test_root_identity_and_its_positive_bound():
    # 1 + beta X - (X^4 - alpha X^2 + 1) / 2 is a multiple of P in X
    difference = 1 + beta * X - (X**4 - alpha * X**2 + 1) / 2
    assert sp.rem(difference, P, X) == 0
    assert is_zero(difference + P / 2)
    # with u = X^2: u^2 - alpha u + 1 = (u - alpha/2)^2 + 1 - alpha^2/4 >= 3/4 at alpha < 1
    assert is_zero(u**2 - alpha * u + 1 - ((u - alpha / 2) ** 2 + 1 - alpha**2 / 4))


def test_newton_starts_on_the_inner_side_of_each_root():
    """P = (X^2 - beta X - 1)(X^2 + beta X + 1) - (alpha - beta^2) X^2, so at
    both roots x0 of X^2 - beta X - 1, from which solve_branch takes one Halley
    step, P(x0) = -(alpha - beta^2) x0^2 = -(f^2 / (g_tilde k)) x0^2 <= 0: each
    x0 lies between its bracket's inner end, where P < 0, and the root, and the
    Halley step reads P(x0) from this closed form."""
    factored = (X**2 - beta * X - 1) * (X**2 + beta * X + 1) - (alpha - beta**2) * X**2
    assert is_zero(P - factored)
    assert is_zero(ALPHA - BETA**2 - f**2 / (g_tilde * k))
    root = sp.sqrt(beta**2 + 4)
    for x0 in ((beta + root) / 2, -2 / (beta + root)):
        assert is_zero(sp.radsimp(x0**2 - beta * x0 - 1))
        assert is_zero(sp.radsimp(P.subs(X, x0) + (alpha - beta**2) * x0**2))


def test_cos_squared_pressure_coefficient_vanishes():
    b = m * a / k
    d = -f * m * a / (k**2 * c)
    coefficient = (a**2 + d**2 - b**2).subs(m**2, k**4 * c**2 / (k**2 * c**2 - f**2))
    assert is_zero(coefficient)
    # and not by accident: without the m^2 relation it is a^2 (1 + m^2 (f^2 - k^2 c^2) / (k^4 c^2))
    assert not is_zero(a**2 + d**2 - b**2)


# --- the flow map -------------------------------------------------------------

q, r, s, t, b, d, P0_tilde = sp.symbols("q r s t b d P0_tilde", real=True)
g, rho0 = sp.symbols("g rho0", positive=True)
E, S, C = sp.symbols("E S C", real=True)  # e^(-m s), sin(theta), cos(theta)
LABELS = (q, r, s)
# d/dq, d/ds and d/dt of E, S and C, theta = k (q - c t)
CHAIN = {q: {S: k * C, C: -k * S}, s: {E: -m * E}, t: {S: -k * c * C, C: k * c * S}}
CLOSED = {b: m * a / k, d: -f * m * a / (k**2 * c)}
M2_RELATION = m**2 * (k**2 * c**2 - f**2) - k**4 * c**2

POSITION = sp.Matrix([q - b * E * S, r - d * E * C, s - a * E * C])


def diff(expr, var):
    """d expr / d var with E, S and C the functions of (q, s, t) they stand for."""
    return sp.diff(expr, var) + sum(sp.diff(expr, sym) * rate
                                    for sym, rate in CHAIN.get(var, {}).items())


def diff_all(vector, var):
    return vector.applyfunc(lambda v: diff(v, var))


JACOBIAN = sp.Matrix.hstack(*(diff_all(POSITION, label) for label in LABELS))
VELOCITY = diff_all(POSITION, t)
DET = JACOBIAN.det()

# the closed forms as flowfield.Flow writes them
DET_CODE = 1 + (m * a - k * b) * E * C - k * m * a * b * E**2
PREFACTOR = 1 - m**2 * a**2 * E**2
VORTICITY_CODE = ((m**2 * a * f / k) * E * S / PREFACTOR,
                  (-c * (m**2 - k**2) * a * E * C + c * m * a**2 * (m**2 + k**2) * E**2)
                  / PREFACTOR,
                  f * m * a * (C + m * a * E) * E / PREFACTOR)
PRESSURE_A = (-k**2 * c**2 * b**2 + f_hat * k * c * a * b - f * k * c * b * d) / 2
PRESSURE_B = c * a * f_hat - c * d * f - k * c**2 * b - a * g
PRESSURE_CODE = -rho0 * (PRESSURE_A * E**2 + PRESSURE_B * E * C) - rho0 * g * s + P0_tilde


def vanishes(expr, closed=True, m2=True):
    """Whether expr is 0 on S^2 + C^2 = 1, after imposing b and d (closed)
    and the m^2 relation (m2) on the numerator of its rational form."""
    numerator = sp.expand(sp.numer(sp.together(expr.subs(CLOSED) if closed else expr)))
    numerator = sp.rem(numerator, S**2 + C**2 - 1, S)
    if m2:
        numerator = sp.prem(sp.expand(numerator), M2_RELATION, m)
    return sp.expand(numerator) == 0


def test_jacobian_determinant_is_time_invariant():
    assert vanishes(DET - DET_CODE, closed=False, m2=False)
    assert vanishes(DET - (1 - k * m * a * b * E**2), m2=False)
    assert vanishes(diff(DET, t), m2=False)
    # and not by accident: without m a = k b the cos(theta) term moves with t
    assert not vanishes(diff(DET, t), closed=False, m2=False)


def test_vorticity_closed_form():
    grad = (sp.Matrix.hstack(*(diff_all(VELOCITY, label) for label in LABELS))
            * JACOBIAN.adjugate() / DET)  # grad[i, j] = d u_i / d x_j
    curl = (grad[2, 1] - grad[1, 2], grad[0, 2] - grad[2, 0], grad[1, 0] - grad[0, 1])
    for derived, closed_form in zip(curl, VORTICITY_CODE):
        assert vanishes(derived - closed_form, m2=False)
    # the third component's inner term is + m a e^(-m s), not -
    flipped = f * m * a * (C - m * a * E) * E / PREFACTOR
    assert not vanishes(curl[2] - flipped)


def test_momentum_equations_in_label_form():
    u, v, w = VELOCITY
    du, dv, dw = diff_all(VELOCITY, t)
    residual = (du + f_hat * w - f * v, dv + f * u, dw - f_hat * u + g)
    for j, label in enumerate(LABELS):
        equation = (sum(JACOBIAN[i, j] * residual[i] for i in range(3))
                    + diff(PRESSURE_CODE, label) / rho0)
        assert vanishes(equation)
        # the q and s equations hold only on the m^2 relation
        assert vanishes(equation, m2=False) == (label == r)


def test_transcribed_closed_forms_are_the_kernels(ref_params, strat):
    """The expressions above evaluate to the kernel's own values at a sample of
    the reference set, so the proofs are about the code."""
    p, label, time = ref_params, (7.0, 1.5, 53.0), 11.0
    flow = pw.Flow(p, *label, time)
    theta = p.k * (label[0] - p.c * time)
    values = {k: p.k, m: p.m, a: p.a, b: p.b, d: p.d, c: p.c, f: p.f, f_hat: p.f_hat,
              g: strat.g, rho0: strat.rho0, P0_tilde: p.P0_tilde,
              q: label[0], r: label[1], s: label[2],
              E: math.exp(-p.m * label[2]), S: math.sin(theta), C: math.cos(theta)}
    pairs = [(DET_CODE, flow.det), (PRESSURE_CODE, flow.pressure),
             *zip(VORTICITY_CODE, flow.vorticity), *zip(POSITION, flow.position),
             *zip(VELOCITY, flow.velocity)]
    for expr, kernel in pairs:
        assert math.isclose(float(expr.subs(values)), float(kernel), rel_tol=1e-12)
