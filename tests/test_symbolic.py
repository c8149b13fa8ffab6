"""Symbolic backing for the dispersion solver and the pressure closed form.

sympy proves, for symbols rather than sampled numbers, the algebra that
``dispersion`` and ``Flow.pressure`` rely on:

* the dynamic condition c f_hat + g_tilde = m (k^2 c^2 - f^2) / k^2, squared
  under m^2 = k^4 c^2 / (k^2 c^2 - f^2), is the dimensional relation
  c^2 (c^2 k^2 - f^2) = (c f_hat + g_tilde)^2, which X = c sqrt(k / g_tilde)
  reduces to g_tilde^2 P(X) with P(X) = X^4 - alpha X^2 - 2 beta X - 1;
* on P = 0, 1 + beta X = (X^4 - alpha X^2 + 1) / 2, which exceeds 3/8 for
  alpha < 1, so squaring added no spurious root;
* the cos^2 coefficient a^2 + d^2 - b^2 of the raw pressure vanishes under
  b = m a / k, d = -f m a / (k^2 c) and m^2 = k^4 c^2 / (k^2 c^2 - f^2).
"""

import sympy as sp

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


def test_cos_squared_pressure_coefficient_vanishes():
    b = m * a / k
    d = -f * m * a / (k**2 * c)
    coefficient = (a**2 + d**2 - b**2).subs(m**2, k**4 * c**2 / (k**2 * c**2 - f**2))
    assert is_zero(coefficient)
    # and not by accident: without the m^2 relation it is a^2 (1 + m^2 (f^2 - k^2 c^2) / (k^4 c^2))
    assert not is_zero(a**2 + d**2 - b**2)
