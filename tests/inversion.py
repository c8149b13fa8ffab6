"""Inversions of the label-to-position map: labels back from positions.

A test oracle.  The package follows labels and never maps positions back
to them; these Newton solves give the tests an Eulerian view of the flow
(velocity at a fixed point, the elevation of a material sheet) that is
independent of the closed forms they check.
"""

from functools import reduce

import numpy as np

from pollardwaves.dispersion import WaveParameters
from pollardwaves.errors import NumericError
from pollardwaves.flowfield import Flow, _array

_INVERT_TOL = 1e-12   # [m] Newton residual target for map inversion
_INVERT_MAX_ITER = 50
_SHEET_TOL = 1e-13    # sheet_label_q's residual target, relative to max(1, |x|)
_SHEET_MAX_ITER = 60


def _flat(values, shape):
    return [np.broadcast_to(_array(v), shape).ravel() for v in values]


def _newton(unknowns, step, bound, max_iter):
    """Masked Newton iteration on flat arrays, in place: ``step(i)`` gives
    residual sizes and steps of ``unknowns`` at indices i.  Every open entry
    steps, and closes once the residual it stepped from is within ``bound``, so
    one that starts at its real solution still corrects its imaginary part."""
    open_ = np.arange(bound.size)
    for _ in range(max_iter):
        size, steps = step(open_)
        for v, d in zip(unknowns, steps):
            v[open_] -= d
        open_ = open_[size > bound[open_]]
        if not open_.size:
            break
    return open_


def invert_labels(params: WaveParameters, x, y, z, t):
    """Labels (q, r, s) whose positions at times t are (x, y, z), by Newton
    iteration over broadcast arrays from the start (q, r, s) = (x, y, z).

    A target stops once its residual is within max(_INVERT_TOL, 4 eps |target|),
    the rounding floor of the position; one still open after _INVERT_MAX_ITER
    iterations fails the inversion.  For a steep wave above a shallow
    thermocline the start is not always in the convergence basin: a step can
    land where det J < 0, and Flow raises a NumericError.  Complex
    targets or times give complex labels, whose imaginary parts carry the
    complex-step derivative."""
    shape = np.broadcast_shapes(*(np.shape(v) for v in (x, y, z, t)))
    *target, t = _flat((x, y, z, t), shape)
    label = [v.astype(np.result_type(*target, t)) for v in target]

    def step(i):
        flow = Flow(params, *(v[i] for v in label), t[i])
        residual = [p - v[i] for p, v in zip(flow.position, target)]
        return reduce(np.hypot, map(abs, residual)), flow.newton_step(*residual)

    # sizes by np.hypot, which squares nothing: no overflow at any double
    bound = np.maximum(_INVERT_TOL, 4 * np.finfo(float).eps * reduce(np.hypot, map(abs, target)))
    open_ = _newton(label, step, bound, _INVERT_MAX_ITER)
    if open_.size:
        first = tuple(float(v[open_[0]].real) for v in target)
        raise NumericError(
            f"map inversion did not reach |residual| <= max({_INVERT_TOL!r}, 4 eps |target|) "
            f"in {_INVERT_MAX_ITER} iterations (target {first!r})")
    return tuple(v.reshape(shape) for v in label)


def sheet_label_q(params: WaveParameters, s, x, t):
    """Label q on the sheet of constant s whose position has abscissa x.

    Solves q - b e^(-m s) sin(k (q - c t)) = x by Newton over broadcast
    arrays from the start q = x; the derivative 1 - k b e^(-m s) cos(theta)
    is positive under the amplitude gate.  Complex inputs give a complex q,
    as in invert_labels."""
    shape = np.broadcast_shapes(*(np.shape(v) for v in (s, x, t)))
    s, x, t = _flat((s, x, t), shape)
    q = x.astype(np.result_type(s, x, t))

    def step(i):
        flow = Flow(params, q[i], 0.0, s[i], t[i])
        residual = flow.position[0] - x[i]
        return np.abs(residual), (residual / flow.jacobian[0][0],)

    open_ = _newton([q], step, _SHEET_TOL * np.maximum(1.0, np.abs(x)), _SHEET_MAX_ITER)
    if open_.size:
        raise NumericError(
            f"sheet abscissa inversion did not converge for "
            f"x={float(x[open_[0]].real)!r}, s={float(s[open_[0]].real)!r}")
    return q.reshape(shape)[()]


def sheet_elevation(params: WaveParameters, s, x, t):
    """Eulerian elevation z of the material sheet of labels with vertical s.

    Independent of y: the sheet is a cylinder along the latitudinal
    direction.  For s = s0 this is the thermocline elevation.
    """
    return Flow(params, sheet_label_q(params, s, x, t), 0.0, s, t).position[2][()]
