"""The verifier over a sampled domain of admitted waves: every admitted draw
verifies, and a 1 % error in c, b, d or m^2 fails.

A draw takes a latitude U(-85, 85) deg, one in eight at the Equator;
rho_plus = rho0 + 10^U(-3, 1.3) kg/m^3 with rho0 = 1000; k 10^U(-6, 0) 1/m,
a 10^U(-2, 3) m and s0 10^U(0, 4) m; and a random branch.  Each draw runs
in-process as ``verify`` runs it: an InputError is exit 2, a failed report
exit 1, and a NumericError (exit 3) escapes the test.  In an error run a
NumericError counts as not verifying: a 1 % larger b can make the broken
set's own flow map singular.
"""

import contextlib
import dataclasses
import io
import math
import random
import time
from collections import Counter

from hypothesis import given, settings, strategies as st

from pollardwaves import verify
from pollardwaves.cli import RunConfig, main, solve_configured
from pollardwaves.errors import InputError, NumericError

SWEEP_SEED = 1
N_DRAWS = 300
CASE_SECONDS = 5.0  # wall bound per draw, its error runs included
# the error runs use a 29-sample volume grid and a 13-sample sheet
ERROR_GRID = verify.VerifyConfig(n_theta=4, n_s=3, n_time=2, n_random=5)
# below this k a e^(-m s0) the wave at the thermocline is under the rounding
# of the positions it displaces, and no error in it can show
REPRESENTABLE_STEEPNESS = 1e-15
# a c or d error upsets k c d + b f = 0, which shows as 1 % of the Coriolis
# acceleration |f u| <= |f| k |c| |b| e^(-m s0); gradient_transport's r
# component sees it above its floor tol_fd rho0 g from 100 tol_fd^2 g = 1e-13
VISIBLE_CORIOLIS = 1e-12  # [m/s^2]


def run_config(lat, log_jump, log_k, log_a, log_s0, branch):
    return RunConfig(latitude_deg=lat, rho_plus=1000.0 + 10.0 ** log_jump,
                     wavenumber=10.0 ** log_k, amplitude=10.0 ** log_a,
                     s0=10.0 ** log_s0, branch=branch)


def draws(n=N_DRAWS, seed=SWEEP_SEED):
    rng = random.Random(seed)
    return [run_config(0.0 if rng.random() < 1 / 8 else rng.uniform(-85.0, 85.0),
                       rng.uniform(-3.0, 1.3), rng.uniform(-6.0, 0.0),
                       rng.uniform(-2.0, 3.0), rng.uniform(0.0, 4.0),
                       rng.choice(("positive", "negative")))
            for _ in range(n)]


def verified(config):
    """(params, strat) of a draw whose default verify run passes, or None
    where verify exits 2."""
    try:
        _, _, strat, params = solve_configured(config.validate())
    except InputError:
        return None
    failed = [r for r in verify.run_all(params, strat) if not r.passed]
    assert not failed, (config, failed)
    return params, strat


def errors(params):
    """The 1 % errors that must fail: in b and m^2 where the wave is
    representable, and in c and d where it also has a visible Coriolis
    acceleration.  At the Equator f = 0 and d = 0: there only the dynamic
    condition sees c, at its bound of 1e-9 |P0|."""
    e = math.exp(-params.m * params.s0)
    wrong = {}
    if params.k * params.a * e >= REPRESENTABLE_STEEPNESS:
        wrong.update({"b": {"b": 1.01 * params.b},
                      "m^2": {"m": math.sqrt(1.01) * params.m}})
    if abs(params.f) * params.k * abs(params.c * params.b) * e >= VISIBLE_CORIOLIS:
        wrong.update({"c+": {"c": 1.01 * params.c}, "c-": {"c": 0.99 * params.c},
                      "d": {"d": 1.01 * params.d}})
    return {name: dataclasses.replace(params, **change) for name, change in wrong.items()}


def passes(params, strat):
    """Whether an error run verifies; one that exits 3 does not."""
    try:
        return all(r.passed for r in verify.run_all(params, strat, ERROR_GRID))
    except NumericError:
        return False


def test_domain_sweep_verifies_every_admitted_draw():
    counts = Counter()
    for config in draws():
        start = time.perf_counter()
        result = verified(config)
        if result is not None:
            wrong = errors(result[0])
            counts.update(["admitted", *wrong])
            missed = [name for name, bad in wrong.items() if passes(bad, result[1])]
            assert not missed, (config, missed)
        assert time.perf_counter() - start < CASE_SECONDS, config
    assert counts == {"admitted": 181, "b": 160, "m^2": 160, "c+": 133, "c-": 133, "d": 133}


@settings(max_examples=25, deadline=None)
@given(lat=st.one_of(st.just(0.0), st.floats(-85.0, 85.0)),
       log_jump=st.floats(-3.0, 1.3), log_k=st.floats(-6.0, 0.0),
       log_a=st.floats(-2.0, 3.0), log_s0=st.floats(0.0, 4.0),
       branch=st.sampled_from(("positive", "negative")))
def test_every_draw_verifies_or_is_a_config_error(lat, log_jump, log_k, log_a,
                                                  log_s0, branch):
    result = verified(run_config(lat, log_jump, log_k, log_a, log_s0, branch))
    if result is not None:
        params, strat = result
        assert not any(passes(bad, strat) for bad in errors(params).values())


def test_steep_wave_above_a_shallow_thermocline_verifies():
    """A Newton inversion started at the position, not at the label it inverts
    back to, stepped to s < 0 here, where det J < 0, and verify exited 3."""
    args = ["verify", "--lat=76.21187212985285", "--rho-plus=1009.0316011042839",
            "--k=0.02163707195863198", "--amplitude=39.58789643315488",
            "--s0=1.7820410889988376"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0
