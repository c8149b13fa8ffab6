"""Named one-line mutants of the package, each with the oracle that must kill it.

A mutant is an exact text substitution in one file under src/.  Its oracle is
`pollardwaves verify`, which must exit 1 at each named scenario, or tier-1
test ids, each of which must fail.  Each mutant is applied to a temporary copy
of the tree and its oracle run there, one child process at a time; one line is
printed per mutant.  A mutant that no oracle kills yet stays listed, marked
with the ROADMAP item meant to kill it.  The script exits 0 when each mutant
is killed, or survives where marked.  tests/test_mutants.py holds the list to
the tree.  To measure another tree, run the copy of this script in it.

    python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

SCENARIOS = {"reference": (), "equator": ("--lat", "0"),
             "south": ("--lat", "-60", "--branch", "negative")}


class Mutant(NamedTuple):
    name: str
    path: str                 # relative to the tree's root
    old: str                  # occurs exactly once in path
    new: str
    verify: tuple = ()        # scenarios at which verify must exit 1
    tests: tuple = ()         # tier-1 test ids that must fail
    item: int | None = None   # ROADMAP item of a mutant expected to survive


CLI, DSP, FLOW, GEO, VER = (f"src/pollardwaves/{m}.py"
                            for m in ("cli", "dispersion", "flowfield", "geo", "verify"))
FIFTY_DIGITS = "tests/test_solvers.py::test_every_solved_field_meets_a_50_digit_solve"
CONTROL = "tests/test_verify.py::test_a_fault_in_the_fields_fails_its_family"
S_PLUS, S_PLUS_X = "s0, s_plus, P0_STANDARD", "s0, 1.01 * s_plus, P0_STANDARD"
BETA0, BETA0_X = "p0_tilde, beta0, site.f", "p0_tilde, 1.01 * beta0, site.f"

MUTANTS = (
    # ROADMAP item 7's table
    Mutant("jacobian_tolerance_1e-10", VER, "TIME = 1e-14", "TIME = 1e-10",
           tests=(f"{CONTROL}[jacobian_time_invariance]",)),
    Mutant("kinematic_scale_x1e3", VER, "eta_x)) / scale", "eta_x)) / (1e3 * scale)",
           tests=(f"{CONTROL}[kinematic_condition]",)),
    Mutant("gradient_floor_x1e3", VER, "(b.real,), floor)", "(b.real,), 1e3 * floor)",
           tests=(f"{CONTROL}[gradient_transport]",)),
    Mutant("mixed_partials_x0", VER, "mixed_res = _relative", "mixed_res = 0.0 * _relative",
           tests=(f"{CONTROL}[mixed_partials]",)),
    Mutant("divergence_x0", VER, "div_res = np.abs(", "div_res = 0.0 * np.abs(",
           tests=(f"{CONTROL}[eulerian_divergence]",)),
    Mutant("s_plus_x1.01", DSP, S_PLUS, S_PLUS_X, tests=(
        "tests/test_dispersion.py::test_interface_round_trip", FIFTY_DIGITS)),
    Mutant("beta0_x1.01", DSP, BETA0, BETA0_X, tests=(FIFTY_DIGITS,)),
    Mutant("s_plus_x1.01_verify", DSP, S_PLUS, S_PLUS_X, verify=tuple(SCENARIOS), item=2),
    Mutant("beta0_x1.01_verify", DSP, BETA0, BETA0_X, verify=tuple(SCENARIOS), item=2),
    Mutant("dynamic_tolerance_1e-7", VER, "TOL_DYNAMIC = 1e-9", "TOL_DYNAMIC = 1e-7",
           tests=("tests/test_verify.py::test_boundary_check_tolerances",)),
    Mutant("euler_over_1e3_g", VER, "_max_abs(*residual) / strat.g",
           "_max_abs(*residual) / (1e3 * strat.g)",
           tests=("tests/test_verify.py::test_euler_fails_with_perturbed_phase_speed",)),
    Mutant("curl_floor_1e-2", VER, "scale_floor = 1e-6", "scale_floor = 1e-2",
           tests=("tests/test_domain.py::test_domain_sweep_verifies_every_admitted_draw",)),
    Mutant("w2_m2_minus_k2_x(1+1e-9)", FLOW, "(m**2 - k**2) * a", "(m**2 - k**2) * (1 + 1e-9) * a",
           verify=("reference", "south")),
    # version 0.19.0's field-order swaps
    Mutant("swap_b_d", DSP, "c, m, b, d, s0", "c, m, d, b, s0", tests=(FIFTY_DIGITS,)),
    Mutant("swap_P0_tilde_beta0", DSP, BETA0, "beta0, p0_tilde, site.f",
           tests=(FIFTY_DIGITS,)),
    Mutant("swap_alpha_beta", DSP, "(threshold / k, site.f_hat / math.sqrt(strat.g_tilde * k),",
           "(site.f_hat / math.sqrt(strat.g_tilde * k), threshold / k,", tests=(FIFTY_DIGITS,)),
    Mutant("swap_f_f_hat", GEO, "sin(phi), 2.0 * constants.Omega * math.cos(phi)",
           "cos(phi), 2.0 * constants.Omega * math.sin(phi)",
           tests=("tests/test_geo.py::test_coriolis_at_equator", FIFTY_DIGITS)),
    Mutant("swap_rho0_rho_plus", GEO, "Stratification(rho0, rho_plus,",
           "Stratification(rho_plus, rho0,", tests=(FIFTY_DIGITS,)),
    # version 0.20.0's phase that loses digits
    Mutant("theta_kq_minus_kct", FLOW, "params.k * (q - params.c * t)",
           "params.k * q - params.k * params.c * t",
           tests=("tests/test_flowfield.py::"
                  "test_positions_and_pressure_meet_a_50_digit_evaluation",)),
    # version 0.23.0's verify kernels
    Mutant("max_abs_fmax", VER, "reduce(np.maximum, (np.abs", "reduce(np.fmax, (np.abs",
           tests=("tests/test_verify.py::test_residual_maxima_keep_nan[first]",)),
    # a root 450 ulp off, inside solve_branch's residual gate: only 50-digit roots see it
    Mutant("root_x(1+1e-13)", DSP, "return _newton(nd.", "return (1 + 1e-13) * _newton(nd.",
           tests=("tests/test_solvers.py::test_roots_match_mpmath_polyroots",)),
    # version 0.25.0's JSON layout and lazy fields
    Mutant("json_keys_unsorted", CLI, "sorted(value.items()) if sort_keys",
           "value.items() if sort_keys",
           tests=("tests/test_serialise.py::test_json_reports_are_the_stdlib_encoding[reference]",)),
    Mutant("lazy_field_not_stored", FLOW, "value = instance.__dict__[self.name] = ",
           "value = ", tests=("tests/test_flowfield.py::test_every_field_is_computed_once",)),
    # version 0.26.0's sampling layout and the controls of four more families
    Mutant("grid_t_reversed", VER, "wave_period(params), config.n_time, endpoint=False)",
           "wave_period(params), config.n_time, endpoint=False)[::-1]",
           tests=("tests/test_verify.py::test_grid_lattice_is_the_raveled_meshgrid[volume]",)),
    Mutant("grid_s_reversed", VER, "params.s0, params.s_plus, n_s", "params.s_plus, params.s0, n_s",
           tests=("tests/test_verify.py::test_grid_lattice_is_the_raveled_meshgrid[volume]",)),
    Mutant("momentum_x0", VER, '"momentum_residual", _max_abs(',
           '"momentum_residual", 0.0 * _max_abs(',
           tests=(f"{CONTROL}[momentum_residual]",)),
    Mutant("dynamic_x0", VER, "dyn_res = np.abs(", "dyn_res = 0.0 * np.abs(",
           tests=(f"{CONTROL}[dynamic_condition]",)),
    Mutant("matrix_product_x0", VER, "mp_res = _relative", "mp_res = 0.0 * _relative",
           tests=(f"{CONTROL}[matrix_product]",)),
    Mutant("fd_curl_x0", VER, "curl_res = _relative", "curl_res = 0.0 * _relative",
           tests=(f"{CONTROL}[fd_curl]",)),
    # faults that version 0.27.0's retired tests (the label-map inversion oracle's,
    # the central differences' and the extra bracket tests) also caught
    Mutant("p_q_x(1+1e-6)", FLOW, "p_q = -strat.rho0", "p_q = (1 + 1e-6) * -strat.rho0",
           verify=("reference",)),
    Mutant("p_s_mB_x(1+1e-6)", FLOW, "- m * B * e * self.cos",
           "- (1 + 1e-6) * m * B * e * self.cos", verify=("reference",)),
    Mutant("newton_step_ds_plus", FLOW, "ds = (j00 * res_z - j02 * res_x)",
           "ds = (j00 * res_z + j02 * res_x)", verify=("reference",)),
    Mutant("bracket_beta_not_2beta", DSP, "2.0 * nd.beta", "1.0 * nd.beta",
           tests=("tests/test_dispersion.py::test_brackets_reference_case",)),
    Mutant("kinematic_minus_u_eta_x", VER, "eta_t + u * eta_x", "eta_t - u * eta_x",
           verify=("reference",)),
)


def killed(tree, mutant):
    """Whether the oracle kills the mutant applied in ``tree``, and what it ran."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    if mutant.verify:
        for name in mutant.verify:
            argv = [sys.executable, "-m", "pollardwaves.cli", "verify", *SCENARIOS[name]]
            code = subprocess.run(argv, cwd=tree, env=env, capture_output=True).returncode
            if code != 1:
                return False, f"verify exits {code} at {name}"
        return True, "verify exits 1 at " + ", ".join(mutant.verify)
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *mutant.tests]
    run = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    failed = {line.partition(" ")[2].partition(" - ")[0] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}  # -rfE: "FAILED id - message"
    missed = [test for test in mutant.tests if test not in failed]
    if missed:
        return False, f"does not fail {', '.join(missed)} (pytest exit {run.returncode})"
    return True, "fails " + ", ".join(mutant.tests)


def run(root, mutant):
    """Apply ``mutant`` to a copy of ``root``: (its outcome line, whether it met its mark)."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=shutil.ignore_patterns(".*", "__pycache__"))
        target = tree / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"{mutant.name}: STALE, its text occurs {text.count(mutant.old)} times", False
        target.write_text(text.replace(mutant.old, mutant.new))
        dead, how = killed(tree, mutant)
    outcome = "killed" if dead else f"SURVIVED (item {mutant.item})" if mutant.item else "SURVIVED"
    return f"{mutant.name}: {outcome}; {how}", dead != bool(mutant.item)


def main():
    root, met = Path(__file__).resolve().parent.parent, True
    for mutant in MUTANTS:
        line, ok = run(root, mutant)
        print(line, flush=True)
        met &= ok
    return 0 if met else 1


if __name__ == "__main__":
    sys.exit(main())
