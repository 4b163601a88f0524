"""Resolution audit of the shipped presets' own tasks.

Every preset whose task integrates runs that task cut to test size, on its
network at seed 42, four ways: RK4 at the preset's step, RK4 at half that
step (the fine reference), RK45 at the ``IntegratorSettings`` defaults, and
RK45 at rtol 1e-12, atol 1e-14 (the converged reference).  RK45 (an
embedded Dormand-Prince pair with step control; Hairer, Norsett & Wanner,
Solving ODEs I, II.4-II.5) must decide each run as the fine reference does.
Its ``simulate`` event must also lie no farther from the converged
reference's time than the preset-step RK4 event, except where ``_FARTHER``
records otherwise.  The event rule does not measure against the fine RK4
run, because RK4's event time does not converge monotonically in the step
on these runs: on ``paper-2pop`` the fine time lies 1.3e-3 from the
converged one, farther than either run under test.

Distances from the converged event time, RK45 against preset-step RK4:
``eco3-cs`` 1.25e-6 against 2.94e-5, ``fig3a`` 1.75e-4 against 1.95e-3,
``fig3b`` 1.69e-7 against 6.75e-8, ``paper-2pop`` 2.74e-4 against
1.58e-4.  The converged run adds about 4 s to the audit.
"""

import functools
from dataclasses import replace

import pytest

from kuracomp import cli, solver
from kuracomp.presets import PRESETS, get_preset
from kuracomp.solver import IntegratorSettings

SEED = 42                   # network and ensemble seed, as in criterion 7
T_END, RECON_T = 30.0, 10.0  # test-size horizons; every audited event is
N_SIM = 4                   # decided before T_END at this seed

_AUDITED = [name for name in sorted(PRESETS)
            if PRESETS[name]["task"]["type"] not in ("fixed-points", "glm")]


def _four_ways(name):
    """(system, start state, {"rk4", "fine", "rk45", "ref": settings}) of a
    preset's own task cut to test size."""
    config = get_preset(name)
    # a preset with another integrating task needs that task's comparison
    # (basin cells, sweep attractor labels) here
    assert config["task"]["type"] == "simulate"
    config["seed"] = SEED
    solver_section = config["solver"]
    solver_section["t_end"] = min(solver_section["t_end"], T_END)
    if "recon_T" in solver_section:
        solver_section["recon_T"] = min(solver_section["recon_T"], RECON_T)
    inputs = cli._build(config)
    system, settings = inputs["system"], inputs["settings"]
    rk4 = replace(settings, method="rk4")
    return system, cli._initial_state(system, config["task"]), {
        "rk4": rk4, "fine": replace(rk4, dt_init=rk4.dt_init / 2),
        "rk45": IntegratorSettings(t_end=settings.t_end,
                                   recon_T=settings.recon_T),
        "ref": IntegratorSettings(t_end=settings.t_end,
                                  recon_T=settings.recon_T, rtol=1e-12,
                                  atol=1e-14)}


# Events that RK45 at the default tolerances places farther from the
# converged reference than the preset-step RK4 run does, at this seed and
# size.  Each is a recorded finding; strict, so a change that closes one
# fails here until its entry goes.  On both, all four runs agree on the
# winner.
_FARTHER = {
    "fig3b": "RK45 lands 1.69e-7 from the converged time 5.4797, RK4 "
             "6.75e-8 (relative 3.1e-8 and 1.2e-8)",
    "paper-2pop": "RK45 lands 2.74e-4 from the converged time 12.543, RK4 "
                  "1.58e-4 (relative 2.2e-5 and 1.3e-5)",
}


def test_audit_covers_the_integrating_presets():
    assert _AUDITED == ["eco3-cs", "fig3a", "fig3b", "paper-2pop"]


@functools.cache
def _simulated(name):
    """{way: (winner, t_event)} of the preset's simulate run; a stalemate
    reports t_end under every method."""
    system, y0, ways = _four_ways(name)
    outs = {way: solver.run_scenario(system, y0, settings)
            for way, settings in ways.items()}
    return {way: (out.winner, out.t_event) for way, out in outs.items()}


@pytest.mark.parametrize("name", _AUDITED)
def test_rk45_simulate_winner_equals_fine_rk4(name):
    out = _simulated(name)
    assert out["rk45"][0] == out["fine"][0]


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=_FARTHER[name]))
    if name in _FARTHER else name for name in _AUDITED])
def test_rk45_event_is_at_least_as_resolved_as_preset_rk4(name):
    """The RK45 event time is no farther from the converged one than the
    preset-step RK4 time."""
    out = _simulated(name)
    ref = out["ref"][1]
    assert abs(out["rk45"][1] - ref) <= abs(out["rk4"][1] - ref)


@pytest.mark.parametrize("name", _AUDITED)
def test_rk45_ensemble_counts_equal_fine_rk4(name):
    """A few-member ensemble of the task counts the same winners under
    RK45 as under the fine reference."""
    system, y0, ways = _four_ways(name)
    counts = [solver.ensemble(system, y0[:system.n_pops], N_SIM, SEED,
                              ways[way]).counts for way in ("fine", "rk45")]
    assert counts[1] == counts[0]
