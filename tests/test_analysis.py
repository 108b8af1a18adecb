import warnings

import numpy as np
import pytest

from goalchase.analysis import (
    divergence_witness,
    grad_check,
    is_reducible,
    pad_witness,
    permutation_witness,
    reduction_check,
)
from goalchase.bridge import AFFINE1, AFFINE2, MLP1H, BridgeFamily
from goalchase.core import ConfigError, DivergenceError, config_from_json
from goalchase.expr import EquationPairList
from goalchase.goallaw import LawState, initial_law_state

from scenarios import commute_obj, goal_switch_obj, mlp_obj, resample_obj


def test_is_reducible_only_for_constant_goals():
    assert is_reducible(config_from_json(commute_obj()))
    assert not is_reducible(config_from_json(goal_switch_obj()))


def test_reduction_deviation_is_exactly_zero():
    config = config_from_json(commute_obj(steps=300))
    report = reduction_check(config)
    assert report["verdict"] == "pass"
    assert report["max_deviation"] == 0.0
    assert report["first_deviation_step"] is None
    assert report["reducible"] is True


def test_reduction_holds_with_momentum_and_drift():
    config = config_from_json(commute_obj(steps=100, mu=0.5, drift=0.01))
    report = reduction_check(config)
    assert report["verdict"] == "pass"
    assert report["max_deviation"] == 0.0


def test_reduction_holds_under_resampling():
    config = config_from_json(resample_obj(steps=100))
    report = reduction_check(config)
    assert report["verdict"] == "pass"
    assert report["max_deviation"] == 0.0


def test_reduction_check_rejects_rewriting_laws():
    config = config_from_json(goal_switch_obj(steps=10))
    with pytest.raises(ConfigError):
        reduction_check(config)


def test_witness_finds_divergence_right_after_the_boundary():
    config = config_from_json(goal_switch_obj(steps=300, K=100))
    alt = LawState(cpair=config.law.program[0], program_counter=1)
    report = divergence_witness(config, alt, threshold=1e-6)
    assert report["verdict"] == "pass"
    assert report["first_divergence_step"] == 101
    assert report["final_deviation"] > 1e-6


def test_witness_fails_without_a_difference():
    config = config_from_json(goal_switch_obj(steps=150, K=100))
    alt = LawState(cpair=config.law.program[0], program_counter=0)
    report = divergence_witness(config, alt)
    assert report["verdict"] == "fail"
    assert report["first_divergence_step"] is None
    assert "no divergence" in report["reason"]


def test_witness_ignores_inert_law_bookkeeping():
    # for the constant law the counters carry no influence at all
    config = config_from_json(commute_obj(steps=120))
    alt = LawState(cpair=config.law.pairs, program_counter=5, macro_count=9)
    report = divergence_witness(config, alt)
    assert report["verdict"] == "fail"
    assert report["first_divergence_step"] is None


def test_witness_leaves_alt_state_unchanged():
    config = config_from_json(goal_switch_obj(steps=120, K=100))
    alt = LawState(cpair=config.law.program[0], program_counter=1)
    divergence_witness(config, alt, threshold=1e-6)
    assert alt.macro_count == 0 and alt.program_counter == 1


def _mlp_params(h=3, m=2, pad=0, seed=13):
    fam = BridgeFamily(MLP1H, m=m, hidden=h, pad=pad)
    gen = np.random.Generator(np.random.PCG64(seed))
    return fam, gen.uniform(-1.0, 1.0, size=fam.param_count)


def test_permutation_witness_passes_for_true_permutation():
    fam, params = _mlp_params(h=3)
    report = permutation_witness(fam, params, [2, 0, 1])
    assert report["verdict"] == "pass"
    assert report["max_deviation"] <= 1e-12
    assert report["params_changed"] is True


def test_permutation_witness_warns_on_identity_permutation():
    fam, params = _mlp_params(h=3)
    report = permutation_witness(fam, params, [0, 1, 2])
    assert report["verdict"] == "warning"
    assert report["params_changed"] is False


def test_permutation_witness_warns_for_width_one():
    fam, params = _mlp_params(h=1)
    report = permutation_witness(fam, params, [0])
    assert report["verdict"] == "warning"
    assert "width 1" in report["reason"]


def test_permutation_witness_input_validation():
    fam, params = _mlp_params(h=3)
    with pytest.raises(ValueError):
        permutation_witness(BridgeFamily(AFFINE1, m=2), np.zeros(6), [0])
    with pytest.raises(ValueError):
        permutation_witness(fam, params, [0, 0, 1])


def test_pad_witness_exact_zero_deviation():
    fam = BridgeFamily(AFFINE1, m=2, pad=2)
    gen = np.random.Generator(np.random.PCG64(4))
    params = gen.uniform(-1.0, 1.0, size=fam.param_count)
    report = pad_witness(fam, params)
    assert report["verdict"] == "pass"
    assert report["max_deviation"] == 0.0
    assert report["params_changed"] is True


def test_pad_witness_covers_every_family():
    gen = np.random.Generator(np.random.PCG64(6))
    for fam in [
        BridgeFamily(AFFINE1, m=3, pad=1),
        BridgeFamily(AFFINE2, m=2, pad=3),
        BridgeFamily(MLP1H, m=2, hidden=2, pad=2),
    ]:
        params = gen.uniform(-1.0, 1.0, size=fam.param_count)
        report = pad_witness(fam, params)
        assert report["verdict"] == "pass", fam.kind
        assert report["max_deviation"] == 0.0


def test_pad_witness_warns_without_pad():
    fam = BridgeFamily(AFFINE1, m=2)
    report = pad_witness(fam, np.zeros(6))
    assert report["verdict"] == "warning"


def test_grad_check_linear_families_tight():
    obj = commute_obj()
    obj["slots"].append({"kind": "affine2", "m": 2})
    config = config_from_json(obj)
    report = grad_check(config, n_samples=20, threshold=1e-7)
    assert report["verdict"] == "pass"
    assert report["worst_rel_err"] < 1e-7


def test_grad_check_mlp_within_fd_noise():
    config = config_from_json(mlp_obj())
    report = grad_check(config, n_samples=20, threshold=1e-5)
    assert report["verdict"] == "pass"
    assert report["worst_rel_err"] < 1e-5


def test_grad_check_is_deterministic():
    config = config_from_json(commute_obj())
    a = grad_check(config, n_samples=5, seed=3)
    b = grad_check(config, n_samples=5, seed=3)
    assert a == b


def test_grad_check_flags_a_coarse_probe_step():
    # a huge fd step breaks the quadrature, so the check must report it
    config = config_from_json(mlp_obj())
    report = grad_check(config, n_samples=5, fd_step=0.5)
    assert report["verdict"] == "fail"


# each caller of `iterate` or `evaluate` holds one errstate for its run: a
# diverging run raises DivergenceError, and no numpy warning escapes it
# (`simulator.run`'s case is in test_simulator.py)
@pytest.mark.parametrize("call", [
    lambda c: divergence_witness(c, initial_law_state(c.law)),
    lambda c: reduction_check(c),
    # a finite-difference step that overflows the loss
    lambda c: grad_check(c, n_samples=2, fd_step=1e300),
], ids=["divergence_witness", "reduction_check", "grad_check"])
def test_a_diverging_run_raises_without_numpy_warnings(call):
    config = config_from_json(commute_obj(steps=200, eta=1e9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError):
            call(config)
