import numpy as np
import pytest

from vowelkit.errors import InvalidInput
from vowelkit.preprocessing import ScalerParams, apply_scaler, fit_scaler


def test_fit_per_column_extrema():
    params = fit_scaler(np.array([[0.0, 10.0], [4.0, 30.0]]))
    assert np.array_equal(params.mins, [0.0, 10.0])
    assert np.array_equal(params.maxs, [4.0, 30.0])


def test_fit_single_column():
    params = fit_scaler(np.array([[2.0], [4.0], [6.0]]))
    assert params.mins[0] == 2.0 and params.maxs[0] == 6.0


def test_fit_constant_column():
    params = fit_scaler(np.array([[5.0], [5.0], [5.0]]))
    assert params.mins[0] == params.maxs[0] == 5.0


def test_fit_empty_rejected():
    with pytest.raises(InvalidInput):
        fit_scaler(np.zeros((0, 3)))


def test_apply_maps_training_range_to_unit():
    train = np.array([[2.0], [4.0], [6.0]])
    out = apply_scaler(fit_scaler(train), train)
    assert np.allclose(out[:, 0], [0.0, 0.5, 1.0])


def test_constant_column_maps_to_zero():
    train = np.array([[5.0, 1.0], [5.0, 2.0]])
    out = apply_scaler(fit_scaler(train), train)
    assert np.allclose(out[:, 0], 0.0)


def test_out_of_range_clamped():
    params = fit_scaler(np.array([[0.0], [10.0]]))
    out = apply_scaler(params, np.array([[15.0], [-3.0]]))
    assert np.allclose(out[:, 0], [1.0, 0.0])


def test_dimension_mismatch():
    params = fit_scaler(np.array([[0.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(InvalidInput):
        apply_scaler(params, np.zeros((3, 3)))


@pytest.mark.parametrize("shape", [(2,), (1, 1, 2), ()])
def test_only_a_matrix_is_scaled(shape):
    params = fit_scaler(np.array([[0.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(InvalidInput):
        apply_scaler(params, np.zeros(shape))


def test_training_data_covers_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(20):
        train = rng.normal(size=(30, 6)) * rng.uniform(0.1, 50)
        out = apply_scaler(fit_scaler(train), train)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert np.allclose(out.min(axis=0), 0.0)
        assert np.allclose(out.max(axis=0), 1.0)


def test_refit_on_scaled_data_is_idempotent():
    rng = np.random.default_rng(1)
    train = rng.normal(size=(25, 4))
    once = apply_scaler(fit_scaler(train), train)
    twice = apply_scaler(fit_scaler(once), once)
    assert np.allclose(once, twice)


def test_params_validation():
    with pytest.raises(InvalidInput):
        ScalerParams(np.array([1.0]), np.array([0.0]))
