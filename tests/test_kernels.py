import numpy as np
import pytest

from vowelkit.errors import InvalidInput
from vowelkit.kernels import (
    Linear,
    Polynomial,
    Rbf,
    Sigmoid,
    gram_matrix,
    kernel_eval,
    make_kernel,
    psd_check,
)
from vowelkit.multiclass import OvOModel, load_model, save_model
from vowelkit.svm import BinaryModel


class TestKernelEval:
    def test_rbf_zero_distance(self):
        x = np.array([0.3, -1.2])
        assert kernel_eval(Rbf(5.0), x, x) == pytest.approx(1.0)

    def test_rbf_hand_value(self):
        val = kernel_eval(Rbf(0.5), np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert val == pytest.approx(np.exp(-1.0))

    def test_polynomial_orthogonal(self):
        val = kernel_eval(Polynomial(1.0, 0.0, 3), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert val == 0.0

    def test_polynomial_hand_value(self):
        val = kernel_eval(Polynomial(1.0, 0.0, 3), np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert val == pytest.approx(8.0)

    def test_sigmoid_orthogonal(self):
        val = kernel_eval(Sigmoid(1.0, 0.0), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert val == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            kernel_eval(Rbf(1.0), np.zeros(2), np.zeros(3))

    def test_symmetry_all_kernels(self):
        rng = np.random.default_rng(0)
        specs = [Rbf(0.7), Polynomial(0.5, 1.0, 4), Sigmoid(0.3, -0.2), Linear()]
        for _ in range(100):
            x, y = rng.normal(size=(2, 6))
            for spec in specs:
                assert kernel_eval(spec, x, y) == pytest.approx(
                    kernel_eval(spec, y, x), abs=1e-12
                )

    def test_value_ranges(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x, y = rng.normal(size=(2, 5))
            r = kernel_eval(Rbf(0.9), x, y)
            assert 0.0 < r <= 1.0
            s = kernel_eval(Sigmoid(0.9, 0.1), x, y)
            assert -1.0 < s < 1.0

    def test_linear_equals_degree_one_polynomial(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x, y = rng.normal(size=(2, 4))
            assert kernel_eval(Linear(), x, y) == kernel_eval(Polynomial(1.0, 0.0, 1), x, y)


class TestGramMatrix:
    def test_single_vector_rbf(self):
        g = gram_matrix(Rbf(1.0), np.array([[1.0, 2.0]]))
        assert np.allclose(g, [[1.0]])

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 5))
        for spec in (Rbf(0.4), Polynomial(), Sigmoid(), Linear()):
            g = gram_matrix(spec, x)
            assert np.allclose(g, g.T, atol=1e-12)

    def test_hand_2x2(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        g = gram_matrix(Rbf(0.5), x)
        assert np.allclose(g, [[1.0, np.exp(-1)], [np.exp(-1), 1.0]])

    def test_matches_elementwise_eval(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(4, 3))
        g = gram_matrix(Polynomial(0.8, 0.5, 2), x, y)
        for i in range(6):
            for j in range(4):
                assert g[i, j] == pytest.approx(
                    kernel_eval(Polynomial(0.8, 0.5, 2), x[i], y[j]), abs=1e-12
                )

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            gram_matrix(Rbf(1.0), np.zeros((3, 2)), np.zeros((3, 4)))


class TestPsdCheck:
    def test_identity(self):
        is_psd, min_eig = psd_check(np.eye(4))
        assert is_psd and min_eig == pytest.approx(1.0)

    def test_known_indefinite(self):
        is_psd, min_eig = psd_check(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert not is_psd
        assert min_eig == pytest.approx(-1.0)

    def test_rbf_gram_is_psd(self):
        rng = np.random.default_rng(5)
        g = gram_matrix(Rbf(0.3), rng.normal(size=(50, 8)))
        is_psd, _ = psd_check(g, tol=1e-8)
        assert is_psd

    def test_sigmoid_can_fail_psd(self):
        found = _find_non_psd_sigmoid(seed=0)
        assert found is not None
        _spec, min_eig = found
        assert min_eig < 0.0

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInput):
            psd_check(np.array([[0.0, 1.0], [0.5, 0.0]]))


def _find_non_psd_sigmoid(seed):
    rng = np.random.default_rng(seed)
    for sigma in (0.5, 1.0, 2.0, 5.0):
        for r in (0.0, -1.0, 1.0):
            pts = rng.uniform(-2.0, 2.0, size=(8, 3))
            g = gram_matrix(Sigmoid(sigma, r), pts)
            g = 0.5 * (g + g.T)
            is_psd, min_eig = psd_check(g, tol=1e-8)
            if not is_psd and min_eig < 0.0:
                return Sigmoid(sigma, r), min_eig
    return None


def _one_pair_model(spec):
    binary = BinaryModel(np.array([[0.5, -1.0]]), [0.25], [1.0], bias=0.125, kernel=spec, C=10.0)
    return OvOModel(["a", "b"], [binary])


class TestSpecsAndSerialization:
    def test_parameter_validation(self):
        with pytest.raises(InvalidInput):
            Rbf(0.0)
        with pytest.raises(InvalidInput):
            Polynomial(sigma=-1.0)
        with pytest.raises(InvalidInput):
            Polynomial(d=0)

    def test_round_trip(self, tmp_path):
        for n, spec in enumerate((Rbf(0.027), Polynomial(2.0, 1.0, 3), Sigmoid(0.5, -1.0),
                                  Linear())):
            first, second = tmp_path / f"{n}a.svmodel", tmp_path / f"{n}b.svmodel"
            save_model(_one_pair_model(spec), first)
            loaded = load_model(first)
            assert loaded.binaries[0].kernel == spec
            save_model(loaded, second)
            assert first.read_bytes() == second.read_bytes()

    def test_line_shape(self, tmp_path):
        lines = {"rbf sigma=0.027": Rbf(0.027), "polynomial d=3 r=0 sigma=0.5": Polynomial(0.5),
                 "sigmoid r=0 sigma=2": Sigmoid(2.0), "linear": Linear()}
        for line, spec in lines.items():
            save_model(_one_pair_model(spec), tmp_path / "m.svmodel")
            assert (tmp_path / "m.svmodel").read_text().splitlines()[2] == "kernel " + line

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(InvalidInput):
            save_model(_one_pair_model(object()), tmp_path / "unknown.svmodel")
        assert not (tmp_path / "unknown.svmodel").exists()

    def test_non_integer_degree(self, tmp_path):
        # d=3.5 is a FormatError: see MALFORMED in test_multiclass.py
        path = tmp_path / "m.svmodel"
        save_model(_one_pair_model(Polynomial(d=3)), path)
        path.write_text(path.read_text().replace("polynomial d=3 ", "polynomial d=3.0 "))
        spec = load_model(path).binaries[0].kernel
        assert spec == Polynomial(d=3) and type(spec.d) is int

    def test_make_kernel_defaults(self):
        assert make_kernel("polynomial", 2.0) == Polynomial(2.0, 0.0, 3)
        assert make_kernel("sigmoid", 0.5) == Sigmoid(0.5, 0.0)
        assert make_kernel("rbf", 0.027) == Rbf(0.027)
        with pytest.raises(InvalidInput):
            make_kernel("spline", 1.0)
