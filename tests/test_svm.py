import tracemalloc

import numpy as np
import pytest

from oracles import qp_dual_optimum
from vowelkit.errors import InvalidInput
import vowelkit.svm as svm
from vowelkit.kernels import (
    Linear,
    Polynomial,
    Rbf,
    Sigmoid,
    gram_matrix,
    make_kernel,
    psd_check,
)
from vowelkit.svm import (
    BinaryModel,
    BinaryProblem,
    SvmParams,
    decision_values,
    dual_objective,
    smo_train,
    smo_train_many,
)


@pytest.fixture
def two_point_problem():
    return BinaryProblem(np.array([[0.0, 0.0], [2.0, 2.0]]), np.array([-1.0, 1.0]))


@pytest.fixture
def two_point_model(two_point_problem):
    return smo_train(two_point_problem, SvmParams(C=100.0, kernel=Linear()))


class TestAnalyticTwoPoint:
    def test_alphas(self, two_point_model):
        assert np.allclose(np.sort(two_point_model.sv_alphas), [0.25, 0.25], atol=1e-6)

    def test_bias(self, two_point_model):
        assert two_point_model.bias == pytest.approx(-1.0, abs=1e-6)

    def test_dual_objective(self, two_point_model, two_point_problem):
        assert dual_objective(two_point_model, two_point_problem) == pytest.approx(0.25, abs=1e-6)

    def test_implicit_weight_vector(self, two_point_model):
        w = (two_point_model.sv_alphas * two_point_model.sv_labels) @ two_point_model.support_vectors
        assert np.allclose(w, [0.5, 0.5], atol=1e-6)

    def test_decision_values_on_line(self, two_point_model):
        f = decision_values(two_point_model, np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]))
        assert np.allclose(f, [0.0, 1.0, -1.0], atol=1e-6)


class TestPredictBinary:
    def test_sign_convention(self, two_point_model):
        from vowelkit.multiclass import OvOModel, predict_ovo_batch

        f = decision_values(two_point_model, np.array([[3.0, 3.0], [-1.0, -1.0]]))
        assert f[0] > 0.0 and f[1] < 0.0
        # f(x) = 0 exactly: the declared tie rule is +1, the pair's first class
        flat = BinaryModel(np.zeros((0, 2)), [], [], bias=0.0, kernel=Linear())
        model = OvOModel(["a", "b"], [flat])
        assert decision_values(flat, np.zeros((1, 2)))[0] == 0.0
        assert predict_ovo_batch(model, np.zeros((1, 2)))[0] == 0

    def test_dimension_mismatch(self, two_point_model):
        with pytest.raises(InvalidInput):
            decision_values(two_point_model, np.zeros((1, 3)))
        with pytest.raises(InvalidInput):
            decision_values(two_point_model, np.zeros(2))


class TestBinaryModelChecks:
    @pytest.mark.parametrize("support_vectors, alphas, labels", [
        (np.eye(3), [0.5, 0.5], [1.0, -1.0]),
        (np.eye(2), [0.5, 0.5], [1.0, 0.5]),
        (np.eye(2), [0.5, 0.5, 0.5], [1.0, -1.0, 1.0]),
        (np.eye(2), [0.5, 0.5], [1.0, np.nan]),
        (np.ones(2), [0.5, 0.5], [1.0, -1.0]),
        (np.eye(2), [[0.5, 0.5]], [[1.0, -1.0]]),
    ], ids=["more vectors than alphas", "label 0.5", "more alphas than vectors", "nan label",
            "vectors not a matrix", "alphas not a vector"])
    def test_inconsistent_arrays_rejected(self, support_vectors, alphas, labels):
        with pytest.raises(InvalidInput):
            BinaryModel(support_vectors, alphas, labels, bias=0.0, kernel=Linear())


def _slacks(model, problem):
    """xi_i = max(0, 1 - y_i f(x_i)) over the training set."""
    return np.maximum(0.0, 1.0 - problem.y * decision_values(model, problem.X))


class TestSlacks:
    def test_formula_cases(self):
        model = BinaryModel(
            support_vectors=np.array([[1.0]]),
            sv_alphas=np.array([1.0]),
            sv_labels=np.array([1.0]),
            bias=0.0,
            kernel=Linear(),
            C=1.0,
        )
        problem = BinaryProblem(
            np.array([[2.0], [1.0], [0.5]]), np.array([1.0, 1.0, -1.0])
        )
        # f(x) = x here; y*f = 2, 1, -0.5
        slacks = _slacks(model, problem)
        assert np.allclose(slacks, [0.0, 0.0, 1.5])

    def test_nonnegative_on_random_problems(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 2))
        y = np.sign(x[:, 0] + 0.1)
        y[y == 0] = 1.0
        problem = BinaryProblem(x, y)
        model = smo_train(problem, SvmParams(C=1.0, kernel=Rbf(0.5)))
        assert np.all(_slacks(model, problem) >= 0.0)


class TestInvariants:
    def test_box_and_equality_constraints(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            x = rng.normal(size=(12, 3))
            y = np.where(rng.random(12) < 0.5, -1.0, 1.0)
            y[0], y[1] = -1.0, 1.0
            c = float(rng.choice([0.1, 1.0, 10.0]))
            model = smo_train(BinaryProblem(x, y), SvmParams(C=c, kernel=Rbf(0.5)))
            assert np.all(model.sv_alphas > 0.0)
            assert np.all(model.sv_alphas <= c + 1e-12)
            balance = float(model.sv_alphas @ model.sv_labels)
            assert abs(balance) <= 1e-6 * max(model.sv_alphas.sum(), 1.0)

    def test_kkt_conditions_on_training_set(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 2))
        y = np.where(x[:, 0] + x[:, 1] > 0, 1.0, -1.0)
        problem = BinaryProblem(x, y)
        c = 10.0
        params = SvmParams(C=c, kernel=Rbf(1.0), kkt_tol=1e-3)
        model = smo_train(problem, params)
        f = decision_values(model, x)
        margins = y * f
        alpha = np.zeros(30)
        for vec, a in zip(model.support_vectors, model.sv_alphas):
            idx = np.where((x == vec).all(axis=1))[0][0]
            alpha[idx] = a
        tol = 2e-3  # kkt_tol plus numerical slop
        assert np.all(margins[alpha == 0.0] >= 1.0 - tol)
        inside = (alpha > 0.0) & (alpha < c)
        assert np.all(np.abs(margins[inside] - 1.0) <= tol)
        assert np.all(margins[alpha >= c] <= 1.0 + tol)

    def test_hard_margin_limit_on_separable_data(self):
        rng = np.random.default_rng(3)
        x = np.vstack([rng.normal(-3, 0.3, size=(15, 2)), rng.normal(3, 0.3, size=(15, 2))])
        y = np.concatenate([-np.ones(15), np.ones(15)])
        model = smo_train(BinaryProblem(x, y), SvmParams(C=1e6, kernel=Linear()))
        margins = y * decision_values(model, x)
        assert np.all(margins >= 1.0 - 1e-3)

    def test_one_class_rejected(self):
        with pytest.raises(InvalidInput):
            BinaryProblem(np.zeros((3, 2)), np.ones(3))

    @pytest.mark.parametrize("x, y, message", [
        (np.zeros(4), np.array([-1.0, 1.0, -1.0, 1.0]), "one label per row"),
        (np.zeros((3, 2)), np.array([-1.0, 1.0]), "one label per row"),
        (np.zeros((1, 2)), np.array([1.0]), "at least two"),
        (np.array([[0.0, 0.0], [np.nan, 1.0]]), np.array([-1.0, 1.0]), "finite"),
    ], ids=["vector X", "label count", "one point", "non-finite X"])
    def test_malformed_problem_rejected(self, x, y, message):
        with pytest.raises(InvalidInput, match=message):
            BinaryProblem(x, y)

    def test_sigmoid_training_terminates(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-2, 2, size=(40, 3))
        y = np.where(rng.random(40) < 0.5, -1.0, 1.0)
        y[0], y[1] = -1.0, 1.0
        params = SvmParams(C=10.0, kernel=Sigmoid(2.0, 0.0), max_iter=2000)
        model = smo_train(BinaryProblem(x, y), params)
        assert model.n_iter <= 2000
        # usable regardless of convergence
        decision_values(model, x)


class TestDualObjectiveOracle:
    def test_empty_model_objective(self):
        model = BinaryModel(
            support_vectors=np.zeros((0, 2)),
            sv_alphas=np.zeros(0),
            sv_labels=np.zeros(0),
            bias=0.0,
            kernel=Linear(),
        )
        problem = BinaryProblem(np.zeros((2, 2)), np.array([-1.0, 1.0]))
        assert dual_objective(model, problem) == 0.0

    def test_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(5)
        kernels = [Rbf(0.5), Rbf(2.0), Polynomial(1.0, 1.0, 2), Polynomial(0.5, 0.0, 3)]
        for trial in range(25):
            n = int(rng.integers(3, 7))
            x = rng.normal(size=(n, 2))
            y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            y[0], y[1] = -1.0, 1.0
            c = float(rng.choice([0.1, 1.0, 10.0]))
            kernel = kernels[trial % len(kernels)]
            problem = BinaryProblem(x, y)
            model = smo_train(problem, SvmParams(C=c, kernel=kernel, kkt_tol=1e-5))
            smo_obj = dual_objective(model, problem)
            oracle_obj, _ = qp_dual_optimum(gram_matrix(kernel, x), y, c)
            assert smo_obj == pytest.approx(oracle_obj, abs=1e-4)


class TestSeparableSanity:
    def test_two_blob_generalization(self):
        rng = np.random.default_rng(6)
        train_x = np.vstack(
            [rng.normal(0.0, 1.0, size=(50, 2)), rng.normal(10.0, 1.0, size=(50, 2))]
        )
        train_y = np.concatenate([-np.ones(50), np.ones(50)])
        model = smo_train(BinaryProblem(train_x, train_y), SvmParams(C=10.0, kernel=Rbf(0.1)))
        train_pred = np.where(decision_values(model, train_x) >= 0, 1.0, -1.0)
        assert np.all(train_pred == train_y)
        test_x = np.vstack(
            [rng.normal(0.0, 1.0, size=(100, 2)), rng.normal(10.0, 1.0, size=(100, 2))]
        )
        test_y = np.concatenate([-np.ones(100), np.ones(100)])
        test_pred = np.where(decision_values(model, test_x) >= 0, 1.0, -1.0)
        assert np.mean(test_pred == test_y) >= 0.99


def _alphas_on_rows(model, x):
    """Each training row's multiplier; zero for rows that are not support vectors."""
    alpha = np.zeros(x.shape[0])
    for vec, a in zip(model.support_vectors, model.sv_alphas):
        alpha[np.where((x == vec).all(axis=1))[0][0]] = a
    return alpha


class TestStoppingRule:
    def test_converged_exactly_when_gap_within_tol(self):
        rng = np.random.default_rng(7)
        seen = set()
        for trial in range(12):
            x = rng.normal(size=(30, 3))
            y = np.where(x[:, 0] + 0.5 * rng.normal(size=30) > 0, 1.0, -1.0)
            y[0], y[1] = -1.0, 1.0
            params = SvmParams(C=[1.0, 100.0][trial % 2], kernel=Rbf(1.0), kkt_tol=1e-3,
                               max_iter=[5, 0, 20][trial % 3])
            model = smo_train(BinaryProblem(x, y), params)
            assert model.converged == (model.gap <= params.kkt_tol)
            assert model.n_iter <= (params.max_iter or 100 * 30)
            seen.add(model.converged)
        assert seen == {True, False}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the kernel overflows on purpose
    def test_overflowing_kernel_is_not_converged(self):
        # (1e200 x.y)^3 is inf, so the gap ends at -inf and the bias at nan: -inf <= kkt_tol
        # holds, but a solve on non-finite numbers has not converged
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(20, 36))
        y = np.where(rng.uniform(size=20) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        params = SvmParams(C=10.0, kernel=make_kernel("polynomial", 1e200))
        (model,) = smo_train_many([BinaryProblem(x, y)], params)
        assert model.gap == -np.inf and np.isnan(model.bias)
        assert model.n_iter == 20
        assert not model.converged

    def test_indefinite_sigmoid_converges_and_meets_kkt(self):
        # large C with an indefinite Gram, where a solve can use up its update budget
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(100, 36))
        y = np.where(x[:, :18].sum(1) + rng.normal(0, 1, 100) > x[:, 18:].sum(1), 1.0, -1.0)
        kernel = Sigmoid(0.027, 0.0)
        is_psd, _min_eig = psd_check(gram_matrix(kernel, x))
        assert not is_psd
        c = 10000.0
        params = SvmParams(C=c, kernel=kernel)
        model = smo_train(BinaryProblem(x, y), params)
        assert model.converged
        assert model.n_iter <= 100 * x.shape[0]
        margins = y * decision_values(model, x)
        alpha = _alphas_on_rows(model, x)
        tol = params.kkt_tol + 1e-9
        assert np.all(margins[alpha == 0.0] >= 1.0 - tol)
        inside = (alpha > 0.0) & (alpha < c)
        assert np.all(np.abs(margins[inside] - 1.0) <= tol)
        assert np.all(margins[alpha >= c] <= 1.0 + tol)


class TestRowCachePath:
    @pytest.mark.parametrize("kernel", [Rbf(0.5), Polynomial(0.5, 1.0, 3), Sigmoid(0.5, -1.0)])
    def test_matches_full_gram(self, kernel, monkeypatch):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(60, 3))
        y = np.where(x[:, 0] - x[:, 1] + 0.3 * rng.normal(size=60) > 0, 1.0, -1.0)
        problem = BinaryProblem(x, y)
        params = SvmParams(C=10.0, kernel=kernel)
        full = smo_train(problem, params)
        monkeypatch.setattr(svm, "FULL_GRAM_LIMIT", 10)
        monkeypatch.setattr(svm, "ROW_CACHE_SIZE", 4)
        rows = smo_train(problem, params)
        assert np.array_equal(rows.support_vectors, full.support_vectors)
        assert np.allclose(rows.sv_alphas, full.sv_alphas, rtol=0.0, atol=1e-8)
        assert rows.bias == pytest.approx(full.bias, abs=1e-8)
        assert rows.converged and full.converged


def assert_same_model(a, b):
    assert np.array_equal(a.support_vectors, b.support_vectors)
    assert np.array_equal(a.sv_alphas, b.sv_alphas)
    assert np.array_equal(a.sv_labels, b.sv_labels)
    assert a.bias == b.bias
    assert a.n_iter == b.n_iter
    assert a.gap == b.gap
    assert a.converged == b.converged
    assert a.C == b.C and a.kernel == b.kernel


def random_problems(seed, sizes, dim=3, noise=0.5):
    rng = np.random.default_rng(seed)
    problems = []
    for l in sizes:
        x = rng.normal(size=(l, dim))
        y = np.where(x[:, 0] + noise * rng.normal(size=l) > 0, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        problems.append(BinaryProblem(x, y))
    return problems


class TestLockstep:
    """smo_train_many must give smo_train's models bit for bit."""

    @pytest.mark.parametrize("kernel", [Rbf(0.5), Polynomial(0.5, 1.0, 3), Sigmoid(0.5, -1.0),
                                        Linear()])
    @pytest.mark.parametrize("c", [1.0, 100.0])
    def test_unequal_sizes_match_one_by_one(self, kernel, c):
        problems = random_problems(11, [7, 40, 2, 23, 40, 15])
        params = SvmParams(C=c, kernel=kernel)
        for many, one in zip(smo_train_many(problems, params),
                             [smo_train(p, params) for p in problems]):
            assert_same_model(many, one)

    def test_indefinite_sigmoid_at_large_c(self):
        rng = np.random.default_rng(0)
        problems = []
        for l in (100, 60, 80):
            x = rng.uniform(0, 1, size=(l, 36))
            y = np.where(x[:, :18].sum(1) + rng.normal(0, 1, l) > x[:, 18:].sum(1), 1.0, -1.0)
            problems.append(BinaryProblem(x, y))
        params = SvmParams(C=10000.0, kernel=Sigmoid(0.027, 0.0))
        assert not psd_check(gram_matrix(params.kernel, problems[0].X))[0]
        for many, problem in zip(smo_train_many(problems, params), problems):
            assert_same_model(many, smo_train(problem, params))

    def test_one_problem_stops_at_max_iter(self):
        easy = [BinaryProblem(np.array([[0.0, 0.0], [2.0, 2.0]]), np.array([-1.0, 1.0]))] * 2
        hard = random_problems(3, [50], noise=2.0)
        problems = easy[:1] + hard + easy[1:]
        params = SvmParams(C=100.0, kernel=Rbf(1.0), max_iter=10)
        models = smo_train_many(problems, params)
        assert [m.converged for m in models] == [True, False, True]
        assert models[1].n_iter == 10
        for many, problem in zip(models, problems):
            assert_same_model(many, smo_train(problem, params))

    def test_batches_under_the_gram_budget(self, monkeypatch):
        monkeypatch.setattr(svm, "FULL_GRAM_LIMIT", 30)
        batches = []
        lockstep = svm._lockstep

        def recording(problems, params):
            batches.append([p.y.size for p in problems])
            return lockstep(problems, params)

        monkeypatch.setattr(svm, "_lockstep", recording)
        problems = random_problems(5, [10, 12, 8, 40, 15, 20, 9])
        params = SvmParams(C=10.0, kernel=Rbf(0.5))
        models = smo_train_many(problems, params)
        # at most 30**2 stacked Gram entries per batch; l = 40 is a batch of its own
        # on the row-cache path
        assert batches == [[10, 12, 8, 15], [20, 9], [40]]
        for many, problem in zip(models, problems):
            assert_same_model(many, smo_train(problem, params))

    def test_last_problem_continues_in_the_scalar_loop(self, monkeypatch):
        starts = []
        loop = svm._smo_loop

        def recording(row, diag, lo, hi, kkt_tol, max_iter, w, v, n_iter):
            starts.append(n_iter)
            return loop(row, diag, lo, hi, kkt_tol, max_iter, w, v, n_iter)

        monkeypatch.setattr(svm, "_smo_loop", recording)
        params = SvmParams(C=10.0, kernel=Rbf(0.5))
        models = smo_train_many(random_problems(9, [30, 30, 30]), params)
        assert len(starts) == 1
        assert 0 < starts[0] < max(m.n_iter for m in models)

    def test_no_problems(self):
        assert smo_train_many([], SvmParams(C=1.0, kernel=Linear())) == []

    @pytest.mark.parametrize("c_values", [(10.0,), (1.0, 10.0)], ids=["alone", "C twins"])
    def test_one_block_batch_holds_its_gram_once(self, c_values):
        problem = random_problems(41, [800])[0]
        params = [SvmParams(C=c, kernel=Rbf(0.5), max_iter=200) for c in c_values]
        tracemalloc.start()
        try:
            smo_train_many([problem] * len(params), params)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # building an RBF Gram takes three (l, l) arrays; the block is not copied on top
        assert peak < 3.5 * 800 * 800 * 8

    def test_params_per_problem_with_shared_problems(self):
        problems = random_problems(21, [7, 40, 2, 23], noise=1.0)
        settings = [
            SvmParams(C=1.0, kernel=Rbf(0.5)),
            SvmParams(C=100.0, kernel=Rbf(0.5), kkt_tol=1e-2),
            SvmParams(C=100.0, kernel=Rbf(0.5), max_iter=15),
            SvmParams(C=1.0, kernel=Polynomial(0.5, 1.0, 3)),
            SvmParams(C=10000.0, kernel=Sigmoid(0.5, -1.0)),
            SvmParams(C=10.0, kernel=Linear(), max_iter=40),
        ]
        # every problem under every setting, the C twins of a problem far apart
        pairs = [(p, q) for q in settings for p in problems]
        models = smo_train_many([p for p, _q in pairs], [q for _p, q in pairs])
        assert not all(m.converged for m in models)
        for many, (problem, params) in zip(models, pairs):
            assert_same_model(many, smo_train(problem, params))

    def test_params_must_match_problems(self):
        problems = random_problems(22, [5, 6])
        with pytest.raises(InvalidInput):
            smo_train_many(problems, [SvmParams(C=1.0, kernel=Linear())])

    def test_a_shared_gram_block_counts_once(self, monkeypatch):
        monkeypatch.setattr(svm, "FULL_GRAM_LIMIT", 30)  # four 15-row blocks per batch
        grams, batches = [], []
        gram, lockstep = svm.gram_matrix, svm._lockstep

        def counting(kernel, x, *rest):
            grams.append((kernel, x.shape[0]))
            return gram(kernel, x, *rest)

        def recording(problems, params):
            batches.append([(names[id(p)], q.C, type(q.kernel).__name__)
                            for p, q in zip(problems, params)])
            return lockstep(problems, params)

        monkeypatch.setattr(svm, "gram_matrix", counting)
        monkeypatch.setattr(svm, "_lockstep", recording)
        problems = random_problems(23, [15, 15, 15, 15, 10])
        names = {id(p): name for p, name in zip(problems, "abcde")}
        rbf, linear = Rbf(0.5), Linear()
        entries = [(p, SvmParams(C=c, kernel=rbf)) for c in (1.0, 10.0) for p in problems[:4]]
        entries += [(problems[3], SvmParams(C=1.0, kernel=linear)),
                    (problems[4], SvmParams(C=1.0, kernel=rbf))]
        models = smo_train_many([p for p, _q in entries], [q for _p, q in entries])
        # a C twin joins its block's batch and adds no Gram; counting problems,
        # not blocks, would have split the first batch after four of them
        assert batches == [
            [(n, c, "Rbf") for n in "abcd" for c in (1.0, 10.0)],
            [("d", 1.0, "Linear"), ("e", 1.0, "Rbf")],
        ]
        assert len(grams) == 6
        monkeypatch.setattr(svm, "gram_matrix", gram)
        for many, (problem, params) in zip(models, entries):
            assert_same_model(many, smo_train(problem, params))


class TestNonFiniteParameters:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["C", "kkt_tol"])
    def test_svm_parameter_rejected(self, name, value):
        with pytest.raises(InvalidInput):
            SvmParams(**{"C": 1.0, "kernel": Linear(), name: value})

    def test_negative_max_iter_rejected(self):
        with pytest.raises(InvalidInput):
            SvmParams(C=1.0, kernel=Linear(), max_iter=-5)

    @pytest.mark.parametrize("make", [
        lambda v: Rbf(v), lambda v: Polynomial(v, 0.0, 3), lambda v: Polynomial(1.0, v, 3),
        lambda v: Sigmoid(v, 0.0), lambda v: Sigmoid(1.0, v),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_kernel_parameter_rejected(self, make, value):
        with pytest.raises(InvalidInput):
            make(value)
