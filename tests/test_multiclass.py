import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from test_corpus import FUZZ
from vowelkit.errors import FormatError, InvalidInput, VowelkitError
from vowelkit.kernels import Linear, Polynomial, Rbf, Sigmoid
from vowelkit.multiclass import (
    LabeledDataset,
    OvOModel,
    _support_table,
    _votes_and_scores,
    load_model,
    predict_ovo_batch,
    predict_phoneme,
    save_model,
    train_ovo,
    train_ovo_many,
)
from vowelkit.preprocessing import ScalerParams
from vowelkit.svm import BinaryModel, BinaryProblem, SvmParams, decision_values, smo_train


def blob_dataset(k, per_class=8, seed=0, spread=0.3):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-10, 10, size=(k, 2))
    rows, labels = [], []
    for cid in range(k):
        rows.append(centers[cid] + rng.normal(0, spread, size=(per_class, 2)))
        labels.extend([cid] * per_class)
    names = [f"c{cid:02d}" for cid in range(k)]
    return LabeledDataset(np.vstack(rows), np.array(labels), names)


class TestTrainOvo:
    def test_two_classes_one_binary(self):
        model = train_ovo(blob_dataset(2), SvmParams(C=10.0, kernel=Linear()))
        assert len(model.binaries) == 1
        assert model.pair_index == [(0, 1)]

    def test_three_class_pair_order(self):
        model = train_ovo(blob_dataset(3), SvmParams(C=10.0, kernel=Rbf(0.5)))
        assert model.pair_index == [(0, 1), (0, 2), (1, 2)]

    def test_pair_count_formula(self):
        for k in range(2, 26):
            pairs = list(itertools.combinations(range(k), 2))
            assert len(pairs) == k * (k - 1) // 2
        model = train_ovo(blob_dataset(6, per_class=4), SvmParams(C=10.0, kernel=Rbf(0.5)))
        assert len(model.binaries) == 15

    def test_twenty_classes_190_binaries(self):
        model = train_ovo(blob_dataset(20, per_class=3), SvmParams(C=10.0, kernel=Rbf(0.5)))
        assert len(model.binaries) == 190

    def test_label_names_must_be_sorted(self):
        with pytest.raises(InvalidInput):
            LabeledDataset(np.zeros((2, 2)), np.array([0, 1]), ["b", "a"])

    @pytest.mark.parametrize("kernel", [Rbf(0.5), Sigmoid(0.5, -1.0)])
    def test_binaries_equal_per_pair_smo_train(self, kernel):
        data = blob_dataset(5, per_class=9, seed=4, spread=3.0)
        keep = np.ones(data.labels.size, dtype=bool)
        keep[[0, 1, 2, 10, 30, 31]] = False  # classes of unequal size, so pairs of unequal l
        data = LabeledDataset(data.X[keep], data.labels[keep], data.label_names)
        params = SvmParams(C=100.0, kernel=kernel)
        model = train_ovo(data, params)
        for (i, j), binary in zip(model.pair_index, model.binaries):
            mask = (data.labels == i) | (data.labels == j)
            y = np.where(data.labels[mask] == i, 1.0, -1.0)
            one = smo_train(BinaryProblem(data.X[mask], y), params)
            assert np.array_equal(binary.support_vectors, one.support_vectors)
            assert np.array_equal(binary.sv_alphas, one.sv_alphas)
            assert np.array_equal(binary.sv_labels, one.sv_labels)
            assert (binary.bias, binary.n_iter, binary.gap, binary.converged) == (
                one.bias, one.n_iter, one.gap, one.converged)

    def test_single_class_rejected(self):
        with pytest.raises(InvalidInput):
            LabeledDataset(np.zeros((2, 2)), np.array([0, 0]), ["a"])

    def test_class_without_frames_is_named(self):
        data = blob_dataset(4)
        keep = data.labels != 2
        with pytest.raises(InvalidInput, match=r"^no training frames for class\(es\) c02$"):
            train_ovo(LabeledDataset(data.X[keep], data.labels[keep], data.label_names),
                      SvmParams(C=10.0, kernel=Linear()))

    def test_many_params_equal_one_train_ovo_each(self, tmp_path):
        data = blob_dataset(4, per_class=7, seed=5, spread=3.0)
        params_list = [SvmParams(C=c, kernel=kernel) for kernel in (Rbf(0.5), Linear())
                       for c in (1.0, 100.0)]
        models = train_ovo_many(data, params_list, fingerprint="f")
        assert len(models) == len(params_list)
        for n, (many, params) in enumerate(zip(models, params_list)):
            one = train_ovo(data, params, fingerprint="f")
            assert many.pair_index == one.pair_index
            assert many.not_converged == one.not_converged
            save_model(many, tmp_path / f"many{n}.svmodel")
            save_model(one, tmp_path / f"one{n}.svmodel")
            assert ((tmp_path / f"many{n}.svmodel").read_bytes()
                    == (tmp_path / f"one{n}.svmodel").read_bytes())


class TestPredictOvo:
    def test_blobs_classified_correctly(self):
        data = blob_dataset(4, seed=1)
        model = train_ovo(data, SvmParams(C=10.0, kernel=Rbf(0.5)))
        preds = predict_ovo_batch(model, data.X)
        assert np.array_equal(preds, data.labels)

    def test_two_class_vote(self):
        data = blob_dataset(2, seed=2)
        model = train_ovo(data, SvmParams(C=10.0, kernel=Linear()))
        assert predict_ovo_batch(model, data.X[:1])[0] == 0

    def test_class_ids_in_range(self):
        data = blob_dataset(5, seed=3)
        model = train_ovo(data, SvmParams(C=10.0, kernel=Rbf(0.5)))
        rng = np.random.default_rng(4)
        preds = predict_ovo_batch(model, rng.uniform(-15, 15, size=(50, 2)))
        assert np.all((preds >= 0) & (preds < 5))

    def test_deterministic(self):
        data = blob_dataset(4, seed=5)
        model = train_ovo(data, SvmParams(C=10.0, kernel=Rbf(0.5)))
        rng = np.random.default_rng(6)
        x = rng.uniform(-12, 12, size=(30, 2))
        first = predict_ovo_batch(model, x)
        for _ in range(5):
            assert np.array_equal(predict_ovo_batch(model, x), first)

    def test_relabeling_symmetry(self):
        # swapping a pair's orientation and negating its decision leaves votes unchanged
        data = blob_dataset(3, seed=7)
        model = train_ovo(data, SvmParams(C=10.0, kernel=Rbf(0.5)))
        swapped_binaries = []
        for binary in model.binaries:
            swapped_binaries.append(
                BinaryModel(
                    support_vectors=binary.support_vectors,
                    sv_alphas=binary.sv_alphas,
                    sv_labels=-binary.sv_labels,
                    bias=-binary.bias,
                    kernel=binary.kernel,
                    C=binary.C,
                )
            )
        swapped = OvOModel(
            label_names=model.label_names,
            pair_index=[(j, i) for i, j in model.pair_index],
            binaries=swapped_binaries,
        )
        # (j, i) orientation is not the canonical order, so compare vote winners
        # through the voting helper on a batch of probes
        rng = np.random.default_rng(8)
        probes = rng.uniform(-12, 12, size=(40, 2))
        assert np.array_equal(
            predict_ovo_batch(model, probes), predict_ovo_batch(swapped, probes)
        )

    def test_three_way_tie_uses_strength(self):
        data = blob_dataset(3, seed=9)
        model = train_ovo(data, SvmParams(C=10.0, kernel=Rbf(0.5)))
        rng = np.random.default_rng(10)
        from vowelkit.multiclass import _votes_and_scores

        probes = rng.uniform(-12, 12, size=(200, 2))
        votes, strength = _votes_and_scores(model, probes)
        preds = predict_ovo_batch(model, probes)
        for v, s, pred in zip(votes, strength, preds):
            tied = np.where(v == v.max())[0]
            assert pred == int(tied[np.argmax(s[tied])])


class TestPredictPhoneme:
    def test_single_frame(self):
        data = blob_dataset(3, seed=11)
        model = train_ovo(data, SvmParams(C=10.0, kernel=Rbf(0.5)))
        x = data.X[0]
        assert predict_phoneme(model, x[None, :]) == predict_ovo_batch(model, x[None, :])[0]

    def test_majority_over_frames(self):
        data = blob_dataset(3, seed=12)
        model = train_ovo(data, SvmParams(C=10.0, kernel=Rbf(0.5)))
        a = data.X[data.labels == 0][:2]
        b = data.X[data.labels == 1][:1]
        frames = np.vstack([a, b])
        assert predict_phoneme(model, frames) == 0

    def test_two_frame_tie_takes_middle(self):
        data = blob_dataset(2, seed=13)
        model = train_ovo(data, SvmParams(C=10.0, kernel=Rbf(0.5)))
        a = data.X[data.labels == 0][0]
        b = data.X[data.labels == 1][0]
        # two frames, one vote each: middle frame index is floor((2-1)/2) = 0
        assert predict_phoneme(model, np.vstack([a, b])) == 0
        assert predict_phoneme(model, np.vstack([b, a])) == 1

    def test_empty_rejected(self):
        data = blob_dataset(2, seed=14)
        model = train_ovo(data, SvmParams(C=10.0, kernel=Rbf(0.5)))
        with pytest.raises(InvalidInput):
            predict_phoneme(model, np.zeros((0, 2)))


class TestPersistence:
    def make_model(self, seed=15, k=3):
        data = blob_dataset(k, seed=seed)
        scaler = ScalerParams(data.X.min(axis=0), data.X.max(axis=0))
        return train_ovo(
            data, SvmParams(C=10.0, kernel=Rbf(0.027)), fingerprint="abc123", scaler=scaler
        )

    def test_round_trip_predictions(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.svmodel"
        save_model(model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(16)
        probes = rng.uniform(-12, 12, size=(100, 2))
        assert np.array_equal(
            predict_ovo_batch(model, probes), predict_ovo_batch(loaded, probes)
        )

    def test_reserialization_is_byte_identical(self, tmp_path):
        model = self.make_model()
        p1 = tmp_path / "m1.svmodel"
        p2 = tmp_path / "m2.svmodel"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_metadata_survives(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.svmodel"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.label_names == model.label_names
        assert loaded.pair_index == model.pair_index
        assert loaded.fingerprint == "abc123"
        assert np.array_equal(loaded.scaler.mins, model.scaler.mins)
        for a, b in zip(loaded.binaries, model.binaries):
            assert a.bias == b.bias
            assert np.array_equal(a.sv_alphas, b.sv_alphas)
            assert np.array_equal(a.support_vectors, b.support_vectors)

    def test_truncated_file_rejected(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.svmodel"
        save_model(model, path)
        text = path.read_text()
        truncated = tmp_path / "t.svmodel"
        truncated.write_text(text[: len(text) // 2])
        with pytest.raises(FormatError):
            load_model(truncated)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.svmodel"
        path.write_text("something-else 1\n")
        with pytest.raises(FormatError):
            load_model(path)

    def test_wrong_version_rejected(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.svmodel"
        save_model(model, path)
        lines = path.read_text().splitlines()
        lines[0] = "vowelkit-svmodel 99"
        bad = tmp_path / "v.svmodel"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            load_model(bad)


def reference_vote(model, X):
    """Votes, |f|-sums and winners from one decision_values call per pair."""
    votes = np.zeros((X.shape[0], model.k), dtype=int)
    strength = np.zeros((X.shape[0], model.k))
    for (i, j), binary in zip(model.pair_index, model.binaries):
        f = decision_values(binary, X)
        votes[f >= 0.0, i] += 1
        votes[f < 0.0, j] += 1
        strength[:, i] += np.abs(f)
        strength[:, j] += np.abs(f)
    preds = []
    for v, s in zip(votes, strength):
        tied = np.where(v == v.max())[0]
        preds.append(int(tied[np.argmax(s[tied])]))
    return votes, strength, np.array(preds)


def with_binary(model, index, binary):
    binaries = list(model.binaries)
    binaries[index] = binary
    return OvOModel(model.label_names, model.pair_index, binaries, model.scaler,
                    model.fingerprint)


def shared_sv_model(kernel, k=5, seed=20):
    """Overlapping blobs, so most support vectors serve several pairs."""
    model = train_ovo(blob_dataset(k, per_class=10, seed=seed, spread=4.0),
                      SvmParams(C=1.0, kernel=kernel))
    stacked = np.vstack([b.support_vectors for b in model.binaries])
    assert np.unique(stacked, axis=0).shape[0] < stacked.shape[0]
    return model


KERNELS = [Polynomial(0.05, 1.0, 3), Rbf(0.5), Sigmoid(0.05, -1.0), Linear()]


def _with_nan(values, n=0):
    values = np.array(values, dtype=float)
    values.flat[n] = np.nan
    return values


def _edit_pair(edit):
    return lambda model: with_binary(model, 1, edit(model.binaries[1]))


# edits of a 3-class model with a 2-D scaler that load_model would reject once saved
UNSAVABLE = {
    "nan bias": _edit_pair(lambda b: replace(b, bias=float("nan"))),
    "infinite C": _edit_pair(lambda b: replace(b, C=float("inf"))),
    "nan alpha": _edit_pair(lambda b: replace(b, sv_alphas=_with_nan(b.sv_alphas))),
    "nan support vector": _edit_pair(
        lambda b: replace(b, support_vectors=_with_nan(b.support_vectors, 1))),
    "nan scaler bound": lambda model: replace(
        model, scaler=ScalerParams(_with_nan(model.scaler.mins), model.scaler.maxs)),
    "mixed dimensions": _edit_pair(lambda b: replace(
        b, support_vectors=np.hstack([b.support_vectors, b.support_vectors[:, :1]]))),
    "scaler dimension": lambda model: replace(
        model, scaler=ScalerParams(np.full(3, -20.0), np.full(3, 20.0))),
    "unsorted labels": lambda model: replace(model, label_names=["b", "a", "c"]),
    "repeated label": lambda model: replace(model, label_names=["a", "a", "c"]),
    "label with a space": lambda model: replace(model, label_names=["a a", "b", "c"]),
}


class TestSupportVectorTable:
    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: type(k).__name__)
    def test_matches_per_pair_vote(self, kernel):
        model = shared_sv_model(kernel)
        probes = np.random.default_rng(21).uniform(-12, 12, size=(300, 2))
        votes, strength, preds = reference_vote(model, probes)
        got_votes, got_strength = _votes_and_scores(model, probes)
        assert np.array_equal(got_votes, votes)
        assert np.allclose(got_strength, strength, rtol=1e-12, atol=1e-12)
        assert np.array_equal(predict_ovo_batch(model, probes), preds)

    @pytest.mark.parametrize("dim", [0, 2])
    def test_pair_without_support_vectors(self, dim):
        model = shared_sv_model(Rbf(0.5))
        empty = BinaryModel(np.zeros((0, dim)), [], [], bias=0.25, kernel=Rbf(0.5))
        model = with_binary(model, 3, empty)
        probes = np.random.default_rng(22).uniform(-12, 12, size=(100, 2))
        assert np.array_equal(predict_ovo_batch(model, probes), reference_vote(model, probes)[2])

    def test_no_support_vectors_at_all(self):
        model = shared_sv_model(Linear(), k=3)
        for p in range(3):
            model = with_binary(model, p, BinaryModel(np.zeros((0, 2)), [], [], bias=p - 1.0,
                                                      kernel=Linear()))
        # pair (0, 1) votes 1, (0, 2) votes 0, (1, 2) votes 1
        assert np.array_equal(predict_ovo_batch(model, np.zeros((4, 2))), [1, 1, 1, 1])

    def test_mixed_kernels_rejected(self, tmp_path):
        model = shared_sv_model(Rbf(0.5), k=3)
        b = model.binaries[1]
        mixed = with_binary(model, 1, BinaryModel(b.support_vectors, b.sv_alphas, b.sv_labels,
                                                  b.bias, kernel=Rbf(0.25)))
        with pytest.raises(InvalidInput):
            predict_ovo_batch(mixed, np.zeros((1, 2)))
        with pytest.raises(InvalidInput):
            save_model(mixed, tmp_path / "m.svmodel")

    @pytest.mark.parametrize("name", sorted(UNSAVABLE))
    def test_save_refuses_what_load_rejects(self, tmp_path, name):
        model = shared_sv_model(Rbf(0.5), k=3)
        model.scaler = ScalerParams(np.full(2, -20.0), np.full(2, 20.0))
        save_model(model, tmp_path / "m.svmodel")
        with pytest.raises(InvalidInput):
            save_model(UNSAVABLE[name](model), tmp_path / "bad.svmodel")
        assert not (tmp_path / "bad.svmodel").exists()

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: type(k).__name__)
    def test_table_holds_each_distinct_vector_once(self, kernel):
        model = shared_sv_model(kernel)
        table_kernel, U, rows = _support_table(model)
        assert table_kernel == kernel
        for binary, pair_rows in zip(model.binaries, rows):
            assert np.array_equal(U[pair_rows], binary.support_vectors)
        assert np.unique(U, axis=0).shape[0] == len(U)
        assert len(U) < sum(len(b.support_vectors) for b in model.binaries)

    def test_dimension_mismatch_rejected(self):
        model = shared_sv_model(Rbf(0.5), k=3)
        with pytest.raises(InvalidInput):
            predict_ovo_batch(model, np.zeros((1, 3)))

    def test_save_load_save_byte_identical_with_shared_vectors(self, tmp_path):
        model = shared_sv_model(Sigmoid(0.05, -1.0))
        model.scaler = ScalerParams(np.full(2, -20.0), np.full(2, 20.0))
        p1, p2 = tmp_path / "m1.svmodel", tmp_path / "m2.svmodel"
        save_model(model, p1)
        loaded = load_model(p1)
        save_model(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for a, b in zip(loaded.binaries, model.binaries):
            assert np.array_equal(a.support_vectors, b.support_vectors)
            assert np.array_equal(a.sv_alphas * a.sv_labels, b.sv_alphas * b.sv_labels)

    def test_crlf_copy_predicts_the_same(self, tmp_path):
        model = shared_sv_model(Rbf(0.5))
        path, crlf = tmp_path / "m.svmodel", tmp_path / "crlf.svmodel"
        save_model(model, path)
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        probes = np.random.default_rng(23).uniform(-12, 12, size=(100, 2))
        assert np.array_equal(predict_ovo_batch(load_model(crlf), probes),
                              predict_ovo_batch(load_model(path), probes))


def _field(prefix, n, value):
    """Set whitespace field n of the first line that starts with prefix."""
    def mutate(lines):
        k = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        fields = lines[k].split()
        fields[n] = value
        return lines[:k] + [" ".join(fields)] + lines[k + 1:]
    return mutate


def _drop_scaler_and_shorten_first_sv(lines):
    lines = [("scaler none" if line.startswith("scaler_min") else line)
             for line in lines if not line.startswith("scaler_max")]
    k = next(i for i, line in enumerate(lines) if line.startswith("sv "))
    return lines[:k] + [lines[k].rsplit(" ", 1)[0]] + lines[k + 1:]


def _first_pair_only(lines):
    """Cut the model to its first pair block and count one pair."""
    second = [n for n, line in enumerate(lines) if line.startswith("pair ")][1]
    return [("pairs 1" if line.startswith("pairs ") else line)
            for line in lines[:second] + lines[-1:]]


def _labels(edit):
    """Replace the label names by edit(names)."""
    return lambda lines: [("labels " + " ".join(edit(line.split()[1:]))
                           if line.startswith("labels ") else line) for line in lines]


# name -> edit of a saved model's lines that load_model must reject with FormatError
MALFORMED = {
    "version": _field("vowelkit-svmodel", 1, "one"),
    "blank pair count": _field("pairs", 1, ""),
    "kernel parameter": _field("kernel", 2, "sigma=abc"),
    "non-finite kernel parameter": _field("kernel", 2, "sigma=nan"),
    "non-integer polynomial degree": lambda lines: [
        "kernel polynomial d=3.5 r=0 sigma=1" if line.startswith("kernel ") else line
        for line in lines],
    "scaler value": _field("scaler_min", 1, "abc"),
    "non-finite scaler value": _field("scaler_max", 1, "inf"),
    "pair bias": _field("pair ", 3, "bias=abc"),
    "non-finite pair C": _field("pair ", 4, "C=nan"),
    "pair class id": _field("pair ", 2, "99"),
    "missing pair": _first_pair_only,
    "repeated pair": _field("pair ", 2, "2"),
    "unsorted labels": _labels(lambda names: names[::-1]),
    "duplicate label": _labels(lambda names: names[:1] + names[:-1]),
    "one label": _labels(lambda names: names[:1]),
    "sv alpha": _field("sv ", 1, "abc"),
    "non-finite sv alpha": _field("sv ", 1, "inf"),
    "sv label": _field("sv ", 2, "+2"),
    "sv value": _field("sv ", 3, "abc"),
    "non-finite sv value": _field("sv ", 3, "nan"),
    "sv dimension within the model": _drop_scaler_and_shorten_first_sv,
    "sv dimension against the scaler": lambda lines: [
        line.rsplit(" ", 1)[0] if line.startswith("sv ") else line for line in lines],
    "no end marker": lambda lines: lines[:-1] + ["fin"],
    "not utf-8": _field("labels", 1, "\udce6"),  # written as the single byte 0xe6
}


def write_malformed(source, dest, name):
    lines = MALFORMED[name](source.read_text().splitlines())
    dest.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
    return dest


class TestMalformedModel:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_rejected_with_format_error(self, tmp_path, name):
        model = TestPersistence().make_model()
        save_model(model, tmp_path / "m.svmodel")
        bad = write_malformed(tmp_path / "m.svmodel", tmp_path / "bad.svmodel", name)
        with pytest.raises(FormatError):
            load_model(bad)

    def test_unedited_copy_loads(self, tmp_path):
        save_model(TestPersistence().make_model(), tmp_path / "m.svmodel")
        lines = (tmp_path / "m.svmodel").read_text().splitlines()
        (tmp_path / "copy.svmodel").write_text("\n".join(lines) + "\n")
        load_model(tmp_path / "copy.svmodel")


# tokens a fuzzed model file may gain: numbers at the edges, field names and line keys
FUZZ_TOKENS = ["", "0", "1", "-1", "+1", "2", "99", "nan", "inf", "-inf", "1e400", "abc", "=",
               "bias=", "C=0", "nsv=-1", "nsv=3", "converged=x", "pair", "pairs", "sv", "end",
               "scaler", "none", "scaler none", "rbf", "sigmoid", "polynomial", "linear",
               "sigma=0", "sigma=1", "d=0", "r=nan", "\u00e6"]


def _mutate(lines, edit):
    """Apply one (kind, line index, field index, token) edit to a model file's lines."""
    kind, n, f, token = edit
    if not lines:
        return [token]
    n %= len(lines)
    if kind == "delete line":
        return lines[:n] + lines[n + 1:]
    if kind == "insert line":
        return lines[:n] + [token or lines[f % len(lines)]] + lines[n:]
    fields = lines[n].split(" ")
    f %= len(fields)
    if kind == "replace":
        fields[f] = token
    elif kind == "insert":
        fields.insert(f, token)
    else:
        del fields[f]
    return lines[:n] + [" ".join(fields)] + lines[n + 1:]


class TestFuzzedModel:
    @FUZZ
    @given(st.lists(st.tuples(
        st.sampled_from(["replace", "insert", "delete", "delete line", "insert line"]),
        st.integers(0, 63), st.integers(0, 63),
        st.one_of(st.sampled_from(FUZZ_TOKENS), st.text(max_size=6)),
    ), min_size=1, max_size=4))
    def test_only_toolkit_errors_escape(self, tmp_path, edits):
        path = tmp_path / "m.svmodel"
        if not path.exists():
            save_model(TestPersistence().make_model(), path)
        lines = path.read_text().splitlines()
        for edit in edits:
            lines = _mutate(lines, edit)
        fuzzed = tmp_path / "fuzzed.svmodel"
        fuzzed.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            load_model(fuzzed)
        except VowelkitError:
            pass
