import numpy as np
import pytest

from vowelkit.errors import InvalidInput
from vowelkit.frame_select import (
    Fcm,
    MiddleFrames,
    fcm_cluster,
    fcm_select,
    select_frames,
    select_middle,
)


class TestSelectMiddle:
    def test_centered_window(self):
        feats = np.arange(7.0)[:, None]
        out = select_middle(feats, 3)
        assert np.array_equal(out[:, 0], [2.0, 3.0, 4.0])

    def test_identity_when_equal(self):
        feats = np.arange(3.0)[:, None]
        assert np.array_equal(select_middle(feats, 3), feats)

    def test_short_input_returns_all(self):
        feats = np.arange(2.0)[:, None]
        assert np.array_equal(select_middle(feats, 3), feats)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            select_middle(np.zeros((0, 4)), 3)

    def test_contiguous_slice_property(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            k = int(rng.integers(1, 10))
            feats = rng.normal(size=(n, 3))
            out = select_middle(feats, k)
            assert out.shape[0] == min(k, n)
            start = (n - k) // 2 if n > k else 0
            assert np.array_equal(out, feats[start : start + out.shape[0]])


class TestFcmCluster:
    def test_two_point_degenerate(self):
        feats = np.array([[0.0], [1.0]])
        state = fcm_cluster(feats, 2, seed=0)
        centers = np.sort(state.centers[:, 0])
        assert np.allclose(centers, [0.0, 1.0], atol=1e-6)
        assert np.allclose(np.sort(state.membership, axis=1)[:, -1], 1.0, atol=1e-6)

    def test_two_blob_memberships(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 1.0, size=(20, 2))
        b = rng.normal(10.0, 1.0, size=(20, 2)) + np.array([0.0, 10.0])
        state = fcm_cluster(np.vstack([a, b]), 2, seed=2)
        # every point leans >= 0.9 toward its own blob's cluster
        own = state.membership.max(axis=1)
        assert own.min() >= 0.9
        first_half = np.argmax(state.membership[:20], axis=1)
        second_half = np.argmax(state.membership[20:], axis=1)
        assert len(set(first_half)) == 1 and len(set(second_half)) == 1
        assert first_half[0] != second_half[0]

    def test_single_cluster_is_mean(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(15, 4))
        state = fcm_cluster(feats, 1, seed=0)
        assert np.allclose(state.centers[0], feats.mean(axis=0), atol=1e-9)
        assert np.allclose(state.membership, 1.0)

    def test_membership_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(30, 5))
        state = fcm_cluster(feats, 4, seed=5)
        assert np.allclose(state.membership.sum(axis=1), 1.0, atol=1e-9)

    def test_objective_monotone_random_data(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            feats = rng.normal(size=(rng.integers(5, 40), 3))
            objectives = _objective_trace(feats, c=3, seed=trial)
            diffs = np.diff(objectives)
            assert np.all(diffs <= 1e-9 * max(1.0, objectives[0]))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(25, 4))
        s1 = fcm_cluster(feats, 3, seed=11)
        s2 = fcm_cluster(feats, 3, seed=11)
        assert np.array_equal(s1.centers, s2.centers)
        assert np.array_equal(s1.membership, s2.membership)
        assert s1.objective == s2.objective

    def test_too_few_points(self):
        with pytest.raises(InvalidInput):
            fcm_cluster(np.zeros((2, 2)), 3)

    def test_bad_fuzzifier(self):
        with pytest.raises(InvalidInput):
            fcm_cluster(np.zeros((5, 2)), 2, m=1.0)


def _fcm_two_membership_passes(features, c, m=2.0, tol=1e-5, max_iter=300, seed=0):
    """fcm_cluster's loop as it was, with two membership computations per iteration."""
    from vowelkit.frame_select import FcmState, _memberships

    rng = np.random.default_rng(seed)
    centers = features[rng.choice(features.shape[0], size=c, replace=False)].copy()
    u = None
    objective = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        u, _ = _memberships(features, centers, m)
        um = u**m
        new_centers = (um.T @ features) / um.sum(axis=0)[:, None]
        shift = np.abs(new_centers - centers).max()
        centers = new_centers
        _, d2 = _memberships(features, centers, m)
        objective = float((um * d2).sum())
        if shift < tol:
            break
    return FcmState(centers=centers, membership=u, objective=objective, n_iter=it)


class TestFcmOneMembershipPass:
    @pytest.mark.parametrize("max_iter", [1, 3, 300])
    def test_state_equals_two_pass_loop(self, max_iter):
        rng = np.random.default_rng(12)
        for trial in range(10):
            feats = rng.normal(size=(rng.integers(7, 30), 36))
            feats[:2] = feats[2]  # repeated frames give zero distances to a center
            got = fcm_cluster(feats, 7, max_iter=max_iter, seed=trial)
            want = _fcm_two_membership_passes(feats, 7, max_iter=max_iter, seed=trial)
            assert np.array_equal(got.centers, want.centers)
            assert np.array_equal(got.membership, want.membership)
            assert got.objective == want.objective
            assert got.n_iter == want.n_iter


def _objective_trace(feats, c, seed):
    """Objective after each full FCM update, via single-iteration restarts."""
    from vowelkit.frame_select import _memberships

    rng = np.random.default_rng(seed)
    centers = feats[rng.choice(feats.shape[0], size=c, replace=False)].copy()
    trace = []
    for _ in range(40):
        u, _ = _memberships(feats, centers, 2.0)
        um = u**2
        centers = (um.T @ feats) / um.sum(axis=0)[:, None]
        _, d2 = _memberships(feats, centers, 2.0)
        trace.append(float((um * d2).sum()))
    return np.array(trace)


class TestFcmSelect:
    def test_single_frame(self):
        feats = np.array([[1.0, 2.0]])
        assert np.array_equal(fcm_select(feats, 5), feats)

    def test_two_frames(self):
        feats = np.array([[0.0], [1.0]])
        out = fcm_select(feats, 2, seed=0)
        assert np.array_equal(out, feats)

    def test_three_tight_groups(self):
        rng = np.random.default_rng(8)
        groups = [
            np.array([0.0, 0.0]) + rng.normal(0, 0.01, size=(3, 2)),
            np.array([5.0, 5.0]) + rng.normal(0, 0.01, size=(2, 2)),
            np.array([-5.0, 5.0]) + rng.normal(0, 0.01, size=(2, 2)),
        ]
        feats = np.vstack(groups)
        out = fcm_select(feats, 3, seed=1)
        assert out.shape[0] == 3
        # one selected frame per group: nearest group centroid is distinct
        centroids = np.array([g.mean(axis=0) for g in groups])
        owners = {int(np.argmin(((centroids - row) ** 2).sum(axis=1))) for row in out}
        assert owners == {0, 1, 2}

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            fcm_select(np.zeros((0, 2)), 3)


class TestSelectFrames:
    def test_dispatch(self):
        feats = np.arange(14.0).reshape(7, 2)
        assert select_frames(feats, MiddleFrames(3)).shape == (3, 2)
        assert select_frames(feats, Fcm(3, seed=0)).shape[0] <= 3

    def test_method_validation(self):
        with pytest.raises(InvalidInput):
            MiddleFrames(0)
        with pytest.raises(InvalidInput):
            Fcm(3, m=0.5)
