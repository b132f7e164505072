import tracemalloc

import numpy as np
import pytest

import vowelkit.frame_select as frame_select
from vowelkit.errors import InvalidInput
from vowelkit.frame_select import (
    Fcm,
    MiddleFrames,
    _fcm_lockstep,
    fcm_cluster,
    select_frames,
    select_frames_many,
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
        assert np.array_equal(select_frames(feats, Fcm(5)), feats)

    def test_two_frames(self):
        feats = np.array([[0.0], [1.0]])
        out = select_frames(feats, Fcm(2, seed=0))
        assert np.array_equal(out, feats)

    def test_three_tight_groups(self):
        rng = np.random.default_rng(8)
        groups = [
            np.array([0.0, 0.0]) + rng.normal(0, 0.01, size=(3, 2)),
            np.array([5.0, 5.0]) + rng.normal(0, 0.01, size=(2, 2)),
            np.array([-5.0, 5.0]) + rng.normal(0, 0.01, size=(2, 2)),
        ]
        feats = np.vstack(groups)
        out = select_frames(feats, Fcm(3, seed=1))
        assert out.shape[0] == 3
        # one selected frame per group: nearest group centroid is distinct
        centroids = np.array([g.mean(axis=0) for g in groups])
        owners = {int(np.argmin(((centroids - row) ** 2).sum(axis=1))) for row in out}
        assert owners == {0, 1, 2}

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            select_frames(np.zeros((0, 2)), Fcm(3))


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


def _one_token_memberships(features, centers, m):
    """The one-token membership step as it was, zero-distance rows fixed in a loop."""
    d2 = ((features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    zero_rows = np.where(d2.min(axis=1) == 0.0)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = d2 ** (-1.0 / (m - 1.0))
        u = inv / inv.sum(axis=1, keepdims=True)
    for i in zero_rows:
        u[i] = 0.0
        u[i, int(np.argmin(d2[i]))] = 1.0
    return u, d2


def _one_token_fcm(features, c, m=2.0, tol=1e-5, max_iter=300, seed=0):
    """fcm_cluster as it was: one token per call, in its own loop."""
    rng = np.random.default_rng(seed)
    centers = features[rng.choice(features.shape[0], size=c, replace=False)].copy()
    u_next, _ = _one_token_memberships(features, centers, m)
    for it in range(1, max_iter + 1):
        u = u_next
        um = u**m
        weight = um.sum(axis=0)
        new_centers = centers.copy()  # a cluster no frame belongs to keeps its center
        kept = weight > 0.0
        new_centers[kept] = (um.T @ features)[kept] / weight[kept][:, None]
        shift = np.abs(new_centers - centers).max()
        centers = new_centers
        u_next, d2 = _one_token_memberships(features, centers, m)
        objective = float((um * d2).sum())
        if shift < tol:
            break
    return centers, u, objective, it


def _one_token_picks(features, k, **kw):
    c = min(k, features.shape[0])
    _centers, u, _objective, _it = _one_token_fcm(features, c, **kw)
    return features[sorted({int(np.argmax(u[:, j])) for j in range(c)})]


def _tokens(seed, count, frames, dim=36):
    rng = np.random.default_rng(seed)
    out = []
    for t in range(count):
        n = int(rng.choice(frames))
        x = rng.normal(size=(n, dim))
        if t % 3 == 0 and n > 2 * 7:
            x[1] = x[0]  # repeated frames give zero distances to a center
        out.append(x)
    return out


def _assert_state_equal(state, want):
    centers, u, objective, n_iter = want
    assert np.array_equal(state.centers, centers)
    assert np.array_equal(state.membership, u)
    assert state.objective == objective
    assert state.n_iter == n_iter


class TestFcmLockstep:
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_mixed_frame_counts_equal_one_token_loop(self, k):
        tokens = _tokens(20 + k, 40, frames=[1, 2, 5, 7, 9, 24])
        assert len({t.shape[0] for t in tokens}) > 1
        got = select_frames_many(tokens, Fcm(k, seed=4))
        for x, picked in zip(tokens, got):
            assert np.array_equal(picked, _one_token_picks(x, k, seed=4))

    def test_stacked_states_equal_one_token_loop(self):
        tokens = _tokens(31, 12, frames=[24])
        states = _fcm_lockstep(np.stack(tokens), 7, 2.0, 1e-5, 300, 5)
        for x, state in zip(tokens, states):
            _assert_state_equal(state, _one_token_fcm(x, 7, seed=5))

    @pytest.mark.parametrize("entries", [0, 1 << 30])
    def test_centers_one_at_a_time_or_all_at_once(self, entries, monkeypatch):
        monkeypatch.setattr(frame_select, "ALL_CENTERS_ENTRIES", entries)
        tokens = _tokens(40, 12, frames=[24])
        states = _fcm_lockstep(np.stack(tokens), 7, 2.0, 1e-5, 300, 5)
        for x, state in zip(tokens, states):
            _assert_state_equal(state, _one_token_fcm(x, 7, seed=5))

    @pytest.mark.parametrize("count, entries", [
        (12, 4 * 24 * 36 * 7),  # one center at a time until 4 tokens are left
        (12, 1 << 16),  # one center at a time until 10 tokens are left
        (10, 1 << 16),  # all centers at once from the start
    ], ids=["enters-at-4", "enters-at-10", "starts-inside"])
    def test_tokens_leave_inside_the_all_centers_regime(self, count, entries, monkeypatch):
        monkeypatch.setattr(frame_select, "ALL_CENTERS_ENTRIES", entries)
        tokens = _tokens(40, count, frames=[24])
        states = _fcm_lockstep(np.stack(tokens), 7, 2.0, 1e-5, 300, 5)
        # the tokens still in the stack once it fits the regime leave at several
        # iterations, so the repeated frames shrink with the stack
        fits = entries // (24 * 36 * 7)
        assert len(set(sorted(state.n_iter for state in states)[count - fits:])) >= 3
        for x, state in zip(tokens, states):
            _assert_state_equal(state, _one_token_fcm(x, 7, seed=5))

    def test_zero_distances(self):
        rng = np.random.default_rng(32)
        base = rng.normal(size=(10, 3))
        tokens = [np.vstack([base, base[:4]]) + t for t in range(6)]  # every token repeats frames
        states = _fcm_lockstep(np.stack(tokens), 4, 2.0, 1e-5, 300, 1)
        for x, state in zip(tokens, states):
            _assert_state_equal(state, _one_token_fcm(x, 4, seed=1))
        # the seeded start puts a center on a frame, and its memberships are one-hot
        u, d2 = frame_select._memberships(np.stack(tokens), np.stack(tokens)[:, :2], 2.0)
        assert np.array_equal(u[:, :2], np.broadcast_to(np.eye(2), (6, 2, 2)))
        assert np.array_equal(u, np.stack([_one_token_memberships(x, x[:2], 2.0)[0]
                                           for x in tokens]))

    def test_one_token_stops_at_max_iter(self):
        rng = np.random.default_rng(33)
        blobs = [np.vstack([rng.normal(0.0, 0.01, size=(6, 2)),
                            rng.normal(9.0, 0.01, size=(6, 2))]) for _ in range(4)]
        tokens = blobs + [rng.normal(size=(12, 2))]  # uniform noise converges slowly
        states = _fcm_lockstep(np.stack(tokens), 2, 2.0, 1e-12, 8, 2)
        n_iters = [state.n_iter for state in states]
        assert n_iters[-1] == 8 and min(n_iters) < 8
        for x, state in zip(tokens, states):
            _assert_state_equal(state, _one_token_fcm(x, 2, tol=1e-12, max_iter=8, seed=2))

    @pytest.mark.parametrize("n", [3, 7])
    def test_c_equals_n_and_n_below_k(self, n):
        tokens = _tokens(34 + n, 8, frames=[n])
        states = _fcm_lockstep(np.stack(tokens), n, 2.0, 1e-5, 300, 0)
        for x, state in zip(tokens, states):
            _assert_state_equal(state, _one_token_fcm(x, n, seed=0))
        for x, picked in zip(tokens, select_frames_many(tokens, Fcm(7))):
            assert np.array_equal(picked, _one_token_picks(x, 7))

    def test_equal_frames_with_c_equal_to_n(self):
        # every frame is a center, both copies of row 1 join the first of the two
        # equal centers, and the second cluster has no members: it keeps its center
        x = np.array([[0.0, 1.0], [2.0, 0.5], [2.0, 0.5], [-1.0, 3.0]])
        tokens = [x, x + 1.0, _tokens(38, 1, frames=[4], dim=2)[0]]
        states = _fcm_lockstep(np.stack(tokens), 4, 2.0, 1e-5, 300, 0)
        for t, state in zip(tokens, states):
            assert np.all(np.isfinite(state.centers)) and np.all(np.isfinite(state.membership))
            assert np.isfinite(state.objective) and state.n_iter < 300
            _assert_state_equal(state, _one_token_fcm(t, 4, seed=0))
        assert np.array_equal(select_frames(x, Fcm(4)), x[[0, 1, 3]])
        assert np.array_equal(fcm_cluster(x, 4).centers, states[0].centers)

    def test_peak_memory_grows_with_the_input(self):
        rng = np.random.default_rng(39)
        tokens = [rng.normal(size=(24, 36)) for _ in range(300)]
        tracemalloc.start()
        try:
            select_frames_many(tokens, Fcm(7))
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the stack of the tokens and differences sized to the live stack, no (B, N, c, D)
        # array and no buffer kept at the starting stack's size
        assert peak < 5 * sum(t.nbytes for t in tokens)

    def test_peak_memory_in_the_all_centers_regime(self):
        rng = np.random.default_rng(42)
        tokens = [rng.normal(size=(24, 36)) for _ in range(10)]
        entries = 10 * 24 * 36 * 7  # the stack's center differences, just inside the regime
        assert entries <= frame_select.ALL_CENTERS_ENTRIES < entries + 24 * 36 * 7
        tracemalloc.start()
        try:
            select_frames_many(tokens, Fcm(7))
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the repeated frames and one difference of their shape, 8 bytes per entry each,
        # and arrays no larger than the stack itself
        assert peak < 4 * frame_select.ALL_CENTERS_ENTRIES * 8

    def test_fcm_cluster_is_a_batch_of_one(self):
        x = _tokens(36, 1, frames=[24])[0]
        _assert_state_equal(fcm_cluster(x, 7, seed=3), _one_token_fcm(x, 7, seed=3))

    def test_middle_and_empty_list(self):
        tokens = _tokens(37, 5, frames=[2, 9])
        got = select_frames_many(tokens, MiddleFrames(3))
        assert all(np.array_equal(g, select_middle(x, 3)) for g, x in zip(got, tokens))
        assert select_frames_many([], Fcm(3)) == []
        with pytest.raises(InvalidInput):
            select_frames_many([np.zeros((4, 2)), np.zeros((0, 2))], Fcm(3))


class TestFcmParameters:
    @pytest.mark.parametrize("kw", [
        {"m": float("nan")}, {"m": float("inf")}, {"m": 1.0},
        {"tol": float("nan")}, {"tol": float("inf")}, {"tol": 0.0},
        {"max_iter": 0}, {"max_iter": -1}, {"seed": -1},
    ])
    def test_rejected_everywhere(self, kw):
        feats = np.random.default_rng(0).normal(size=(6, 2))
        with pytest.raises(InvalidInput):
            Fcm(3, **kw)
        with pytest.raises(InvalidInput):
            fcm_cluster(feats, 2, **kw)
        with pytest.raises(InvalidInput):
            select_frames(feats, Fcm(3, **kw))

    def test_one_iteration_is_written(self):
        feats = np.random.default_rng(1).normal(size=(6, 2))
        state = fcm_cluster(feats, 2, max_iter=1)
        assert state.n_iter == 1 and state.membership.shape == (6, 2)
        assert select_frames(feats, Fcm(2, max_iter=1)).shape[0] >= 1
