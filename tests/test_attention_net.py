import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attnloc import attention_net as net
from attnloc import autodiff as ad
from attnloc import experiment, simulator
from attnloc.autodiff import Tensor
from attnloc.dataset_io import load_checkpoint, save_checkpoint
from attnloc.geometry import utm_to_vehicle, wrap_angle
from attnloc.inference import EkfConfig, FilterSession
from autodiff_helpers import check_gradient, count_tensors, relative_error

SMALL = net.NetConfig(d_m=16, heads=2, k=3, seed=0)


@pytest.fixture(scope="module")
def small_params():
    return net.init_params(dataclasses.replace(SMALL, seed=1))


def _scene(seed, nu=4, mu=7, scale=10.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size=(nu, 2)), rng.uniform(-scale, scale, size=(mu, 2))


class TestNetConfig:
    def test_heads_must_divide_width(self):
        with pytest.raises(ValueError):
            net.NetConfig(d_m=10, heads=3)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            net.NetConfig(d_m=0)
        with pytest.raises(ValueError):
            net.NetConfig(k=0)


class TestInitParams:
    def test_same_seed_identical(self):
        a = net.init_params(dataclasses.replace(SMALL, seed=3))
        b = net.init_params(dataclasses.replace(SMALL, seed=3))
        for (ka, ta), (kb, tb) in zip(sorted(a.items()), sorted(b.items())):
            assert ka == kb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_loss_weights_start_at_zero(self, small_params):
        assert small_params["s_tran"].data[0, 0] == 0.0
        assert small_params["s_rot"].data[0, 0] == 0.0

    def test_all_shapes_match_config(self, small_params):
        for name, shape in net.param_shapes(SMALL).items():
            assert small_params[name].shape == shape

    def test_layer_norm_init(self, small_params):
        np.testing.assert_array_equal(small_params["local.ln1.g"].data, np.ones((1, 16)))
        np.testing.assert_array_equal(small_params["local.ln1.b"].data, np.zeros((1, 16)))

    def test_fused_projections_equal_per_head_draws(self):
        # Glorot draws in parameter order, q/k/v drawn per head at (d, d/h)
        # and placed side by side, so the fused layout keeps seeded numbers
        rng = np.random.default_rng(5)

        def glorot(r, c):
            limit = math.sqrt(6.0 / (r + c))
            return rng.uniform(-limit, limit, size=(r, c))

        ref = {}
        for prefix, width_in in (("embed_m", 2), ("embed_l", 3)):
            ref[f"{prefix}.w0"] = glorot(width_in, 64)
            ref[f"{prefix}.w1"] = glorot(64, 16)
        for block in ("local", "global"):
            heads = [{p: glorot(16, 8) for p in "qkv"} for _ in range(2)]
            for p in "qkv":
                ref[f"{block}.{p}"] = np.hstack([heads[0][p], heads[1][p]])
            ref[f"{block}.out"] = glorot(16, 16)
            ref[f"{block}.ff.w0"] = glorot(16, 16)
            ref[f"{block}.ff.w1"] = glorot(16, 16)
        for i, (fi, fo) in enumerate(((16, 128), (128, 64), (64, 3))):
            ref[f"head.w{i}"] = glorot(fi, fo)
        params = net.init_params(dataclasses.replace(SMALL, seed=5))
        for name, arr in ref.items():
            np.testing.assert_array_equal(params[name].data, arr, err_msg=name)


class TestKnnGroup:
    def test_hand_sorted(self):
        idx, feats = net.knn_group([[0.0, 0.0]], [[1.0, 0.0], [0.0, 2.0], [5.0, 5.0]], k=2)
        np.testing.assert_array_equal(idx[0], [0, 1])
        np.testing.assert_allclose(feats[:, 2], [1.0, 2.0])

    def test_tie_breaks_to_lower_index(self):
        idx, _ = net.knn_group([[0.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]], k=1)
        assert idx[0][0] == 0

    def test_cyclic_padding(self):
        idx, _ = net.knn_group([[0.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]], k=4)
        np.testing.assert_array_equal(idx[0], [0, 1, 0, 1])

    def test_features_are_relative(self):
        _, feats = net.knn_group([[1.0, 1.0]], [[2.0, 3.0]], k=1)
        np.testing.assert_allclose(feats, [[1.0, 2.0, math.sqrt(5.0)]])

    def test_distance_consistency(self):
        m, lm = _scene(8)
        _, feats = net.knn_group(m, lm, k=3)
        for g in feats.reshape(-1, 3, 3):
            np.testing.assert_allclose(g[:, 2], np.hypot(g[:, 0], g[:, 1]))
            assert (np.diff(g[:, 2]) >= 0).all()

    def test_joint_translation_leaves_features_unchanged(self):
        m, lm = _scene(9)
        shift = np.array([17.0, -4.0])
        idx_a, feats_a = net.knn_group(m, lm, k=3)
        idx_b, feats_b = net.knn_group(m + shift, lm + shift, k=3)
        np.testing.assert_array_equal(idx_a, idx_b)
        np.testing.assert_allclose(feats_a, feats_b, atol=1e-9)

    def test_matches_per_measurement_sort(self):
        # reference: one stable sort per measurement; k > L exercises the padding
        m, lm = _scene(10, nu=5, mu=4)
        idx, feats = net.knn_group(m, lm, k=6)
        for i, row in enumerate(m):
            delta = lm - row
            dist = np.hypot(delta[:, 0], delta[:, 1])
            order = np.argsort(dist, kind="stable")[np.arange(6) % 4]
            np.testing.assert_array_equal(idx[i], order)
            np.testing.assert_array_equal(feats[6 * i : 6 * i + 6], np.column_stack((delta[order], dist[order])))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            net.knn_group(np.zeros((0, 2)), [[1.0, 0.0]], k=1)
        with pytest.raises(ValueError):
            net.knn_group([[1.0, 0.0]], np.zeros((0, 2)), k=1)


class TestScaledDotAttention:
    """ad.attention with one head: softmax(Q K^T / sqrt(d)) V."""

    def test_single_key_returns_value(self):
        q = Tensor([[5.0, -3.0]])
        k = Tensor([[0.1, 0.2]])
        v = Tensor([[7.0, 9.0]])
        np.testing.assert_allclose(ad.attention(q, k, v, 1).data, [[7.0, 9.0]], atol=1e-15)

    def test_identical_keys_average_values(self):
        q = Tensor([[1.0, 2.0]])
        k = Tensor([[0.3, 0.4], [0.3, 0.4]])
        v = Tensor([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(ad.attention(q, k, v, 1).data, [[0.5, 0.5]], atol=1e-12)

    def test_two_key_weights_scalar_oracle(self):
        # softmax([1/sqrt(2), 0]) computed with plain scalar arithmetic
        e = math.exp(1.0 / math.sqrt(2.0))
        w0 = e / (e + 1.0)
        out = ad.attention(
            Tensor([[1.0, 0.0]]), Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[1.0, 0.0], [0.0, 1.0]]), 1
        )
        np.testing.assert_allclose(out.data, [[w0, 1.0 - w0]], atol=1e-12)
        assert w0 == pytest.approx(0.6698, abs=5e-5)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            ad.attention(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))), 1)


class TestMultiHead:
    def test_single_identity_head_equals_plain_attention(self):
        cfg = net.NetConfig(d_m=4, heads=1, k=2, seed=0)
        params = net.init_params(cfg)
        for name in ("local.q", "local.k", "local.v", "local.out"):
            params.tensors[name] = Tensor(np.eye(4))
        rng = np.random.default_rng(20)
        x = rng.normal(size=(3, 4))
        y = rng.normal(size=(5, 4))
        scores = x @ y.T / 2.0  # sqrt(d_m) = 2
        w = np.exp(scores - scores.max(axis=1, keepdims=True))
        plain = (w / w.sum(axis=1, keepdims=True)) @ y
        s = ad.layer_norm(Tensor(x + plain), params["local.ln1.g"], params["local.ln1.b"])
        expect = ad.layer_norm(s + net._rff(s, params, "local.ff"), params["local.ln2.g"], params["local.ln2.b"])
        got = net.mha_block(Tensor(x), Tensor(y) @ params["local.k"], Tensor(y) @ params["local.v"], params, "local")
        np.testing.assert_allclose(got.data, expect.data, atol=1e-12)

    def test_heads_side_by_side_in_columns(self):
        rng = np.random.default_rng(19)
        q, k, v = rng.normal(size=(3, 6)), rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        out = ad.attention(Tensor(q), Tensor(k), Tensor(v), 3).data
        for j in range(3):
            cols = slice(2 * j, 2 * j + 2)
            expect = ad.attention(Tensor(q[:, cols]), Tensor(k[:, cols]), Tensor(v[:, cols]), 1).data
            np.testing.assert_allclose(out[:, cols], expect, atol=1e-12)

    def test_output_shape(self, small_params):
        rng = np.random.default_rng(21)
        for nk in (1, 2, 9):
            x = Tensor(rng.normal(size=(4, 16)))
            y = Tensor(rng.normal(size=(nk, 16)))
            assert ad.attention(x, y, y, small_params.config.heads).shape == (4, 16)
            assert net.mha_block(x, y @ small_params["local.k"], y @ small_params["local.v"], small_params,
                                 "local").shape == (4, 16)

    def test_invariant_to_key_value_row_permutation(self, small_params):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(3, 16))
        y = rng.normal(size=(6, 16))
        perm = rng.permutation(6)
        wk, wv = small_params["global.k"], small_params["global.v"]
        a = net.mha_block(Tensor(x), Tensor(y) @ wk, Tensor(y) @ wv, small_params, "global").data
        b = net.mha_block(Tensor(x), Tensor(y[perm]) @ wk, Tensor(y[perm]) @ wv, small_params, "global").data
        np.testing.assert_allclose(a, b, atol=1e-9)


class TestMhaBlock:
    def test_shape_preserved(self, small_params):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(5, 16)))
        y = Tensor(rng.normal(size=(3, 16)))
        assert net.mha_block(x, y @ small_params["local.k"], y @ small_params["local.v"], small_params,
                             "local").shape == (5, 16)

    def test_zero_rff_weights_reduce_to_bias_path(self):
        params = net.init_params(dataclasses.replace(SMALL, seed=4))
        bias = np.full((1, 16), 0.25)
        params.tensors["global.ff.w0"] = Tensor(np.zeros((16, 16)))
        params.tensors["global.ff.w1"] = Tensor(np.zeros((16, 16)))
        params.tensors["global.ff.b0"] = Tensor(np.zeros((1, 16)))
        params.tensors["global.ff.b1"] = Tensor(bias)
        rng = np.random.default_rng(24)
        x = Tensor(rng.normal(size=(4, 16)))
        y = Tensor(rng.normal(size=(4, 16)))
        att = ad.attention(x @ params["global.q"], y @ params["global.k"], y @ params["global.v"], SMALL.heads)
        s = ad.layer_norm(x + att @ params["global.out"], params["global.ln1.g"], params["global.ln1.b"])
        expect = ad.layer_norm(s + Tensor(np.broadcast_to(bias, (4, 16)).copy()),
                               params["global.ln2.g"], params["global.ln2.b"]).data
        got = net.mha_block(x, y @ params["global.k"], y @ params["global.v"], params, "global").data
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_gradient_through_block(self):
        cfg = net.NetConfig(d_m=8, heads=2, k=2, seed=5)
        params = net.init_params(cfg)
        rng = np.random.default_rng(25)
        x = Tensor(rng.normal(size=(2, 8)))
        y = Tensor(rng.normal(size=(3, 8)))
        w = Tensor(rng.normal(size=(2, 8)))
        block_params = [t for name, t in params.items() if name.startswith("global.")]
        worst = check_gradient(lambda: (net.mha_block(x, y @ params["global.k"], y @ params["global.v"], params,
                                                      "global") * w).sum(),
                                  block_params + [x, y])
        assert worst < 1e-4


class TestLocalAttention:
    def test_single_measurement_shape(self, small_params):
        m, lm = _scene(26, nu=1, mu=5)
        assert net.local_attention([(m, lm)], small_params).shape == (1, 16)

    def test_rows_equivariant_under_measurement_permutation(self, small_params):
        m, lm = _scene(27, nu=5, mu=8)
        perm = np.random.default_rng(1).permutation(5)
        a = net.local_attention([(m, lm)], small_params).data
        b = net.local_attention([(m[perm], lm)], small_params).data
        np.testing.assert_allclose(b, a[perm], atol=1e-12)

    def test_matches_per_measurement_blocks(self, small_params):
        m, lm = _scene(28, nu=4, mu=9)
        fast = net.local_attention([(m, lm)], small_params).data
        _, feats = net.knn_group(m, lm, SMALL.k)
        rows = []
        for i, g in enumerate(feats.reshape(-1, SMALL.k, 3)):
            q = net._rff(Tensor(m[i : i + 1]), small_params, "embed_m")
            nb = net._rff(Tensor(g), small_params, "embed_l")
            rows.append(net.mha_block(q, nb @ small_params["local.k"], nb @ small_params["local.v"], small_params,
                                      "local").data)
        np.testing.assert_allclose(fast, np.vstack(rows), atol=1e-12)

    def test_row_depends_only_on_neighbors(self, small_params):
        m, lm = _scene(29, nu=3, mu=10)
        idx, _ = net.knn_group(m, lm, SMALL.k)
        neighbors_of_0 = set(idx[0].tolist())
        far = next(i for i in range(10) if i not in neighbors_of_0)
        before = net.local_attention([(m, lm)], small_params).data
        lm2 = lm.copy()
        lm2[far] += 0.5  # stays a non-neighbor of measurement 0
        assert far not in set(net.knn_group(m, lm2, SMALL.k)[0][0].tolist())
        after = net.local_attention([(m, lm2)], small_params).data
        np.testing.assert_array_equal(before[0], after[0])

    def test_tape_holds_no_neighbor_row_of_model_width(self, small_params):
        # the neighbor hidden layer is the one key/value head: no (sum nu * k, d_m) key or value is built
        assert SMALL.rff_hidden != SMALL.d_m
        scenes = [_scene(30, nu=4, mu=9), _scene(31, nu=3, mu=5)]
        neighbor_rows = SMALL.k * sum(m.shape[0] for m, _ in scenes)
        seen, stack, shapes = set(), [net.forward(scenes, small_params)], []
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                shapes.append(node.shape)
                stack.extend(node._parents)
        assert (neighbor_rows, SMALL.rff_hidden) in shapes
        assert (neighbor_rows, SMALL.d_m) not in shapes


def _max_relative(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| / max |b|."""
    return float(np.abs(a - b).max() / np.abs(b).max())


class TestFoldedNeighborEmbedding:
    """local_attention folds embed_l's last layer into the local key/value maps; the unfolded block is the reference."""

    @pytest.mark.parametrize("cfg", [
        net.NetConfig(d_m=64, heads=4, k=8),
        net.NetConfig(d_m=256, heads=4, k=8),
        net.NetConfig(d_m=16, heads=2, k=3),
    ], ids=["d64", "d256", "d16"])
    def test_equals_the_block_over_the_built_embedding(self, cfg):
        params = net.init_params(dataclasses.replace(cfg, seed=3))
        scenes = [_scene(50, nu=5, mu=11), _scene(51, nu=2, mu=cfg.k - 1), _scene(52, nu=7, mu=20)]
        rng = np.random.default_rng(53)

        def unfolded():
            feats = np.concatenate([net.knn_group(m, lm, cfg.k)[1] for m, lm in scenes])
            neighbors = net._rff(Tensor(feats), params, "embed_l")  # N = embed_l(F), (sum nu * k, d)
            queries = net._rff(Tensor(np.concatenate([m for m, _ in scenes])), params, "embed_m")
            return net.mha_block(queries, neighbors @ params["local.k"], neighbors @ params["local.v"], params,
                                 "local", cfg.k)

        weights = Tensor(rng.normal(size=(sum(m.shape[0] for m, _ in scenes), cfg.d_m)))
        results = []
        for build in (lambda: net.local_attention(scenes, params), unfolded):
            params.zero_grads()
            out = build()
            (out * weights).sum().backward()
            results.append((out.data, {name: t.grad.copy() for name, t in params.items()}))
        (folded, folded_grads), (ref, ref_grads) = results
        assert _max_relative(folded, ref) < 1e-12
        np.testing.assert_array_equal(net.local_attention(scenes, net.inference_weights(params)), folded)
        for name, g in folded_grads.items():
            if name.startswith(("embed_", "local.")):
                assert _max_relative(g, ref_grads[name]) < 1e-12, name
            else:  # the global block and the head are not in the local block
                assert not g.any() and not ref_grads[name].any(), name


class TestForward:
    def test_permutation_invariance(self, small_params):
        rng = np.random.default_rng(31)
        for _ in range(20):
            nu, mu = int(rng.integers(1, 9)), int(rng.integers(1, 12))
            m = rng.uniform(-50, 50, size=(nu, 2))
            lm = rng.uniform(-50, 50, size=(mu, 2))
            base = net.predict_offset(m, lm, small_params)
            shuffled = net.predict_offset(m[rng.permutation(nu)], lm[rng.permutation(mu)], small_params)
            assert abs(base.dx - shuffled.dx) < 1e-9
            assert abs(base.dy - shuffled.dy) < 1e-9
            assert abs(base.dphi - shuffled.dphi) < 1e-9

    def test_deterministic(self, small_params):
        m, lm = _scene(32)
        a = net.forward([(m, lm)], small_params).data
        b = net.forward([(m, lm)], small_params).data
        np.testing.assert_array_equal(a, b)

    def test_finite_over_many_random_scenes(self, small_params):
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            nu, mu = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            m = rng.uniform(-100, 100, size=(nu, 2))
            lm = rng.uniform(-100, 100, size=(mu, 2))
            out = net.forward([(m, lm)], small_params).data
            assert np.all(np.isfinite(out))

    def test_empty_inputs_rejected(self, small_params):
        with pytest.raises(ValueError):
            net.forward([(np.zeros((0, 2)), [[1.0, 0.0]])], small_params)

    def test_gradient_subset(self, small_params):
        from attnloc.geometry import PoseOffset
        from attnloc.training import multitask_loss_graph

        m, lm = _scene(33, nu=3, mu=5)
        label = PoseOffset(0.2, -0.1, 0.05)
        subset = [small_params[n] for n in ("embed_m.w0", "local.q", "global.v", "head.w2", "s_tran", "s_rot")]
        worst = check_gradient(
            lambda: multitask_loss_graph(net.forward([(m, lm)], small_params), [label], small_params)[0], subset
        )
        assert worst < 1e-4


def _scene_grads(scenes, labels, params) -> dict[str, np.ndarray]:
    """Every parameter's gradient of the summed loss of the scenes, on one tape."""
    from attnloc.training import multitask_loss_graph

    for t in params.tensors.values():
        t.grad = None
    multitask_loss_graph(net.forward(scenes, params), labels, params)[0].backward()
    return {name: t.grad for name, t in params.items()}


class TestBatchedForward:
    """Scenes stacked on one tape: each row as its own scene's forward, the gradient as the sum of theirs."""

    def test_rows_equal_one_scene_forwards(self):
        cfg = net.NetConfig(d_m=16, heads=2, k=4, seed=0)
        params = net.init_params(cfg)
        scenes = [_scene(40, nu=5, mu=9), _scene(41, nu=1, mu=6), _scene(42, nu=3, mu=cfg.k - 1),
                  _scene(43, nu=8, mu=12), _scene(44, nu=5, mu=2)]
        for batch in (scenes, scenes[:1], [scenes[0], scenes[4]]):  # mixed nu, one scene, equal nu
            for record in (True, False):
                weights = params if record else net.inference_weights(params)
                out = net.forward(batch, weights)
                rows = out.data if record else out
                assert rows.shape == (len(batch), 3)
                for row, scene in zip(rows, batch):
                    one = net.forward([scene], weights)
                    np.testing.assert_allclose(row, (one.data if record else one)[0], rtol=0, atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 8)), min_size=1, max_size=5),
           st.integers(0, 2**32 - 1))
    def test_batch_gradient_is_the_sum_of_scene_gradients(self, sizes, seed):
        from attnloc.geometry import PoseOffset

        params = net.init_params(net.NetConfig(d_m=8, heads=2, k=3, seed=1))
        rng = np.random.default_rng(seed)
        params["s_tran"].data[...] = rng.uniform(-1, 1)
        params["s_rot"].data[...] = rng.uniform(-1, 1)
        scenes = [(rng.uniform(-20, 20, size=(nu, 2)), rng.uniform(-20, 20, size=(mu, 2))) for nu, mu in sizes]
        labels = [PoseOffset(*rng.uniform(-1, 1, size=3)) for _ in sizes]
        batch = _scene_grads(scenes, labels, params)
        per_scene = [_scene_grads([sc], [lb], params) for sc, lb in zip(scenes, labels)]
        for name, g in batch.items():
            assert relative_error(g, sum(grads[name] for grads in per_scene)) < 1e-10, name


class TestUnrecordedForward:
    @pytest.mark.parametrize("cfg", [
        net.NetConfig(d_m=64, heads=4, k=8),
        net.NetConfig(d_m=256, heads=4, k=8),
        net.NetConfig(d_m=16, heads=2, k=3),
    ], ids=["d64", "d256", "d16"])
    def test_equals_recorded_and_builds_no_tensor(self, cfg, monkeypatch):
        params = net.init_params(cfg)
        scenes = experiment.generate_scene_set(simulator.SimConfig(distribution="mixture", seed=11),
                                               1.0, math.radians(4.0), 6, 11)
        inputs = [(sc.measurements, utm_to_vehicle(sc.landmarks, sc.gps_pose)) for sc in scenes]
        rng = np.random.default_rng(35)
        inputs.append((rng.uniform(-20, 20, size=(1, 2)), rng.uniform(-20, 20, size=(6, 2))))  # nu = 1
        inputs.append((rng.uniform(-20, 20, size=(5, 2)), rng.uniform(-20, 20, size=(cfg.k - 1, 2))))
        built = count_tensors(monkeypatch)
        for m, lm in inputs:
            recorded = net.forward([(m, lm)], params).data
            assert built[0] > 0
            built[0] = 0
            plain = net.forward([(m, lm)], net.inference_weights(params))
            pred = net.predict_offset(m, lm, params)
            assert built[0] == 0
            assert type(plain) is np.ndarray and np.array_equal(plain, recorded)
            assert np.array_equal(pred.as_array()[:2], recorded[0, :2])
            assert pred.dphi == wrap_angle(recorded[0, 2])
        for sc in scenes:
            session = FilterSession(params, experiment.scene_map(sc), sc.gps_pose, EkfConfig(), fov_radius=100.0)
            session.step(sc.measurements, 0.05)
        assert built[0] == 0

    # with 2 landmarks, fewer than k (3), every landmark is in every neighbor
    # group; with 7 a bad landmark need not be, and must still be rejected
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["measurements", "landmarks"])
    def test_non_finite_input_rejected(self, small_params, where, bad):
        for mu in (2, 7):
            m, lm = _scene(34, nu=4, mu=mu)
            (m if where == "measurements" else lm)[1, 0] = bad
            with pytest.raises(ValueError, match="entries must be finite"):
                net.predict_offset(m, lm, small_params)


# predict_offset of the pinned desk checkpoint on generate_scene_set(mixture,
# seed 5)[:12], landmarks in each scene's GPS frame, as (dx, dy, dphi)
DESK_CHECKPOINT = Path(__file__).resolve().parent.parent / "perfbench" / "desk_checkpoint.json"
DESK_OFFSETS = [
    (0.7380665050589066, 0.7840632035456542, -0.06066347180620638),
    (0.6495373902962506, -0.7794257733095593, 0.009984909797278698),
    (-0.38496271237722834, 0.021197837973721382, -0.002311812907021392),
    (0.30827151958626103, 0.5328009846466161, 0.03809888157813047),
    (-0.13167192313797224, -0.7336878226333186, 0.03177397836385938),
    (0.565501923901348, 0.21056539155270648, -0.01695630701899597),
    (0.8196627879659245, -0.8521415687798203, -0.017495704004684108),
    (-0.5104119274469967, 0.3686588014883494, 0.01835872593196062),
    (-0.24222283236214803, -0.8118083448897745, -0.05612779698961123),
    (0.7772190388873554, -0.21779310061728246, -0.013747593586744523),
    (0.806121800714978, 0.9525406849534385, -0.019862575312925936),
    (-0.7467542461449562, -0.5695904106889974, 0.035952178949855126),
]


class TestPinnedCheckpoint:
    def test_predictions_match_recorded_values(self):
        params = load_checkpoint(str(DESK_CHECKPOINT))
        scenes = experiment.generate_scene_set(simulator.SimConfig(distribution="mixture", seed=5),
                                               1.0, math.radians(4.0), len(DESK_OFFSETS), 5)
        got = [net.predict_offset(sc.measurements, utm_to_vehicle(sc.landmarks, sc.gps_pose), params).as_array()
               for sc in scenes]
        np.testing.assert_allclose(got, DESK_OFFSETS, rtol=0, atol=1e-12)

    def test_resave_bytes(self, tmp_path):
        # the format-2 file the pinned format-1 checkpoint re-saves to
        path = tmp_path / "resaved.json"
        save_checkpoint(load_checkpoint(str(DESK_CHECKPOINT)), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "b33cbe24dd1368ec69c15dbeeb2aba0c7703f78a979fb1e9165a643faedd9966")
