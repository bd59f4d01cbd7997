import math

import numpy as np
import pytest

from attnloc import attention_net as net
from attnloc import experiment, simulator, training
from attnloc.autodiff import Tensor
from attnloc.baselines import icp
from attnloc.geometry import PoseOffset
from attnloc.training import (
    AdamState,
    TrainConfig,
    adam_step,
    make_training_sample,
    multitask_loss_graph,
    sample_offset,
)
from autodiff_helpers import check_gradient


class TestSampleOffset:
    def test_zero_sigma(self):
        d = sample_offset(0.0, 0.0, np.random.default_rng(0))
        assert (d.dx, d.dy, d.dphi) == (0.0, 0.0, 0.0)

    def test_bounds_and_mean(self):
        rng = np.random.default_rng(1)
        draws = np.array([sample_offset(1.0, 0.1, rng).as_array() for _ in range(100_000)])
        assert np.abs(draws[:, :2]).max() <= 1.0
        assert np.abs(draws[:, 2]).max() <= 0.1
        # law of large numbers: mean within 0.01 of zero at sigma = 1
        assert np.abs(draws[:, :2].mean(axis=0)).max() < 0.01

    def test_reproducible(self):
        a = [sample_offset(1.0, 0.5, np.random.default_rng(7)).as_array() for _ in range(1)]
        b = [sample_offset(1.0, 0.5, np.random.default_rng(7)).as_array() for _ in range(1)]
        np.testing.assert_array_equal(a, b)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            sample_offset(-1.0, 0.0, np.random.default_rng(0))


class TestMakeTrainingSample:
    def _cfg(self, **kw):
        base = dict(sigma_pos=1.0, sigma_rot=math.radians(4), epochs=1, batch_size=1, seed=0)
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_offset_keeps_landmarks(self):
        lm = np.array([[3.0, 1.0], [5.0, -2.0]])
        m = lm.copy()
        sample = make_training_sample(lm, m, self._cfg(sigma_pos=0.0, sigma_rot=0.0), np.random.default_rng(0))
        np.testing.assert_allclose(sample.landmarks, lm, atol=1e-15)
        assert sample.label == PoseOffset(0, 0, 0)

    def test_label_within_bounds(self):
        lm = np.random.default_rng(2).uniform(-20, 20, size=(8, 2))
        cfg = self._cfg()
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = make_training_sample(lm, lm, cfg, rng)
            assert abs(s.label.dx) <= 1.0 and abs(s.label.dy) <= 1.0
            assert abs(s.label.dphi) <= math.radians(4)

    def test_icp_oracle_recovers_identity_at_zero_offset(self):
        lm = np.random.default_rng(4).uniform(-20, 20, size=(10, 2))
        s = make_training_sample(lm, lm, self._cfg(sigma_pos=0.0, sigma_rot=0.0), np.random.default_rng(5))
        result = icp(s.measurements, s.landmarks)
        assert abs(result.offset.dx) < 1e-9
        assert abs(result.offset.dy) < 1e-9
        assert abs(result.offset.dphi) < 1e-9

    def test_icp_oracle_recovers_sampled_label(self):
        # the landmark transform must be exactly what the subtraction
        # correction undoes: ICP on (M, landmarks) recovers the label
        lm = np.random.default_rng(6).uniform(-20, 20, size=(12, 2))
        rng = np.random.default_rng(7)
        s = make_training_sample(lm, lm, self._cfg(sigma_pos=0.4, sigma_rot=math.radians(3)), rng)
        result = icp(s.measurements, s.landmarks)
        assert result.offset.dx == pytest.approx(s.label.dx, abs=1e-6)
        assert result.offset.dy == pytest.approx(s.label.dy, abs=1e-6)
        assert result.offset.dphi == pytest.approx(s.label.dphi, abs=1e-8)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            make_training_sample(np.zeros((0, 2)), [[1.0, 0.0]], self._cfg(), np.random.default_rng(0))


def _loss(pred: PoseOffset, label: PoseOffset, s_tran: float, s_rot: float) -> tuple[float, float, float]:
    """multitask_loss_graph on a fixed prediction: (l_multi value, l_tran, l_rot)."""
    params = net.init_params(net.NetConfig(d_m=8, heads=2, k=2, seed=0))
    params.tensors["s_tran"] = Tensor([[s_tran]])
    params.tensors["s_rot"] = Tensor([[s_rot]])
    loss, rows = multitask_loss_graph(Tensor([pred.as_array()]), [label], params)
    assert rows[0, 0] == loss.data[0, 0]
    return loss.data[0, 0], rows[0, 1], rows[0, 2]


class TestMultitaskLoss:
    def test_zero_residuals(self):
        label = PoseOffset(0.3, -0.2, 0.1)
        l_multi, l_tran, l_rot = _loss(label, label, s_tran=0.7, s_rot=-0.3)
        assert (l_tran, l_rot) == (0.0, 0.0)
        assert l_multi == pytest.approx(0.7 - 0.3)

    def test_unit_weights(self):
        pred = PoseOffset(1.0, 0.0, 0.1)
        label = PoseOffset(0.0, 1.0, 0.0)
        l_multi, l_tran, l_rot = _loss(pred, label, 0.0, 0.0)
        assert l_multi == pytest.approx(l_tran + l_rot)
        assert l_tran == pytest.approx(2.0)

    def test_direct_substitution(self):
        # L_tran=2, L_rot=1, s_tran=ln 2, s_rot=0 -> 2 + ln 2
        pred = PoseOffset(1.0, 1.0, 1.0)
        label = PoseOffset(0.0, 0.0, 0.0)
        l_multi, l_tran, l_rot = _loss(pred, label, math.log(2.0), 0.0)
        assert (l_tran, l_rot) == (2.0, 1.0)
        assert l_multi == pytest.approx(2.0 + math.log(2.0))

    def test_rotation_residual_wraps(self):
        near_pi = PoseOffset(0.0, 0.0, math.pi - 0.01)
        near_minus_pi = PoseOffset(0.0, 0.0, -math.pi + 0.01)
        _, _, l_rot = _loss(near_pi, near_minus_pi, 0.0, 0.0)
        assert l_rot == pytest.approx(0.02**2, rel=1e-9)

    def test_graph_matches_value_function(self):
        cfg = net.NetConfig(d_m=8, heads=2, k=2, seed=0)
        params = net.init_params(cfg)
        params.tensors["s_tran"] = Tensor([[0.4]])
        params.tensors["s_rot"] = Tensor([[-0.2]])
        pred = Tensor([[0.3, -0.1, 3.2]])
        label = PoseOffset(0.1, 0.2, -3.1)
        got = multitask_loss_graph(pred, [label], params)[0].data[0, 0]
        # closed form: the heading residual 6.3 wraps to 6.3 - 2 pi
        l_tran = (0.3 - 0.1) ** 2 + (-0.1 - 0.2) ** 2
        l_rot = (6.3 - 2 * math.pi) ** 2
        want = l_tran * math.exp(-0.4) + 0.4 + l_rot * math.exp(0.2) - 0.2
        assert got == pytest.approx(want, rel=1e-12)

    def test_s_tran_gradient_identity(self):
        cfg = net.NetConfig(d_m=8, heads=2, k=2, seed=0)
        params = net.init_params(cfg)
        pred = Tensor([[0.5, -0.3, 0.02]])
        label = PoseOffset(0.1, 0.1, 0.0)
        params.zero_grads()
        loss, rows = multitask_loss_graph(pred, [label], params)
        loss.backward()
        l_tran, l_rot = rows[0, 1:]
        assert params["s_tran"].grad[0, 0] == pytest.approx(1.0 - l_tran, rel=1e-12)
        assert params["s_rot"].grad[0, 0] == pytest.approx(1.0 - l_rot, rel=1e-12)
        # and against the finite-difference oracle
        worst = check_gradient(lambda: multitask_loss_graph(pred, [label], params)[0],
                                  [params["s_tran"], params["s_rot"]], h=1e-6)
        assert worst < 1e-8


class TestAdam:
    def _one_param(self, value):
        cfg = net.NetConfig(d_m=4, heads=1, k=1, seed=0)
        params = net.init_params(cfg)
        params.tensors = {"w": Tensor(np.array([[value]]))}
        return params

    def test_zero_gradient_zero_update(self):
        params = self._one_param(1.5)
        state = AdamState(params)
        adam_step(params, {"w": np.zeros((1, 1))}, state, lr=0.1)
        assert params["w"].data[0, 0] == 1.5

    def test_first_step_magnitude_is_lr(self):
        for g in (1e-6, 1.0, 1e6):
            params = self._one_param(0.0)
            state = AdamState(params)
            adam_step(params, {"w": np.array([[g]])}, state, lr=0.01)
            # epsilon shaves ~|eps/g| off the unit step
            assert abs(params["w"].data[0, 0]) == pytest.approx(0.01, rel=2e-2)

    def test_shape_mismatch_rejected(self):
        params = self._one_param(0.0)
        with pytest.raises(ValueError):
            adam_step(params, {"w": np.zeros((2, 1))}, AdamState(params), lr=0.1)

    def test_scalar_quadratic_converges(self):
        params = self._one_param(0.0)
        state = AdamState(params)
        for _ in range(2000):
            w = params["w"].data[0, 0]
            adam_step(params, {"w": np.array([[2.0 * (w - 3.0)]])}, state, lr=0.05)
            if abs(params["w"].data[0, 0] - 3.0) < 1e-3:
                break
        assert abs(params["w"].data[0, 0] - 3.0) < 1e-3


def _tiny_scenes(n, seed=0, nu=5):
    cfg = simulator.SimConfig(seed=seed, nu_min=nu, nu_max=nu, lambda_clutter=0.0,
                              lambda_miss=0.0, sigma_noise=0.0)
    out = []
    for i in range(n):
        sc = simulator.generate_scene(cfg, simulator.scene_rng(seed, i))
        out.append((sc.measurements, sc.landmarks))
    return out


class TestTrain:
    def test_history_length_and_determinism(self):
        scenes = _tiny_scenes(4)
        cfg = net.NetConfig(d_m=8, heads=2, k=2, seed=0)
        tcfg = TrainConfig(epochs=3, batch_size=2, learning_rate=1e-3, seed=5)
        p1, h1 = training.train(net.init_params(cfg), tcfg, scenes)
        p2, h2 = training.train(net.init_params(cfg), tcfg, scenes)
        assert len(h1) == 3
        for (n1, t1), (n2, t2) in zip(sorted(p1.items()), sorted(p2.items())):
            assert n1 == n2
            np.testing.assert_array_equal(t1.data, t2.data)

    def test_pool_requirements(self):
        scenes = _tiny_scenes(2)
        cfg = net.NetConfig(d_m=8, heads=2, k=2, seed=0)
        with pytest.raises(ValueError):
            training.train(net.init_params(cfg), TrainConfig(epochs=1, mix_ratio=0.5, seed=0), scenes, [])
        with pytest.raises(ValueError):
            training.train(net.init_params(cfg), TrainConfig(epochs=1, mix_ratio=0.0, seed=0), [], scenes)

    def test_map_only_training_runs(self):
        scenes = _tiny_scenes(2)
        cfg = net.NetConfig(d_m=8, heads=2, k=2, seed=0)
        tcfg = TrainConfig(epochs=1, batch_size=1, mix_ratio=1.0, seed=0)
        _, hist = training.train(net.init_params(cfg), tcfg, [], scenes)
        assert len(hist) == 1

    def test_mix_ratio_pool_selection_contract(self):
        # a poisoned pool blows up on first touch, so finishing proves the
        # other pool was never drawn from
        good = _tiny_scenes(2)
        poisoned = [(np.full((3, 2), np.nan), np.full((3, 2), np.nan))]
        cfg = net.NetConfig(d_m=8, heads=2, k=2, seed=0)
        training.train(net.init_params(cfg), TrainConfig(epochs=1, batch_size=1, mix_ratio=0.0, seed=0),
                       good, poisoned)
        training.train(net.init_params(cfg), TrainConfig(epochs=1, batch_size=1, mix_ratio=1.0, seed=0),
                       poisoned, good)

    def test_overflowing_gradient_stops_before_the_step(self):
        # e^709 keeps the loss finite, but the gradient overflows on its way back
        params = net.init_params(net.NetConfig(d_m=8, heads=2, k=2, seed=0))
        params["s_tran"].data[...] = -709.0
        before = {k: t.data.copy() for k, t in params.items()}
        with pytest.raises(FloatingPointError, match="gradient is not finite at epoch 0, step 0"):
            training.train(params, TrainConfig(epochs=1, batch_size=1, seed=0), _tiny_scenes(1))
        for k, t in params.items():
            np.testing.assert_array_equal(t.data, before[k])

    @pytest.mark.parametrize("epoch, sample", [(0, 6), (1, 9)])
    def test_non_finite_loss_names_its_sample(self, monkeypatch, epoch, sample):
        # one huge label makes one row's loss overflow; the tapes hold 4 of each batch's 8 samples
        make = training.make_training_sample
        calls = []

        def poisoned(*args):
            s = make(*args)
            if len(calls) == 10 * epoch + sample:
                s.label = PoseOffset(1e200, s.label.dy, s.label.dphi)
            calls.append(s)
            return s

        monkeypatch.setattr(training, "make_training_sample", poisoned)
        with pytest.raises(FloatingPointError, match=f"^loss is not finite at epoch {epoch}, sample {sample}$"):
            training.train(net.init_params(net.NetConfig(d_m=8, heads=2, k=2, seed=0)),
                           TrainConfig(epochs=2, batch_size=8, samples_per_epoch=10, seed=0), _tiny_scenes(3))

    def test_loss_decreases_on_small_problem(self):
        scenes = _tiny_scenes(8, seed=2)
        cfg = net.NetConfig(d_m=16, heads=2, k=3, seed=1)
        tcfg = TrainConfig(sigma_pos=0.5, sigma_rot=math.radians(3), epochs=20,
                           batch_size=8, learning_rate=3e-3, seed=1)
        _, hist = training.train(net.init_params(cfg), tcfg, scenes)
        assert np.mean([h.loss for h in hist[-3:]]) < np.mean([h.loss for h in hist[:3]])

    @pytest.mark.slow
    def test_overfit_single_scene(self):
        # one fixed geometry, offsets resampled every epoch
        scenes = _tiny_scenes(1, seed=3, nu=6)
        cfg = net.NetConfig(d_m=32, heads=2, k=4, seed=7)
        tcfg = TrainConfig(sigma_pos=0.5, sigma_rot=math.radians(3), epochs=500,
                           batch_size=8, samples_per_epoch=48, learning_rate=1e-3, seed=7)
        _, hist = training.train(net.init_params(cfg), tcfg, scenes)
        # the median of the last 10 epochs: one epoch's loss swings by 10x and
        # moves with last-bit changes to the gradients
        assert np.median([h.loss_tran for h in hist[-10:]]) < 1e-3


# training.train from init seed 0 (d_m 16, 2 heads, k 4) on
# generate_scene_set(mixture, seed 0)[:64], TrainConfig(epochs=3,
# batch_size=8, learning_rate=1e-3, seed=0)
PINNED_EPOCH_LOSSES = [0.9117288545990765, 0.7206198725971839, 0.6102064022720778]
PINNED_S_TRAN = -0.010509765552876863
PINNED_S_ROT = -0.024077248855050862
PINNED_HEAD_B2 = [0.00509088331080242, 0.002426351710135338, -0.0016402908523181579]


class TestPinnedTraining:
    def test_losses_and_weights_match_recorded_values(self):
        scenes = experiment.generate_scene_set(simulator.SimConfig(distribution="mixture", seed=0),
                                               1.0, math.radians(4.0), 64, 0)
        params, hist = training.train(net.init_params(net.NetConfig(d_m=16, heads=2, k=4, seed=0)),
                                      TrainConfig(epochs=3, batch_size=8, learning_rate=1e-3, seed=0),
                                      [(sc.measurements, sc.landmarks) for sc in scenes])
        np.testing.assert_allclose([h.loss for h in hist], PINNED_EPOCH_LOSSES, rtol=0, atol=1e-12)
        np.testing.assert_allclose([params["s_tran"].data[0, 0], params["s_rot"].data[0, 0]],
                                   [PINNED_S_TRAN, PINNED_S_ROT], rtol=0, atol=1e-12)
        np.testing.assert_allclose(params["head.b2"].data.ravel(), PINNED_HEAD_B2, rtol=0, atol=1e-12)
