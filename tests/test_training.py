import math
import os
import signal
import threading
import time

import numpy as np
import pytest

from attnloc import attention_net as net
from attnloc import experiment, simulator, training
from attnloc.autodiff import Tensor
from attnloc.baselines import icp
from attnloc.dataset_io import save_checkpoint
from attnloc.geometry import Pose
from attnloc.training import (
    AdamState,
    TrainConfig,
    adam_step,
    make_training_sample,
    multitask_loss_graph,
    sample_offset,
)
from autodiff_helpers import check_gradient
import training_helpers as per_array


class TestSampleOffset:
    def test_zero_sigma(self):
        d = sample_offset(0.0, 0.0, np.random.default_rng(0))
        assert (d.x, d.y, d.phi) == (0.0, 0.0, 0.0)

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

    def test_nan_sigma_rejected(self):
        with pytest.raises(ValueError):
            sample_offset(math.nan, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            TrainConfig(sigma_pos=math.nan)

    def test_infinite_bound_fails_when_built(self):
        # it fails here, and not as numpy's OverflowError once train draws offsets with it
        with pytest.raises(ValueError, match=r"^sigma_pos must be a finite number >= 0, got inf$"):
            TrainConfig(sigma_pos=math.inf)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_learning_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=rate)

    def test_negative_seed_rejected(self):
        # numpy would refuse it only once train draws from default_rng(seed)
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(seed=-1)


class TestMakeTrainingSample:
    def _cfg(self, **kw):
        base = dict(sigma_pos=1.0, sigma_rot=math.radians(4), epochs=1, batch_size=1, seed=0)
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_offset_keeps_landmarks(self):
        lm = np.array([[3.0, 1.0], [5.0, -2.0]])
        m = lm.copy()
        (_, shifted), label = make_training_sample((m, lm), self._cfg(sigma_pos=0.0, sigma_rot=0.0),
                                                   np.random.default_rng(0))
        np.testing.assert_allclose(shifted, lm, atol=1e-15)
        assert label == Pose(0, 0, 0)

    def test_label_within_bounds(self):
        lm = np.random.default_rng(2).uniform(-20, 20, size=(8, 2))
        cfg = self._cfg()
        rng = np.random.default_rng(3)
        for _ in range(50):
            _, label = make_training_sample((lm, lm), cfg, rng)
            assert abs(label.x) <= 1.0 and abs(label.y) <= 1.0
            assert abs(label.phi) <= math.radians(4)

    def test_icp_oracle_recovers_identity_at_zero_offset(self):
        lm = np.random.default_rng(4).uniform(-20, 20, size=(10, 2))
        pair, _ = make_training_sample((lm, lm), self._cfg(sigma_pos=0.0, sigma_rot=0.0), np.random.default_rng(5))
        result = icp(*pair)
        assert abs(result.offset.x) < 1e-9
        assert abs(result.offset.y) < 1e-9
        assert abs(result.offset.phi) < 1e-9

    def test_icp_oracle_recovers_sampled_label(self):
        # the landmark transform must be exactly what the subtraction
        # correction undoes: ICP on (M, landmarks) recovers the label
        lm = np.random.default_rng(6).uniform(-20, 20, size=(12, 2))
        rng = np.random.default_rng(7)
        pair, label = make_training_sample((lm, lm), self._cfg(sigma_pos=0.4, sigma_rot=math.radians(3)), rng)
        result = icp(*pair)
        assert result.offset.x == pytest.approx(label.x, abs=1e-6)
        assert result.offset.y == pytest.approx(label.y, abs=1e-6)
        assert result.offset.phi == pytest.approx(label.phi, abs=1e-8)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            make_training_sample(([[1.0, 0.0]], np.zeros((0, 2))), self._cfg(), np.random.default_rng(0))

    def test_scene_pairs_feed_the_network(self):
        # a scene is one (measurements, landmarks) pair from the simulator to the network
        params = net.init_params(net.NetConfig(d_m=8, heads=2, k=2, seed=0))
        rng = simulator.scene_rng(0, 0)
        pair = simulator.generate_scene(simulator.SimConfig(), rng)
        assert net.forward([pair], net.inference_weights(params)).shape == (1, 3)
        sample, _ = make_training_sample(pair, self._cfg(), rng)
        assert net.forward([sample], params).data.shape == (1, 3)


def _loss(pred: Pose, label: Pose, s_tran: float, s_rot: float) -> tuple[float, float, float]:
    """multitask_loss_graph on a fixed prediction: (l_multi value, l_tran, l_rot)."""
    params = net.init_params(net.NetConfig(d_m=8, heads=2, k=2, seed=0))
    params = net.ModelParams(params.config, {**params.tensors, "s_tran": Tensor([[s_tran]]), "s_rot": Tensor([[s_rot]])})
    loss, rows = multitask_loss_graph(Tensor([pred.as_array()]), [label], params)
    assert rows[0, 0] == loss.data[0, 0]
    return loss.data[0, 0], rows[0, 1], rows[0, 2]


class TestMultitaskLoss:
    def test_zero_residuals(self):
        label = Pose(0.3, -0.2, 0.1)
        l_multi, l_tran, l_rot = _loss(label, label, s_tran=0.7, s_rot=-0.3)
        assert (l_tran, l_rot) == (0.0, 0.0)
        assert l_multi == pytest.approx(0.7 - 0.3)

    def test_unit_weights(self):
        pred = Pose(1.0, 0.0, 0.1)
        label = Pose(0.0, 1.0, 0.0)
        l_multi, l_tran, l_rot = _loss(pred, label, 0.0, 0.0)
        assert l_multi == pytest.approx(l_tran + l_rot)
        assert l_tran == pytest.approx(2.0)

    def test_direct_substitution(self):
        # L_tran=2, L_rot=1, s_tran=ln 2, s_rot=0 -> 2 + ln 2
        pred = Pose(1.0, 1.0, 1.0)
        label = Pose(0.0, 0.0, 0.0)
        l_multi, l_tran, l_rot = _loss(pred, label, math.log(2.0), 0.0)
        assert (l_tran, l_rot) == (2.0, 1.0)
        assert l_multi == pytest.approx(2.0 + math.log(2.0))

    def test_rotation_residual_wraps(self):
        near_pi = Pose(0.0, 0.0, math.pi - 0.01)
        near_minus_pi = Pose(0.0, 0.0, -math.pi + 0.01)
        _, _, l_rot = _loss(near_pi, near_minus_pi, 0.0, 0.0)
        assert l_rot == pytest.approx(0.02**2, rel=1e-9)

    def test_graph_matches_value_function(self):
        cfg = net.NetConfig(d_m=8, heads=2, k=2, seed=0)
        params = net.init_params(cfg)
        params = net.ModelParams(cfg, {**params.tensors, "s_tran": Tensor([[0.4]]), "s_rot": Tensor([[-0.2]])})
        pred = Tensor([[0.3, -0.1, 3.2]])
        label = Pose(0.1, 0.2, -3.1)
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
        label = Pose(0.1, 0.1, 0.0)
        per_array.zero_grads(params)
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
        return net.ModelParams(cfg, {"w": Tensor(np.array([[value]]))})

    def test_zero_gradient_zero_update(self):
        params = self._one_param(1.5)
        state = AdamState(params)
        adam_step(params, np.zeros(1), state, lr=0.1)
        assert params["w"].data[0, 0] == 1.5

    def test_first_step_magnitude_is_lr(self):
        for g in (1e-6, 1.0, 1e6):
            params = self._one_param(0.0)
            state = AdamState(params)
            adam_step(params, np.array([g]), state, lr=0.01)
            # epsilon shaves ~|eps/g| off the unit step
            assert abs(params["w"].data[0, 0]) == pytest.approx(0.01, rel=2e-2)

    def test_shape_mismatch_rejected(self):
        params = self._one_param(0.0)
        with pytest.raises(ValueError):
            adam_step(params, np.zeros(2), AdamState(params), lr=0.1)

    def test_scalar_quadratic_converges(self):
        params = self._one_param(0.0)
        state = AdamState(params)
        for _ in range(2000):
            w = params["w"].data[0, 0]
            adam_step(params, np.array([2.0 * (w - 3.0)]), state, lr=0.05)
            if abs(params["w"].data[0, 0] - 3.0) < 1e-3:
                break
        assert abs(params["w"].data[0, 0] - 3.0) < 1e-3

    def test_flat_update_equals_the_per_array_reference(self):
        # the same operations per element, in the same order, give the same bits
        cfg = net.NetConfig(d_m=64, heads=4, k=8, seed=3)
        params, ref = net.init_params(cfg), net.init_params(cfg)
        state, ref_state = AdamState(params), per_array.AdamState(ref)
        rng = np.random.default_rng(11)
        for _ in range(10):
            grads = {name: rng.normal(size=t.data.shape) * 10.0 ** rng.uniform(-6, 2, size=t.data.shape)
                     for name, t in ref.items()}
            per_array.adam_step(ref, grads, ref_state, lr=1e-3)
            adam_step(params, np.concatenate([g.ravel() for g in grads.values()]), state, lr=1e-3)
        for name, t in ref.items():
            np.testing.assert_array_equal(params[name].data, t.data, err_msg=name)
        np.testing.assert_array_equal(state.m, np.concatenate([m.ravel() for m in ref_state.m.values()]))
        np.testing.assert_array_equal(state.v, np.concatenate([v.ravel() for v in ref_state.v.values()]))

    def test_step_replaces_every_array_with_a_view_of_one_new_vector(self):
        params = net.init_params(net.NetConfig(d_m=8, heads=2, k=2, seed=0))
        state = AdamState(params)
        old = {name: t.data for name, t in params.items()}
        kept = {name: a.copy() for name, a in old.items()}
        adam_step(params, np.ones(params.param_count()), state, lr=0.1)
        for name, t in params.items():
            assert t.data is not old[name] and np.shares_memory(t.data, params.flat) and t.data.flags.c_contiguous
            np.testing.assert_array_equal(old[name], kept[name])


def _tiny_scenes(n, seed=0, nu=5):
    cfg = simulator.SimConfig(seed=seed, nu_min=nu, nu_max=nu, lambda_clutter=0.0,
                              lambda_miss=0.0, sigma_noise=0.0)
    return [simulator.generate_scene(cfg, simulator.scene_rng(seed, i)) for i in range(n)]


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
        make, step = training.make_training_sample, training.adam_step
        params = net.init_params(net.NetConfig(d_m=8, heads=2, k=2, seed=0))
        weights = [{k: t.data.copy() for k, t in params.items()}]  # at the start and after each step
        calls = []

        def recorded_step(p, *args):
            step(p, *args)
            weights.append({k: t.data.copy() for k, t in p.items()})

        def poisoned(*args):
            pair, label = make(*args)
            if len(calls) == 10 * epoch + sample:
                label = Pose(1e200, label.y, label.phi)
            calls.append(label)
            return pair, label

        monkeypatch.setattr(training, "make_training_sample", poisoned)
        monkeypatch.setattr(training, "adam_step", recorded_step)
        with pytest.raises(FloatingPointError, match=f"^loss is not finite at epoch {epoch}, sample {sample}$"):
            training.train(params, TrainConfig(epochs=2, batch_size=8, samples_per_epoch=10, seed=0), _tiny_scenes(3))
        # two steps an epoch (8 and 2 samples): the failing one changes no weight
        assert len(weights) == 1 + 3 * epoch
        for k, t in params.items():
            np.testing.assert_array_equal(t.data, weights[-1][k])

    def test_adam_step_is_looked_up_in_the_module_each_step(self, monkeypatch):
        # a benchmark may wrap training.adam_step per step and drop its return value, as perfbench does
        scenes = _tiny_scenes(5)
        cfg = net.NetConfig(d_m=8, heads=2, k=2, seed=0)
        tcfg = TrainConfig(epochs=2, batch_size=2, seed=1)
        want, _ = training.train(net.init_params(cfg), tcfg, scenes)
        step, found = training.adam_step, []

        def install():
            def counted(*args, **kwargs):
                found.append(training.adam_step is counted)
                step(*args, **kwargs)
                install()  # the next step must find a new wrapper

            monkeypatch.setattr(training, "adam_step", counted)

        install()
        params, _ = training.train(net.init_params(cfg), tcfg, scenes)
        assert found == [True] * (2 * 3)  # epochs x ceil(5 / 2)
        for name, t in params.items():
            np.testing.assert_array_equal(t.data, want[name].data, err_msg=name)

    def test_one_step_matches_a_fold_per_tape(self, monkeypatch):
        # the step folds the local maps once and runs their summed gradient back once; the
        # reference tapes each derive their own maps from the ModelParams
        scenes = _tiny_scenes(8, seed=4)
        cfg = net.NetConfig(d_m=16, heads=2, k=3, seed=2)
        make, forward, step = training.make_training_sample, net.forward, training.adam_step
        samples, preds, grads = [], [], []

        def recorded_sample(*args):
            samples.append(make(*args))
            return samples[-1]

        def recorded_forward(pairs, weights):
            preds.append(forward(pairs, weights))
            return preds[-1]

        def recorded_step(params, grad, *args):
            grads.append(grad.copy())
            step(params, grad, *args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # net.forward is patched in this process only
        monkeypatch.setattr(training, "make_training_sample", recorded_sample)
        monkeypatch.setattr(net, "forward", recorded_forward)
        monkeypatch.setattr(training, "adam_step", recorded_step)
        training.train(net.init_params(cfg), TrainConfig(epochs=1, batch_size=8, seed=3), scenes)
        monkeypatch.undo()
        assert len(samples) == 8 and len(preds) == 2 and len(grads) == 1
        params = net.init_params(cfg)
        per_array.zero_grads(params)
        for lo, got in zip((0, 4), preds):
            pairs, labels = zip(*samples[lo:lo + 4])
            pred = net.forward(list(pairs), params)
            np.testing.assert_array_equal(got.data, pred.data)
            multitask_loss_graph(pred, list(labels), params)[0].backward()
        lo = 0
        for name, t in params.items():
            got, want = grads[0][lo:lo + t.data.size].reshape(t.data.shape), t.grad / 8
            lo += t.data.size
            assert np.abs(want).max() > 0 and np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name

    def test_trained_arrays_are_contiguous_and_derive_anew(self, tmp_path):
        params = net.init_params(net.NetConfig(d_m=8, heads=2, k=2, seed=0))
        derived = [net.inference_weights(params)]  # before training and after each epoch
        training.train(params, TrainConfig(epochs=2, batch_size=2, seed=0), _tiny_scenes(3),
                       progress=lambda epoch, stats: derived.append(net.inference_weights(params)))
        assert all(t.data.flags.c_contiguous for _, t in params.items())
        after = net.inference_weights(params)
        assert after is derived[2] and after is not derived[1] and after is not derived[0]
        assert all(after[name] is t.data for name, t in params.items())
        assert not np.array_equal(after.local_maps[0], derived[1].local_maps[0])
        copy = net.ModelParams(params.config, {name: Tensor(t.data.copy()) for name, t in params.items()})
        save_checkpoint(params, str(tmp_path / "trained.json"))
        save_checkpoint(copy, str(tmp_path / "copy.json"))
        assert (tmp_path / "trained.json").read_bytes() == (tmp_path / "copy.json").read_bytes()

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


def _helpers(monkeypatch, cpus: int, cpu_per_wall: float = 1.0, slow_down: float = 1e3) -> list[int]:
    """Run train as on `cpus` CPUs, its clock running slow_down x as slow, and cpu_per_wall x as much CPU time.

    The default slow_down makes the first step of a small network take as
    long as one at d_m=64. Returns the list that gathers the pid of every
    helper process train forks.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    wall = time.perf_counter
    monkeypatch.setattr(time, "perf_counter", lambda: slow_down * wall())
    monkeypatch.setattr(time, "process_time", lambda: cpu_per_wall * slow_down * wall())
    pids, fork = [], os.fork

    def recorded_fork():
        pid = fork()
        pids.append(pid)  # only the caller's list is read
        return pid

    monkeypatch.setattr(os, "fork", recorded_fork)
    return pids


# 2 epochs of steps of 12, 12 and 6 samples: 3, 3 and 2 tapes, half from each pool
NET_SMALL = net.NetConfig(d_m=16, heads=2, k=3, seed=2)
MIXED = TrainConfig(epochs=2, batch_size=12, mix_ratio=0.5, samples_per_epoch=30, seed=4)


def _train_mixed(progress=None):
    return training.train(net.init_params(NET_SMALL), MIXED, _tiny_scenes(6, seed=1), _tiny_scenes(4, seed=5),
                          progress=progress)


def _bits(params, history):
    return [t.data.tobytes() for _, t in params.items()], [(h.loss, h.loss_tran, h.loss_rot) for h in history]


def _one_cpu_bits(monkeypatch):
    with monkeypatch.context() as m:
        _helpers(m, 1)
        return _bits(*_train_mixed())


def _caller_tapes(monkeypatch) -> list:
    """The list that gathers (epoch, first sample) of every training._tape this process runs."""
    tape, firsts = training._tape, []

    def counted(weights, samples, epoch, first):
        firsts.append((epoch, first))  # a forked helper appends to its own copy
        return tape(weights, samples, epoch, first)

    monkeypatch.setattr(training, "_tape", counted)
    return firsts


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestHelperProcess:
    """train's forked helper runs the later tapes of each step with the serial path's bits and errors."""

    def test_same_bits_as_one_process(self, monkeypatch):
        runs = []
        for cpus in (1, 2):
            with monkeypatch.context() as m:
                pids = _helpers(m, cpus)
                params, history = _train_mixed()
            assert len(pids) == cpus - 1
            runs.append(([t.data.tobytes() for _, t in params.items()],
                         [(h.loss, h.loss_tran, h.loss_rot) for h in history]))
        assert runs[0] == runs[1]
        _no_child_left()

    @pytest.mark.parametrize("poison", ["label", "output"])
    @pytest.mark.parametrize("epoch, sample", [(0, 21), (1, 9)])
    def test_a_helper_tape_raises_what_the_serial_path_does(self, monkeypatch, poison, epoch, sample):
        # the helper runs samples 4-11 of each later step; a huge label overflows the loss,
        # huge measurements the network output
        make, raised = training.make_training_sample, []
        for cpus in (1, 2):
            calls = []

            def poisoned(*args):
                (meas, lm), label = make(*args)
                if len(calls) == MIXED.samples_per_epoch * epoch + sample:
                    if poison == "label":
                        label = Pose(1e200, label.y, label.phi)
                    else:
                        meas = meas * 1e200
                calls.append(label)
                return (meas, lm), label

            with monkeypatch.context() as m:
                pids = _helpers(m, cpus)
                m.setattr(training, "make_training_sample", poisoned)
                with pytest.raises(FloatingPointError) as info:
                    _train_mixed()
            assert len(pids) == cpus - 1
            raised.append(str(info.value))
            _no_child_left()
        want = (f"loss is not finite at epoch {epoch}, sample {sample}" if poison == "label"
                else "network output is not finite")
        assert raised == [want, want]

    def test_no_process_outlives_a_returning_train(self, monkeypatch):
        pids = _helpers(monkeypatch, 2)
        _train_mixed()
        assert len(pids) == 1
        _no_child_left()

    @pytest.mark.parametrize("fault, match", [(KeyboardInterrupt, None)])
    def test_no_process_outlives_a_failing_train(self, monkeypatch, fault, match):
        # an interrupt in the caller
        pids = _helpers(monkeypatch, 2)

        def progress(epoch, stats):
            raise fault

        with pytest.raises(fault, match=match):
            _train_mixed(progress)
        assert len(pids) == 1
        _no_child_left()

    def test_the_helper_runs_its_share_of_the_tapes(self, monkeypatch):
        # step 0 runs its 3 tapes here, and each later step 1 of its 3 or 2; the re-run rule would hide a
        # helper that failed every step from the bit comparisons
        counts = []
        for cpus in (1, 2):
            with monkeypatch.context() as m:
                pids = _helpers(m, cpus)
                tapes = _caller_tapes(m)
                _train_mixed()
            assert len(pids) == cpus - 1
            counts.append(len(tapes))
        assert counts == [16, 8]
        _no_child_left()

    def test_a_killed_helper_hands_its_step_back(self, monkeypatch):
        # SIGKILLed after epoch 0: epoch 1's first step runs again here, and the steps after it in one process
        want = _one_cpu_bits(monkeypatch)
        pids = _helpers(monkeypatch, 2)
        tapes = _caller_tapes(monkeypatch)

        def progress(epoch, stats):
            if epoch == 0:  # once: the lost helper is reaped
                os.kill(pids[0], signal.SIGKILL)

        assert _bits(*_train_mixed(progress)) == want
        assert len(pids) == 1 and len(tapes) == 5 + 1 + 3 + 5
        _no_child_left()

    def test_a_helper_that_dies_mid_step_hands_it_back(self, monkeypatch):
        # the helper exits while it draws epoch 1's second step, after the first step's done
        want = _one_cpu_bits(monkeypatch)
        caller, make, calls = os.getpid(), training.make_training_sample, []

        def dying(*args):
            calls.append(None)  # the helper counts in its own copy
            if os.getpid() != caller and len(calls) == MIXED.samples_per_epoch + 14:
                os._exit(1)
            return make(*args)

        pids = _helpers(monkeypatch, 2)
        tapes = _caller_tapes(monkeypatch)
        monkeypatch.setattr(training, "make_training_sample", dying)
        assert _bits(*_train_mixed()) == want
        assert len(pids) == 1 and len(tapes) == 5 + 1 + 1 + 3 + 2
        _no_child_left()

    @pytest.mark.parametrize("draw, tapes", [
        (MIXED.samples_per_epoch, 5 + 1 + 3 + 3 + 2),  # epoch 1's first step, after epoch 0's last done
        (MIXED.samples_per_epoch + 24, 5 + 1 + 1 + 1 + 2),  # epoch 1's last step
    ])
    def test_a_helper_that_dies_in_its_look_ahead_hands_its_step_back(self, monkeypatch, draw, tapes):
        # the helper draws each step's batch after the step before's done and before its go
        want = _one_cpu_bits(monkeypatch)
        caller, make, calls = os.getpid(), training.make_training_sample, []

        def dying(*args):
            if os.getpid() != caller and len(calls) == draw:
                os._exit(1)
            calls.append(None)  # the helper counts on in its own copy
            return make(*args)

        pids = _helpers(monkeypatch, 2)
        caller_tapes = _caller_tapes(monkeypatch)
        monkeypatch.setattr(training, "make_training_sample", dying)
        assert _bits(*_train_mixed()) == want
        assert len(pids) == 1 and len(caller_tapes) == tapes
        _no_child_left()

    @pytest.mark.parametrize("cpus, kill", [(1, False), (2, False), (2, True)])
    def test_the_caller_draws_every_sample_once(self, monkeypatch, cpus, kill):
        # drawn ahead during a hand-off or at the step, and kept when the helper is lost after epoch 0
        make, drawn = training.make_training_sample, []

        def counted(*args):
            drawn.append(None)  # a forked helper appends to its own copy
            return make(*args)

        pids = _helpers(monkeypatch, cpus)
        monkeypatch.setattr(training, "make_training_sample", counted)

        def progress(epoch, stats):
            if kill and epoch == 0:
                os.kill(pids[0], signal.SIGKILL)

        _train_mixed(progress)
        assert len(pids) == cpus - 1 and len(drawn) == MIXED.epochs * MIXED.samples_per_epoch
        _no_child_left()

    @pytest.mark.parametrize("pool, index, steps, reports", [
        (1, 0, 3, 1),  # first drawn in epoch 1's first step: the caller draws it during epoch 0's last add
        (0, 0, 1, 0),  # first drawn in epoch 0's second step: the helper's first draw
    ])
    def test_a_draw_error_stays_in_place(self, monkeypatch, pool, index, steps, reports):
        runs = []
        for cpus in (1, 2):
            pools = _tiny_scenes(6, seed=1), _tiny_scenes(4, seed=5)
            pools[pool][index] = (pools[pool][index][0], np.zeros((0, 2)))  # no landmarks
            params, stepped, reported = net.init_params(NET_SMALL), [], []
            with monkeypatch.context() as m:
                pids = _helpers(m, cpus)
                step = training.adam_step
                m.setattr(training, "adam_step", lambda *args: (stepped.append(None), step(*args)))
                with pytest.raises(ValueError) as info:
                    training.train(params, MIXED, *pools, progress=lambda epoch, stats: reported.append((epoch, stats)))
            assert len(pids) == cpus - 1
            _no_child_left()
            runs.append((str(info.value), len(stepped), [t.data.tobytes() for _, t in params.items()], reported))
        assert runs[0] == runs[1]
        assert runs[0][0] == "training sample needs nonempty landmarks and measurements"
        assert (runs[0][1], len(runs[0][3])) == (steps, reports)

    @pytest.mark.parametrize("cpus, cpu_per_wall, slow_down, batch_size, helpers", [
        (1, 1.0, 1e3, 12, 0),  # one CPU
        (2, 2.0, 1e3, 12, 0),  # a multi-threaded BLAS already fills the cores
        (2, 1.0, 1e-3, 12, 0),  # steps too short for the hand-offs to pay
        (2, 1.0, 1e3, 4, 0),  # one tape per step
        (2, 1.0, 1e3, 12, 1),
    ])
    def test_the_helper_runs_only_where_it_can_pay(self, monkeypatch, cpus, cpu_per_wall, slow_down, batch_size,
                                                   helpers):
        pids = _helpers(monkeypatch, cpus, cpu_per_wall, slow_down)
        tcfg = TrainConfig(epochs=1, batch_size=batch_size, samples_per_epoch=24, seed=0)
        training.train(net.init_params(NET_SMALL), tcfg, _tiny_scenes(4))
        assert len(pids) == helpers
        _no_child_left()

    def test_another_python_thread_keeps_train_serial(self, monkeypatch):
        # a fork copies only the calling thread, and the other one may hold a lock
        pids = _helpers(monkeypatch, 2)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            tcfg = TrainConfig(epochs=1, batch_size=12, samples_per_epoch=24, seed=0)
            training.train(net.init_params(NET_SMALL), tcfg, _tiny_scenes(4))
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive() and pids == []


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
