"""Offset-label generation, homoscedastic multi-task loss, Adam, training loop.

Each training sample pairs measurements (true vehicle frame) with landmarks
transformed by a pose shifted by a freshly sampled offset; the offset is the
regression label. By construction correct_pose(shifted_pose, label) recovers
the true pose exactly, so the trained predictor plugs straight into the
subtraction-based inference correction.
"""

from __future__ import annotations

import gc
import math
import mmap
import os
import signal
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import attention_net as net
from . import autodiff as ad
from .autodiff import Tensor
from .geometry import ORIGIN, PoseOffset, as_points, check_int, check_number, offset_pose, utm_to_vehicle, wrap_angle

@dataclass(frozen=True)
class TrainConfig:
    """Offset sampling bounds, optimizer settings and scene mixing.

    mix_ratio is the probability a sample comes from the map-backed pool
    (0 = synthetic only, 1 = map-backed only). samples_per_epoch defaults
    to the combined pool size.
    """

    sigma_pos: float = 1.0
    sigma_rot: float = math.radians(4.0)
    epochs: int = 30
    batch_size: int = 16
    learning_rate: float = 1e-3
    mix_ratio: float = 0.0
    samples_per_epoch: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_number("sigma_pos", self.sigma_pos)
        check_number("sigma_rot", self.sigma_rot)
        if check_number("mix_ratio", self.mix_ratio) > 1:
            raise ValueError(f"mix_ratio must be in [0, 1], got {self.mix_ratio}")
        for name in ("epochs", "batch_size", *(() if self.samples_per_epoch is None else ("samples_per_epoch",))):
            check_int(name, getattr(self, name), 1)
        check_int("seed", self.seed, 0)
        check_number("learning_rate", self.learning_rate, positive=True)


def sample_offset(sigma_pos: float, sigma_rot: float, rng: np.random.Generator) -> PoseOffset:
    """Independent uniform draws: dx, dy ~ U(-sigma_pos, sigma_pos), dphi ~ U(-sigma_rot, sigma_rot)."""
    check_number("sigma_pos", sigma_pos)
    check_number("sigma_rot", sigma_rot)
    dx = rng.uniform(-sigma_pos, sigma_pos) if sigma_pos > 0 else 0.0
    dy = rng.uniform(-sigma_pos, sigma_pos) if sigma_pos > 0 else 0.0
    dphi = rng.uniform(-sigma_rot, sigma_rot) if sigma_rot > 0 else 0.0
    return PoseOffset(dx, dy, dphi)


def make_training_sample(scene, cfg: TrainConfig,
                         rng: np.random.Generator) -> tuple[tuple[np.ndarray, np.ndarray], PoseOffset]:
    """((measurements, shifted landmarks), label) from a (measurements, landmarks) pair in the true vehicle frame.

    The sampled offset shifts the true pose (the origin) componentwise to
    simulate a noisy GPS pose; the landmarks are transformed into that
    simulated frame and the offset becomes the label.
    """
    measurements, landmarks = scene
    lm = as_points(landmarks)
    m = as_points(measurements)
    if lm.shape[0] == 0 or m.shape[0] == 0:
        raise ValueError("training sample needs nonempty landmarks and measurements")
    d = sample_offset(cfg.sigma_pos, cfg.sigma_rot, rng)
    return (m, utm_to_vehicle(lm, offset_pose(ORIGIN, d))), d


def multitask_loss_graph(pred: Tensor, labels: list[PoseOffset],
                         params: net.ModelParams) -> tuple[Tensor, np.ndarray]:
    """Homoscedastic multi-task loss on the raw (B, 3) network output, one label per row.

    Returns (l_multi, rows): the differentiable 1x1 sum over rows of
    l_tran * e^-s_tran + s_tran + l_rot * e^-s_rot + s_rot, one tape node,
    and the (B, 3) array of each row's (l_multi, l_tran, l_rot), its
    squared translation residual and squared wrapped heading residual. The
    heading residual is wrapped by folding the (locally constant) 2*pi shift
    into the label, so gradients stay exact across the seam.
    """
    target = np.array([(d.dx, d.dy, d.dphi) for d in labels])
    raw_dphi = pred.data[:, 2] - target[:, 2]
    target[:, 2] -= [wrap_angle(x) - x for x in raw_dphi]
    return ad.homoscedastic_loss(pred, target, params["s_tran"], params["s_rot"])


class AdamState:
    """Adam's moments m and v, each one vector laid out as ModelParams.flat, and the step count t."""

    def __init__(self, params: net.ModelParams):
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.t = 0


def adam_step(
    params: net.ModelParams,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update of params.flat by the flat gradient, which it uses as scratch.

    Per element the operations, in their order, are those of
    m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g g and
    x - lr m_hat / (sqrt(v_hat) + eps), so the bits equal a per-array
    update. The moments change in place; the new values go to a new
    vector, which params binds in place of its flat one.
    """
    x = params.flat
    if grad.shape != x.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match the {x.size} parameters")
    state.t += 1
    t = state.t
    new = np.multiply(grad, 1 - beta1)
    state.m *= beta1
    state.m += new
    np.multiply(grad, 1 - beta2, out=new)
    new *= grad
    state.v *= beta2
    state.v += new
    np.divide(state.v, 1 - beta2**t, out=grad)  # grad is scratch from here: the moments hold it
    np.sqrt(grad, out=grad)
    grad += eps
    np.divide(state.m, 1 - beta1**t, out=new)
    new *= lr
    new /= grad
    np.subtract(x, new, out=new)
    params.bind(new)


@dataclass
class EpochStats:
    loss: float
    loss_tran: float
    loss_rot: float


def _batches(cfg: TrainConfig, syn: list, mapped: list, n_per_epoch: int):
    """(epoch, first, batch) per optimizer step, drawn in order from cfg.seed's stream; first indexes the epoch."""
    rng = np.random.default_rng(cfg.seed)
    for epoch in range(cfg.epochs):
        for first in range(0, n_per_epoch, cfg.batch_size):
            batch = []
            for _ in range(min(cfg.batch_size, n_per_epoch - first)):
                use_map = mapped and (cfg.mix_ratio >= 1.0 or rng.random() < cfg.mix_ratio)
                pool = mapped if use_map else syn
                batch.append(make_training_sample(pool[rng.integers(len(pool))], cfg, rng))
            yield epoch, first, batch


def _tape(weights: net.Weights, samples: list, epoch: int, first: int) -> np.ndarray:
    """One stacked forward, loss and backward over samples, the first of them sample `first`; their loss rows."""
    pairs, labels = zip(*samples)
    pred = net.forward(list(pairs), weights)
    loss, rows = multitask_loss_graph(pred, list(labels), weights)
    bad = np.flatnonzero(~np.isfinite(rows[:, 0]))
    if bad.size:
        raise FloatingPointError(f"loss is not finite at epoch {epoch}, sample {first + bad[0]}")
    loss.backward()
    return rows


# A shorter first step keeps training in one process: the helper's hand-offs and its own
# fold and draw cost about what half of such a step's tapes save (steps of 3-5 ms at
# d_m 16-32 gained nothing on a 2-vCPU host, where 13 ms steps at d_m=64 gained 18%)
MIN_HELPER_STEP_S = 0.01


def _helper_pays(cpu0: float, wall0: float) -> bool:
    """Whether a helper process would speed up steps like the one since process_time, perf_counter read cpu0, wall0.

    The step took MIN_HELPER_STEP_S or longer, the process may run on two
    or more CPUs, it used no more CPU time than 1.5x the wall-clock (a
    multi-threaded BLAS that already fills the cores reads about 2x), and
    no other Python thread runs, which a fork would leave behind holding
    whatever locks it held.
    """
    wall = time.perf_counter() - wall0
    return (wall >= MIN_HELPER_STEP_S and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
            and threading.active_count() == 1 and time.process_time() - cpu0 <= 1.5 * wall)


_GO, _ADD, _DONE = b"g", b"a", b"d"  # the hand-offs of a step, each one byte


class _Helper:
    """A forked process that runs the later half of the tapes of every step that has two or more.

    The caller writes each later step's parameter values into the shared
    vector `values`, which the helper's copy of the parameters views, and
    says go before drawing that step's batch. The helper draws the same
    batch from its copy of the caller's batch stream, runs its tapes on its
    own recorded Weights, each into a fresh gradient, and writes their loss
    rows into `rows` at their places in the batch. Once the caller's tapes
    are in the shared `grad` and `leaves` it says add; the helper adds its
    own into both, one tape at a time in tape order, and says done. Each
    parameter and local-map leaf gets one contribution per tape, so the sums
    are bit-identical to one process's. Any exception ends the helper, and a
    step the caller gets no done for runs again in the caller.
    """

    def __init__(self, params: net.ModelParams, steps, batch_size: int):
        maps = [leaf.shape for leaf in net.Weights(params, record=False).local_maps]
        layout = [(2, params.param_count()), *maps, (batch_size, 3)]  # values and grad are the two rows of the first
        shared = np.frombuffer(mmap.mmap(-1, 8 * sum(r * c for r, c in layout)), dtype=np.float64)
        (self.values, self.grad), *self.leaves, self.rows = net._views(shared, layout)
        down, self.down = os.pipe()  # caller to helper: read end, write end
        self.up, up = os.pipe()  # helper to caller
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (down, self.down, self.up, up):
                os.close(fd)
            raise
        if self.pid == 0:
            try:
                gc.freeze()  # the parent's objects are its own to collect
                os.close(self.down)
                os.close(self.up)
                self._serve(params, steps, down, up)
            finally:
                os._exit(0)
        os.close(down)
        os.close(up)

    def _serve(self, params: net.ModelParams, steps, down: int, up: int) -> None:
        params.bind(self.values)  # the caller writes each step's values into this copy's flat before go
        while os.read(down, 1) == _GO:
            epoch, first, batch = next(steps)
            starts = range(0, len(batch), net.SCENES_PER_FORWARD)
            if len(starts) < 2:
                continue
            weights = net.Weights(params, record=True)
            tapes = []
            for lo in starts[len(starts) // 2:]:
                grad = np.zeros_like(self.values)
                params.bind(grad, grad=True)
                for leaf in weights.local_maps:
                    leaf.grad = None
                tape = batch[lo:lo + net.SCENES_PER_FORWARD]
                self.rows[lo:lo + len(tape)] = _tape(weights, tape, epoch, first + lo)
                tapes.append((grad, [leaf.grad for leaf in weights.local_maps]))
            if os.read(down, 1) != _ADD:
                return
            for grad, leaf_grads in tapes:
                self.grad += grad
                for view, g in zip(self.leaves, leaf_grads):
                    view += g
            os.write(up, _DONE)

    def _say(self, what: bytes) -> bool:
        try:
            return os.write(self.down, what) == 1
        except BrokenPipeError:
            return False

    def go(self, values: np.ndarray) -> None:
        """Hand the helper the next step's parameter values, and zero the shared gradient for the caller's tapes."""
        self.values[...] = values
        self.grad.fill(0.0)
        self._say(_GO)  # a helper lost here is found at the step's add

    def add(self, leaves: tuple[Tensor, ...]) -> bool:
        """After the caller's tapes: the leaves' gradients shared and the helper's tapes added in; False if it is lost."""
        for leaf, view in zip(leaves, self.leaves):
            view[...] = leaf.grad
            leaf.grad = view
        return self._say(_ADD) and os.read(self.up, 1) == _DONE

    def close(self) -> None:
        """Kill and reap the helper, whatever it is doing."""
        os.close(self.down)
        os.close(self.up)
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def _step(params: net.ModelParams, grad: np.ndarray, sums: np.ndarray, epoch: int, first: int, batch: list,
          helper: _Helper | None = None) -> bool:
    """Run one step's tapes into the zeroed flat gradient grad, then the fold; False if the helper is lost.

    With a helper, it runs the later half of the tapes. Once every tape
    is in, their loss rows are added into sums one at a time, in batch order.
    """
    params.bind(grad, grad=True)
    weights = net.Weights(params, record=True)
    starts = range(0, len(batch), net.SCENES_PER_FORWARD)
    mine = starts[:len(starts) // 2] if helper else starts
    rows = [_tape(weights, batch[lo:lo + net.SCENES_PER_FORWARD], epoch, first + lo) for lo in mine]
    if helper is not None:
        if not helper.add(weights.local_maps):
            return False
        rows.append(helper.rows[starts[len(mine)]:len(batch)])
    weights.fold_backward()
    for row in np.concatenate(rows):
        sums += row
    return True


@np.errstate(all="ignore")  # a diverging run stops at the finiteness checks, without warnings
def train(
    params: net.ModelParams,
    cfg: TrainConfig,
    synthetic_scenes: list[tuple[np.ndarray, np.ndarray]],
    map_scenes: list[tuple[np.ndarray, np.ndarray]] = (),
    progress=None,
) -> tuple[net.ModelParams, list[EpochStats]]:
    """Train in place over (measurements, landmarks) scene pairs.

    Landmarks are true-vehicle-frame positions; a fresh offset is sampled
    per scene per epoch. Each logical batch draws all its samples first,
    then runs them as tapes of net.SCENES_PER_FORWARD scenes, one stacked
    forward and backward each (_step). The weight-only work runs once per
    step: every tape reads the local maps that recorded net.Weights folded
    at the step's start, and their summed gradient runs back through the
    fold once after the last tape. The parameters' gradients are the views
    of one zeroed flat gradient, laid out as params.flat, which is averaged
    over the batch, checked and handed to adam_step.

    When the first step, run here, has two or more tapes and _helper_pays
    says a second CPU would speed such steps up, one forked helper process
    (_Helper) runs the later half of the tapes of every later step that has
    two or more, with the same bits as running them all here. A helper that
    raises or dies hands its step back: train kills and reaps it, and that
    step and every later one run here, the step again on a fresh gradient,
    with the same bits or the same error. The helper never outlives train.
    Deterministic for a fixed (cfg.seed, params, scenes) triple. A
    non-finite loss raises FloatingPointError naming the epoch and the
    sample, and a non-finite batch gradient one naming the epoch and the
    step, before any weight changes.
    """
    syn = list(synthetic_scenes)
    mapped = list(map_scenes)
    if cfg.mix_ratio > 0 and not mapped:
        raise ValueError("mix_ratio > 0 requires map-backed scenes")
    if cfg.mix_ratio < 1 and not syn:
        raise ValueError("mix_ratio < 1 requires synthetic scenes")
    n_per_epoch = cfg.samples_per_epoch or (len(syn) + len(mapped))
    state = AdamState(params)
    steps = _batches(cfg, syn, mapped, n_per_epoch)
    history: list[EpochStats] = []
    helper = None
    try:
        for epoch, first, batch in steps:
            clock = time.process_time(), time.perf_counter()
            if first == 0:
                sums = np.zeros(3)
            split = helper is not None and len(batch) > net.SCENES_PER_FORWARD
            grad = helper.grad if split else np.zeros_like(params.flat)
            if not _step(params, grad, sums, epoch, first, batch, helper if split else None):
                helper.close()  # lost before done: the whole step runs here
                helper = None
                grad = np.zeros_like(params.flat)
                _step(params, grad, sums, epoch, first, batch)
            grad /= len(batch)
            if not np.isfinite(grad).all():
                raise FloatingPointError(f"gradient is not finite at epoch {epoch}, step {first // cfg.batch_size}")
            adam_step(params, grad, state, cfg.learning_rate)
            last = (epoch + 1, first + len(batch)) == (cfg.epochs, n_per_epoch)
            if epoch == first == 0 and len(batch) > net.SCENES_PER_FORWARD and not last and _helper_pays(*clock):
                try:
                    helper = _Helper(params, steps, cfg.batch_size)
                except OSError:  # no process to be had: train on here
                    pass
            if helper is not None and not last:
                helper.go(params.flat)
            if first + len(batch) == n_per_epoch:
                stats = EpochStats(*(sums / n_per_epoch))
                history.append(stats)
                if progress is not None:
                    progress(epoch, stats)
    finally:
        if helper is not None:
            helper.close()
    return params, history
