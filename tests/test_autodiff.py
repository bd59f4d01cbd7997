import math
import weakref

import numpy as np
import pytest

from attnloc import autodiff as ad
from attnloc.autodiff import Tensor
from autodiff_helpers import check_gradient, concat, count_tensors, exp, mean, relative_error, sub

H = 1e-5
TOL = 1e-5


def _fd_check(build, params, tol=TOL):
    worst = check_gradient(build, params, h=H)
    assert worst < tol, f"finite-difference mismatch: {worst:.3e}"


def _rand(rng, rows, cols, scale=1.0):
    return Tensor(rng.normal(scale=scale, size=(rows, cols)))


class TestTensorBasics:
    def test_scalar_and_row_promotion(self):
        assert Tensor(3.0).shape == (1, 1)
        assert Tensor([1.0, 2.0]).shape == (1, 2)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Tensor([[1.0, math.nan]])

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2, 2)))

    def test_forward_deterministic(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(6, 3))
        one = (Tensor(a) @ Tensor(b)).data
        two = (Tensor(a) @ Tensor(b)).data
        np.testing.assert_array_equal(one, two)


class TestMatmul:
    def test_identity(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = Tensor(np.eye(2)) @ Tensor(x)
        np.testing.assert_array_equal(out.data, x)

    def test_hand_arithmetic(self):
        out = Tensor([[1.0, 2.0], [3.0, 4.0]]) @ Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_dimension_mismatch_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\) @ \(2, 3\)"):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        a = _rand(rng, 3, 4)
        b = _rand(rng, 4, 2)
        _fd_check(lambda: (a @ b).sum(), [a, b], tol=1e-6)


class TestLinear:
    @pytest.mark.parametrize("rows", [1, 5])
    def test_equals_matmul_plus_bias_bit_for_bit(self, rows):
        rng = np.random.default_rng(20)
        x, w, b = _rand(rng, rows, 7), _rand(rng, 7, 4), _rand(rng, 1, 4)
        up = rng.normal(size=(rows, 4))
        fused = ad.linear(x, w, b)
        (fused * Tensor(up)).sum().backward()
        np.testing.assert_array_equal(fused.data, x.data @ w.data + b.data)
        wants = (up @ w.data.T, x.data.T @ up, up.sum(axis=0, keepdims=True))
        for got, want in zip((x.grad, w.grad, b.grad), wants):
            np.testing.assert_array_equal(got, want)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(21)
        x, w, b = _rand(rng, 3, 5), _rand(rng, 5, 2), _rand(rng, 1, 2)
        up = Tensor(rng.normal(size=(3, 2)))
        _fd_check(lambda: (ad.linear(x, w, b) * up).sum(), [x, w, b])

    def test_shape_errors(self):
        with pytest.raises(ValueError, match=r"\(2, 3\) @ \(2, 3\)"):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 3))))
        with pytest.raises(ValueError, match="bias row"):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 4))))


class TestSoftmaxRows:
    def test_symmetry(self):
        out = ad.softmax_rows(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_exact_exponentials(self):
        out = ad.softmax_rows(Tensor([[math.log(3.0), math.log(1.0)]]))
        np.testing.assert_allclose(out.data, [[0.75, 0.25]], atol=1e-12)

    def test_no_overflow(self):
        out = ad.softmax_rows(Tensor([[1000.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-300)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        out = ad.softmax_rows(_rand(rng, 8, 13, scale=10.0))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(8), atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 5))
        a = ad.softmax_rows(Tensor(x)).data
        b = ad.softmax_rows(Tensor(x + 7.5)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        x = _rand(rng, 3, 6)
        w = Tensor(rng.normal(size=(3, 6)))
        _fd_check(lambda: (ad.softmax_rows(x) * w).sum(), [x])


class TestLayerNorm:
    def test_constant_row_absorbed_by_eps(self):
        g = Tensor(np.ones((1, 4)))
        b = Tensor(np.zeros((1, 4)))
        out = ad.layer_norm(Tensor([[3.0, 3.0, 3.0, 3.0]]), g, b)
        np.testing.assert_allclose(out.data, np.zeros((1, 4)), atol=1e-12)

    def test_unit_variance_row(self):
        g = Tensor(np.ones((1, 2)))
        b = Tensor(np.zeros((1, 2)))
        out = ad.layer_norm(Tensor([[1.0, -1.0]]), g, b)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-5)

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x = _rand(rng, 4, 8)
        g = Tensor(rng.normal(size=(1, 8)))
        b = Tensor(rng.normal(size=(1, 8)))
        w = Tensor(rng.normal(size=(4, 8)))
        _fd_check(lambda: (ad.layer_norm(x, g, b) * w).sum(), [x, g, b])

    @pytest.mark.parametrize("width", [2, 3, 8, 64])
    def test_equals_mean_var_formulation_bit_for_bit(self, width):
        rng = np.random.default_rng(100 + width)
        x = _rand(rng, 6, width, scale=3.0)
        g = _rand(rng, 1, width)
        b = _rand(rng, 1, width)
        up = rng.normal(size=(6, width))
        out = ad.layer_norm(x, g, b)
        (out * Tensor(up)).sum().backward()
        # reference: moments through np.mean/np.var, forward and backward
        mu = x.data.mean(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(x.data.var(axis=1, keepdims=True) + 1e-5)
        xhat = (x.data - mu) * inv
        gh = up * g.data
        gx = inv * (gh - gh.mean(axis=1, keepdims=True) - xhat * (gh * xhat).mean(axis=1, keepdims=True))
        np.testing.assert_array_equal(out.data, xhat * g.data + b.data)
        np.testing.assert_array_equal(x.grad, gx)
        np.testing.assert_array_equal(g.grad, (up * xhat).sum(axis=0, keepdims=True))
        np.testing.assert_array_equal(b.grad, up.sum(axis=0, keepdims=True))

    def test_width_one_rejected(self):
        with pytest.raises(ValueError):
            ad.layer_norm(Tensor([[1.0]]), Tensor([[1.0]]), Tensor([[0.0]]))


class TestMaxPoolRows:
    def test_single_row(self):
        out = ad.max_pool_rows(Tensor([[1.0, -2.0, 3.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, -2.0, 3.0]])

    def test_columnwise_max(self):
        out = ad.max_pool_rows(Tensor([[1.0, 5.0], [3.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[3.0, 5.0]])

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(7, 5))
        perm = rng.permutation(7)
        a = ad.max_pool_rows(Tensor(x)).data
        b = ad.max_pool_rows(Tensor(x[perm])).data
        np.testing.assert_array_equal(a, b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ad.max_pool_rows(Tensor(np.zeros((0, 3))))

    def test_tie_gradient_to_lowest_row(self):
        x = Tensor([[2.0, 1.0], [2.0, 0.0]])
        ad.max_pool_rows(x).sum().backward()
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0]])

    def test_gradient(self):
        rng = np.random.default_rng(7)
        x = _rand(rng, 5, 6)
        w = Tensor(rng.normal(size=(1, 6)))
        _fd_check(lambda: (ad.max_pool_rows(x) * w).sum(), [x])

    def test_sets_pool_separately(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 4))
        out = ad.max_pool_rows(Tensor(x), [2, 3, 1]).data
        np.testing.assert_array_equal(out, [x[:2].max(axis=0), x[2:5].max(axis=0), x[5]])
        np.testing.assert_array_equal(ad.max_pool_rows(x, [2, 3, 1]), out)

    def test_sets_tie_gradient_to_lowest_row_of_each_set(self):
        x = Tensor([[2.0, 1.0], [2.0, 0.0], [0.0, 3.0], [0.0, 3.0]])
        ad.max_pool_rows(x, [2, 2]).sum().backward()
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])

    def test_sets_gradient(self):
        rng = np.random.default_rng(9)
        x = _rand(rng, 6, 5)
        w = Tensor(rng.normal(size=(3, 5)))
        _fd_check(lambda: (ad.max_pool_rows(x, [1, 3, 2]) * w).sum(), [x])

    @pytest.mark.parametrize("counts", [[2, 1], [3, 0, 1], [5]])
    def test_bad_set_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="set counts"):
            ad.max_pool_rows(Tensor(np.zeros((4, 2))), counts)


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([[1.0, -2.0], [0.5, 3.0]])
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-15)

    def test_leaf_off_path_keeps_zero(self):
        x = Tensor([[1.0, 2.0]])
        unused = Tensor([[5.0]])
        unused.grad = np.zeros((1, 1))
        (x * x).sum().backward()
        np.testing.assert_array_equal(unused.grad, [[0.0]])

    def test_non_scalar_rejected(self):
        with pytest.raises(ValueError):
            Tensor([[1.0, 2.0]]).backward()

    def test_reused_node_accumulates(self):
        x = Tensor([[2.0]])
        y = (x * x) + (x * 3.0)  # d/dx = 2x + 3 = 7
        y.backward()
        np.testing.assert_allclose(x.grad, [[7.0]])


    @pytest.mark.parametrize("shared_first", [True, False])
    def test_diamond_with_shared_inner_node(self, shared_first):
        # a = x*x feeds the sum directly and through two more nodes; every
        # path must reach a before a's own backward runs
        x = Tensor([[0.3, -1.2], [0.7, 0.1]])
        a = x * x
        deep = exp(a * 2.0)
        (((a + deep) if shared_first else (deep + a)).sum()).backward()
        expect = 2.0 * x.data * (1.0 + 2.0 * np.exp(2.0 * x.data**2))
        np.testing.assert_allclose(x.grad, expect, rtol=1e-14)

    def test_tape_is_freed_as_backward_runs(self):
        rng = np.random.default_rng(17)
        a, w = _rand(rng, 3, 4), _rand(rng, 4, 4)
        mid = a @ w
        freed = weakref.ref(mid.data)
        loss = (ad.relu(mid) * 2.0).sum()
        del mid
        assert freed() is not None  # the tape holds it until backward has used it
        loss.backward()
        assert freed() is None
        assert loss._parents == () and loss._backward is None
        np.testing.assert_array_equal(loss.grad, [[1.0]])
        assert a.grad is not None and w.grad is not None

    def test_parents_get_distinct_grad_arrays(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0, 4.0]])
        (a + b).sum().backward()
        assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
        first = a.grad
        a.grad += 5.0
        np.testing.assert_array_equal(b.grad, [[1.0, 1.0]])
        # a later pass accumulates into the same array
        (a + b).sum().backward()
        assert a.grad is first
        np.testing.assert_array_equal(a.grad, [[7.0, 7.0]])
        np.testing.assert_array_equal(b.grad, [[2.0, 2.0]])


# every tape op, built on random parents with distinct shapes where the op allows it
PROTOCOL_OPS = {
    "add": lambda r: _rand(r, 3, 4) + _rand(r, 3, 4),
    "sub": lambda r: sub(_rand(r, 3, 4), _rand(r, 3, 4)),
    "mul": lambda r: _rand(r, 3, 4) * _rand(r, 3, 4),
    "mul_scalar": lambda r: _rand(r, 3, 4) * 2.5,
    "matmul": lambda r: _rand(r, 3, 4) @ _rand(r, 4, 2),
    "exp": lambda r: exp(_rand(r, 3, 4)),
    "sum": lambda r: _rand(r, 3, 4).sum(),
    "linear": lambda r: ad.linear(_rand(r, 3, 4), _rand(r, 4, 2), _rand(r, 1, 2)),
    "relu": lambda r: ad.relu(_rand(r, 3, 4)),
    "softmax_rows": lambda r: ad.softmax_rows(_rand(r, 3, 4)),
    "layer_norm": lambda r: ad.layer_norm(_rand(r, 3, 4), _rand(r, 1, 4), _rand(r, 1, 4)),
    "attention": lambda r: ad.attention(_rand(r, 3, 4), _rand(r, 5, 4), _rand(r, 5, 4), 2),
    "attention_grouped": lambda r: ad.attention(_rand(r, 3, 4), _rand(r, 6, 4), _rand(r, 6, 4), 2, group=2),
    "attention_sets": lambda r: ad.attention(_rand(r, 5, 4), _rand(r, 5, 4), _rand(r, 5, 4), 2, counts=[3, 2]),
    "attention_shared": lambda r: ad.attention(_rand(r, 3, 4), _rand(r, 6, 2), _rand(r, 6, 2), 2, group=2),
    "per_head_matmul": lambda r: ad.per_head_matmul(_rand(r, 3, 4), _rand(r, 4, 5), 2),
    "max_pool_rows": lambda r: ad.max_pool_rows(_rand(r, 3, 4)),
    "max_pool_sets": lambda r: ad.max_pool_rows(_rand(r, 5, 4), [1, 4]),
    "homoscedastic_loss": lambda r: ad.homoscedastic_loss(_rand(r, 2, 3), r.normal(size=(2, 3)),
                                                          _rand(r, 1, 1), _rand(r, 1, 1))[0],
    "transpose": lambda r: _rand(r, 3, 4).T,
    "mean": lambda r: mean(_rand(r, 3, 4)),
    "concat_rows": lambda r: concat([_rand(r, 3, 4), _rand(r, 1, 4), _rand(r, 2, 4)], axis=0),
    "concat_cols": lambda r: concat([_rand(r, 3, 4), _rand(r, 3, 1)], axis=1),
}


class TestBackwardProtocol:
    """An op's backward maps the upstream gradient to one gradient per parent, in parent order."""

    @pytest.mark.parametrize("op", sorted(PROTOCOL_OPS))
    def test_one_gradient_per_parent_of_its_shape(self, op):
        rng = np.random.default_rng(30)
        out = PROTOCOL_OPS[op](rng)
        grads = out._backward(rng.normal(size=out.shape))
        assert grads is not None and len(grads) == len(out._parents)
        for parent, g in zip(out._parents, grads):
            assert isinstance(g, np.ndarray) and g.shape == parent.shape


# every op autodiff._op lifts: the op, its options, and the shapes of its array inputs
LIFTED_OPS = {
    "linear": (ad.linear, (), [(3, 4), (4, 2), (1, 2)]),
    "relu": (ad.relu, (), [(3, 4)]),
    "softmax_rows": (ad.softmax_rows, (), [(3, 4)]),
    "layer_norm": (ad.layer_norm, (), [(3, 4), (1, 4), (1, 4)]),
    "attention": (ad.attention, (2,), [(3, 4), (5, 4), (5, 4)]),
    "attention_grouped": (ad.attention, (2, 2), [(3, 4), (6, 4), (6, 4)]),
    "attention_sets": (ad.attention, (2, None, [3, 2]), [(5, 4)] * 3),
    "per_head_matmul": (ad.per_head_matmul, (2,), [(3, 4), (4, 5)]),
    "max_pool_rows": (ad.max_pool_rows, ([2, 2],), [(4, 4)]),
    "max_pool_sets": (ad.max_pool_rows, ([1, 4],), [(5, 4)]),
}


class TestOpRule:
    """A lifted op given no Tensor records nothing; given any, it records one node, arrays as constant leaves."""

    @pytest.mark.parametrize("op", sorted(LIFTED_OPS))
    def test_recording_follows_the_inputs(self, op, monkeypatch):
        fn, options, shapes = LIFTED_OPS[op]
        rng = np.random.default_rng(32)
        arrays = [rng.normal(size=s) for s in shapes]
        built = count_tensors(monkeypatch)
        value = fn(*arrays, *options)
        assert type(value) is np.ndarray and built[0] == 0
        upstream = Tensor(rng.normal(size=value.shape))

        def run(plain: int | None):
            """Value and Tensor-input gradients, input `plain` passed as an array and the rest as Tensors."""
            inputs = [a if i == plain else Tensor(a) for i, a in enumerate(arrays)]
            out = fn(*inputs, *options)
            assert len(out._parents) == len(inputs)
            for x, parent in zip(inputs, out._parents):
                assert parent is x or (not parent._parents and parent.data is x)
            (out * upstream).sum().backward()
            return out.data, {i: x.grad for i, x in enumerate(inputs) if i != plain}

        ref, ref_grads = run(None)
        np.testing.assert_array_equal(value, ref)
        for plain in range(len(arrays)) if len(arrays) > 1 else ():  # one input as an array, the rest Tensors
            out, grads = run(plain)
            np.testing.assert_array_equal(out, ref)
            for i, g in grads.items():
                np.testing.assert_array_equal(g, ref_grads[i])


class TestElementwiseOps:
    def test_add_bias_row(self):
        # a bias row goes through ad.linear; + and sub need equal shapes
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[10.0, 20.0]])
        with pytest.raises(ValueError, match="equal shapes"):
            a + b
        with pytest.raises(ValueError, match="equal shapes"):
            sub(a, b)

    def test_add_shape_error(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros((2, 4)))

    def test_mul_shape_error(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 3))) * Tensor(np.zeros((1, 3)))

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_gradients_randomized(self, seed):
        rng = np.random.default_rng(seed)
        shapes = [(int(rng.integers(1, 9)), int(rng.integers(1, 65))) for _ in range(2)]
        a = _rand(rng, *shapes[0])
        b = _rand(rng, *shapes[0])
        bias = _rand(rng, 1, shapes[0][1])
        _fd_check(lambda: ((a + b) * a).sum(), [a, b])
        _fd_check(lambda: mean(sub(a, b) * b), [a, b])
        _fd_check(lambda: ad.linear(a, Tensor(np.eye(shapes[0][1])), bias).sum(), [a, bias])
        _fd_check(lambda: (a * 2.5).sum(), [a])
        _fd_check(lambda: ad.relu(a).sum(), [a])
        _fd_check(lambda: exp(a * 0.1).sum(), [a])
        _fd_check(lambda: (a.T @ b).sum(), [a, b])

    def test_concat_gradients(self):
        rng = np.random.default_rng(13)
        a = _rand(rng, 3, 4)
        b = _rand(rng, 2, 4)
        c = _rand(rng, 3, 2)
        _fd_check(lambda: (concat([a, b], axis=0) * concat([a, b], axis=0)).sum(), [a, b])
        _fd_check(lambda: mean(concat([a, c], axis=1)), [a, c])

    def test_concat_validation(self):
        with pytest.raises(ValueError):
            concat([], axis=0)
        with pytest.raises(ValueError):
            concat([Tensor([[1.0]])], axis=2)


class TestGroupedOps:
    """ad.attention with group=g: query i attends only to key rows i*g ... i*g+g-1."""

    def test_grouped_scores_matches_per_row(self):
        # one-hot values per group make the output row the attention weights
        rng = np.random.default_rng(14)
        n, k, d = 4, 3, 3
        q = rng.normal(size=(n, d))
        keys = rng.normal(size=(n * k, d))
        out = ad.attention(Tensor(q), Tensor(keys), Tensor(np.tile(np.eye(k), (n, 1))), 1, group=k).data
        for i in range(n):
            scores = q[i] @ keys[i * k : (i + 1) * k].T / math.sqrt(d)
            expect = np.exp(scores) / np.exp(scores).sum()
            np.testing.assert_allclose(out[i], expect, atol=1e-12)

    def test_grouped_mix_matches_per_row(self):
        rng = np.random.default_rng(15)
        n, k, d = 3, 4, 6
        q = rng.normal(size=(n, d))
        keys = rng.normal(size=(n * k, d))
        v = rng.normal(size=(n * k, d))
        out = ad.attention(Tensor(q), Tensor(keys), Tensor(v), 2, group=k).data
        for i in range(n):
            rows = slice(i * k, (i + 1) * k)
            expect = ad.attention(Tensor(q[i : i + 1]), Tensor(keys[rows]), Tensor(v[rows]), 2).data
            np.testing.assert_allclose(out[i : i + 1], expect, atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ad.attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((5, 3))), Tensor(np.zeros((5, 3))), 1, group=2)
        with pytest.raises(ValueError):
            ad.attention(Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 4))), Tensor(np.zeros((5, 4))), 1, group=2)
        with pytest.raises(ValueError):
            ad.attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 3))), 2, group=2)

    def test_gradients(self):
        rng = np.random.default_rng(16)
        n, k, d = 3, 2, 4
        q = _rand(rng, n, d)
        keys = _rand(rng, n * k, d)
        v = _rand(rng, n * k, d)
        w = _rand(rng, n, d)
        _fd_check(lambda: (ad.attention(q, keys, v, 2, group=k) * w).sum(), [q, keys, v])
        _fd_check(lambda: (ad.attention(q, keys, v, 2) * w).sum(), [q, keys, v])


class TestSharedHead:
    """ad.attention with keys and values of width d/h: one head that every query head shares, in grouped mode."""

    @pytest.mark.parametrize("heads", [2, 4])
    def test_equals_the_head_tiled_to_every_head(self, heads):
        rng = np.random.default_rng(22)
        n, k, dh = 3, 4, 3
        q, w = rng.normal(size=(n, heads * dh)), rng.normal(size=(n, heads * dh))
        keys, v = rng.normal(size=(n * k, dh)), rng.normal(size=(n * k, dh))
        results = []
        for tiled in (False, True):
            inputs = [Tensor(x) for x in (q, keys, v)]
            kv = [Tensor(np.tile(x.data, (1, heads))) if tiled else x for x in inputs[1:]]
            out = ad.attention(inputs[0], *kv, heads, group=k)
            (out * Tensor(w)).sum().backward()
            grads = [inputs[0].grad] + [x.grad.reshape(n * k, heads, dh).sum(axis=1) if tiled else x.grad for x in kv]
            results.append((out.data, grads))
        (shared, shared_grads), (ref, ref_grads) = results
        np.testing.assert_allclose(shared, ref, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(ad.attention(q, keys, v, heads, group=k), shared)
        for g, g_ref in zip(shared_grads, ref_grads, strict=True):
            np.testing.assert_allclose(g, g_ref, rtol=0, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(23)
        q, keys, v, w = _rand(rng, 3, 6), _rand(rng, 6, 2), _rand(rng, 6, 2), _rand(rng, 3, 6)
        _fd_check(lambda: (ad.attention(q, keys, v, 3, group=2) * w).sum(), [q, keys, v])

    def test_needs_grouped_mode(self):
        x, shared = Tensor(np.zeros((4, 4))), Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="needs grouped mode"):
            ad.attention(x, shared, shared, 2)
        with pytest.raises(ValueError, match="needs grouped mode"):
            ad.attention(x, shared, shared, 2, counts=[2, 2])
        with pytest.raises(ValueError, match="width d or d/heads"):
            ad.attention(x, Tensor(np.zeros((8, 3))), Tensor(np.zeros((8, 3))), 2, group=2)


class TestPerHeadMatmul:
    """ad.per_head_matmul: row block j of the output is column block j of a times row block j of b."""

    def test_blocks(self):
        rng = np.random.default_rng(24)
        a, b = rng.normal(size=(3, 6)), rng.normal(size=(6, 4))
        out = ad.per_head_matmul(Tensor(a), Tensor(b), 3).data
        expect = np.vstack([a[:, 2 * j : 2 * j + 2] @ b[2 * j : 2 * j + 2] for j in range(3)])
        np.testing.assert_allclose(out, expect, rtol=0, atol=1e-14)
        np.testing.assert_allclose(out.reshape(3, 3, 4).sum(axis=0), a @ b, rtol=0, atol=1e-13)

    def test_gradients(self):
        rng = np.random.default_rng(25)
        a, b, w = _rand(rng, 3, 6), _rand(rng, 6, 4), _rand(rng, 9, 4)
        _fd_check(lambda: (ad.per_head_matmul(a, b, 3) * w).sum(), [a, b])

    def test_shape_validation(self):
        for a, b, heads in (((3, 5), (5, 2), 2), ((3, 4), (6, 2), 2), ((3, 4), (4, 2), 0)):
            with pytest.raises(ValueError, match="per-head matmul"):
                ad.per_head_matmul(np.zeros(a), np.zeros(b), heads)


class TestAttentionSets:
    """ad.attention with counts: each set of rows attends only within itself."""

    @pytest.mark.parametrize("counts", [[2, 4, 1], [3, 3], [5]])
    def test_each_set_equals_its_own_attention(self, counts):
        rng = np.random.default_rng(18)
        n, d = sum(counts), 6
        q, keys, v = (rng.normal(size=(n, d)) for _ in range(3))
        out = ad.attention(Tensor(q), Tensor(keys), Tensor(v), 2, counts=counts).data
        np.testing.assert_array_equal(ad.attention(q, keys, v, 2, counts=counts), out)
        lo = 0
        for c in counts:
            rows = slice(lo, lo + c)
            expect = ad.attention(Tensor(q[rows]), Tensor(keys[rows]), Tensor(v[rows]), 2).data
            np.testing.assert_allclose(out[rows], expect, rtol=0, atol=1e-12)
            lo += c

    def test_one_set_is_global_attention_bit_for_bit(self):
        rng = np.random.default_rng(19)
        q, keys, v = (rng.normal(size=(5, 4)) for _ in range(3))
        np.testing.assert_array_equal(ad.attention(q, keys, v, 2, counts=[5]), ad.attention(q, keys, v, 2))

    @pytest.mark.parametrize("counts", [[2, 4, 1], [3, 3]])
    def test_gradients(self, counts):
        rng = np.random.default_rng(20)
        n = sum(counts)
        q, keys, v, w = (_rand(rng, n, 4) for _ in range(4))
        _fd_check(lambda: (ad.attention(q, keys, v, 2, counts=counts) * w).sum(), [q, keys, v])

    def test_validation(self):
        x = Tensor(np.zeros((4, 2)))
        for counts in ([2, 1], [4, 0], [2, 2, 1]):
            with pytest.raises(ValueError, match="set counts"):
                ad.attention(x, x, x, 1, counts=counts)
        with pytest.raises(ValueError, match="set counts"):
            ad.attention(x, Tensor(np.zeros((8, 2))), Tensor(np.zeros((8, 2))), 1, group=2, counts=[4])


class TestHomoscedasticLoss:
    def test_rows_and_sum(self):
        pred = Tensor([[1.0, 1.0, 1.0], [0.5, 0.0, -0.5]])
        target = np.zeros((2, 3))
        s_tran, s_rot = Tensor([[math.log(2.0)]]), Tensor([[0.0]])
        loss, rows = ad.homoscedastic_loss(pred, target, s_tran, s_rot)
        np.testing.assert_allclose(rows[:, 1:], [[2.0, 1.0], [0.25, 0.25]])
        np.testing.assert_allclose(rows[:, 0], [1.0 + math.log(2.0) + 1.0, 0.125 + math.log(2.0) + 0.25])
        assert loss.data[0, 0] == pytest.approx(rows[:, 0].sum(), rel=1e-15)

    def test_gradients(self):
        rng = np.random.default_rng(21)
        pred = _rand(rng, 4, 3)
        target = rng.normal(size=(4, 3))
        s_tran, s_rot = _rand(rng, 1, 1, 0.5), _rand(rng, 1, 1, 0.5)
        _fd_check(lambda: ad.homoscedastic_loss(pred, target, s_tran, s_rot)[0], [pred, s_tran, s_rot])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ad.homoscedastic_loss(Tensor(np.zeros((2, 3))), np.zeros((1, 3)), Tensor(0.0), Tensor(0.0))
        with pytest.raises(ValueError):
            ad.homoscedastic_loss(Tensor(np.zeros((2, 2))), np.zeros((2, 2)), Tensor(0.0), Tensor(0.0))


class TestNumericOracle:
    def test_relative_error_metric(self):
        a = np.array([[1.0, 2.0]])
        assert relative_error(a, a) == 0.0
        assert relative_error(a, a + 1e-6) == pytest.approx(5e-7, rel=0.1)
