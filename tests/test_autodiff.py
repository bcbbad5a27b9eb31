"""Tensor core: construction rules, recorded arithmetic, the backward
sweep, and the finite-difference oracle itself."""

import numpy as np
import pytest

from csdn.autodiff import (AutodiffError, Module, ParameterStore, Tensor,
                           _check_finite, add, backward, mul, no_grad,
                           record, reduce_sum, scale)
from csdn.gradcheck import finite_diff_check


def rand(rng, *shape, grad=False, dtype=np.float64):
    return Tensor(rng.normal(size=shape), requires_grad=grad, dtype=dtype)


# -- construction -------------------------------------------------------------


def test_tensor_requires_rank4():
    with pytest.raises(AutodiffError, match="rank-4"):
        Tensor(np.zeros((3, 4)))
    with pytest.raises(AutodiffError, match="rank-4"):
        Tensor(np.zeros((1, 2, 3, 4, 5)))


def test_tensor_dtype_rules():
    assert Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32)).dtype == np.float32
    assert Tensor(np.zeros((1, 1, 2, 2), dtype=np.float64)).dtype == np.float64
    # integer input is promoted, not rejected
    assert Tensor(np.zeros((1, 1, 2, 2), dtype=np.int64)).dtype == np.float64
    with pytest.raises(AutodiffError, match="dtype"):
        Tensor(np.zeros((1, 1, 2, 2)), dtype=np.complex128)


def test_scalar_item_and_guards():
    t = Tensor.scalar(2.5)
    assert t.shape == (1, 1, 1, 1)
    assert t.item() == 2.5
    with pytest.raises(AutodiffError, match="non-scalar"):
        Tensor.zeros((1, 1, 2, 2)).item()


def test_grad_starts_none():
    t = Tensor.ones((1, 2, 3, 3), requires_grad=True)
    assert t.grad is None
    assert t.requires_grad


# -- arithmetic forward -------------------------------------------------------


def test_elementwise_values():
    rng = np.random.Generator(np.random.PCG64(0))
    a = rand(rng, 2, 3, 4, 4)
    b = rand(rng, 2, 3, 4, 4)
    assert np.array_equal(add(a, b).data, a.data + b.data)
    assert np.array_equal(mul(a, b).data, a.data * b.data)
    assert np.array_equal(scale(a, 0.5).data, a.data * 0.5)
    assert reduce_sum(a).item() == pytest.approx(a.data.sum())


def test_broadcast_per_channel_and_global():
    rng = np.random.Generator(np.random.PCG64(1))
    a = rand(rng, 2, 3, 4, 4)
    per_c = rand(rng, 1, 3, 1, 1)
    per_n = rand(rng, 2, 3, 1, 1)
    assert np.array_equal(add(a, per_c).data, a.data + per_c.data)
    assert np.array_equal(mul(a, per_n).data, a.data * per_n.data)


def test_broadcast_rejects_other_shapes():
    a = Tensor.ones((2, 3, 4, 4))
    for bad in ((2, 3, 4, 1), (2, 1, 1, 1), (1, 3, 4, 4)):
        with pytest.raises(AutodiffError, match="broadcast"):
            add(a, Tensor.ones(bad))


def test_operator_sugar():
    a = Tensor.ones((1, 1, 2, 2))
    b = Tensor.ones((1, 1, 2, 2))
    assert np.array_equal((a + b).data, np.full((1, 1, 2, 2), 2.0))
    assert (a * b).shape == (1, 1, 2, 2)


# -- backward mechanics -------------------------------------------------------


def test_sum_mul_gradient_is_other_factor():
    # d/da sum(a*b) = b, checked directly and against central differences
    for seed in range(5):
        rng = np.random.Generator(np.random.PCG64(seed))
        a = rand(rng, 2, 3, 4, 4, grad=True)
        b = rand(rng, 2, 3, 4, 4)
        backward(reduce_sum(mul(a, b)))
        assert np.allclose(a.grad, b.data, atol=1e-12)
        rep = finite_diff_check(
            lambda t, bb=b: reduce_sum(mul(t, bb)),
            Tensor(a.data.copy()), tol=1e-4, max_coords=24, seed=seed)
        assert rep.passed, rep


def test_grad_accumulates_over_reuse():
    a = Tensor.ones((1, 1, 2, 2), requires_grad=True)
    backward(reduce_sum(add(a, a)))
    assert np.array_equal(a.grad, np.full((1, 1, 2, 2), 2.0))


def test_grad_accumulates_across_backwards():
    a = Tensor.ones((1, 1, 2, 2), requires_grad=True)
    backward(reduce_sum(scale(a, 1.0)))
    backward(reduce_sum(scale(a, 2.0)))
    assert np.array_equal(a.grad, np.full((1, 1, 2, 2), 3.0))


def test_broadcast_backward_reduces():
    rng = np.random.Generator(np.random.PCG64(2))
    a = rand(rng, 2, 3, 4, 5)
    b = rand(rng, 1, 3, 1, 1, grad=True)
    backward(reduce_sum(mul(a, b)))
    assert b.grad.shape == (1, 3, 1, 1)
    assert np.allclose(b.grad, a.data.sum(axis=(0, 2, 3), keepdims=True))


def test_backward_requires_scalar():
    a = Tensor.ones((1, 1, 2, 2), requires_grad=True)
    with pytest.raises(AutodiffError, match="scalar"):
        backward(add(a, a))


def test_graph_consumed_after_backward():
    a = Tensor.ones((1, 1, 2, 2), requires_grad=True)
    loss = reduce_sum(a)
    backward(loss)
    with pytest.raises(AutodiffError, match="consumed|no recorded"):
        backward(loss)


def test_backward_without_graph():
    with pytest.raises(AutodiffError, match="no recorded graph"):
        backward(Tensor.scalar(1.0, requires_grad=True))


def test_diamond_graph_gradient():
    # loss = sum(a*a + a): dL/da = 2a + 1
    rng = np.random.Generator(np.random.PCG64(3))
    a = rand(rng, 1, 2, 3, 3, grad=True)
    backward(reduce_sum(add(mul(a, a), a)))
    assert np.allclose(a.grad, 2.0 * a.data + 1.0, atol=1e-12)


def test_no_grad_suppresses_recording():
    a = Tensor.ones((1, 1, 2, 2), requires_grad=True)
    with no_grad():
        out = reduce_sum(mul(a, a))
    assert out._node is None
    assert not out.requires_grad


def test_non_finite_forward_raises():
    big = Tensor(np.full((1, 1, 2, 2), 1e300))
    with np.errstate(over="ignore"):
        with pytest.raises(AutodiffError, match="non-finite"):
            mul(big, big)  # overflows to inf
        with pytest.raises(AutodiffError, match="non-finite"):
            scale(big, 1e10)


def test_check_finite_catches_every_non_finite_kind_at_either_end():
    for bad in (np.nan, np.inf, -np.inf):
        for at in (0, -1):
            for dtype in (np.float32, np.float64):
                a = np.ones((2, 3, 4, 5), dtype=dtype)
                a.reshape(-1)[at] = bad
                with pytest.raises(AutodiffError, match="by probe"):
                    _check_finite(a, "probe")
    _check_finite(np.ones((2, 3, 4, 5), dtype=np.float32), "probe")
    _check_finite(np.empty((0, 3, 4, 5), dtype=np.float32), "probe")


def test_backward_with_store_returns_named_grads():
    rng = np.random.Generator(np.random.PCG64(4))
    w = rand(rng, 1, 3, 1, 1, grad=True)
    x = rand(rng, 2, 3, 4, 4)
    store = ParameterStore([("w", w)])
    grads = backward(reduce_sum(mul(x, w)), store)
    assert set(grads) == {"w"}
    assert np.allclose(grads["w"].data,
                       x.data.sum(axis=(0, 2, 3), keepdims=True))


# -- the finite-difference oracle itself --------------------------------------


def test_finite_diff_requires_f64():
    x = Tensor.ones((1, 1, 2, 2), dtype=np.float32)
    with pytest.raises(AutodiffError, match="float64"):
        finite_diff_check(lambda t: reduce_sum(t), x, tol=1e-4)


def test_finite_diff_rejects_nondeterministic_f():
    state = {"n": 0}

    def f(t):
        state["n"] += 1
        return scale(reduce_sum(t), float(state["n"]))

    with pytest.raises(AutodiffError, match="deterministic"):
        finite_diff_check(f, Tensor.ones((1, 1, 2, 2), dtype=np.float64),
                          tol=1e-4)


def test_finite_diff_rejects_nonscalar_f():
    with pytest.raises(AutodiffError, match="scalar"):
        finite_diff_check(lambda t: mul(t, t),
                          Tensor.ones((1, 1, 2, 2), dtype=np.float64),
                          tol=1e-4)


def test_finite_diff_flags_wrong_gradient():
    # a closure whose backward is deliberately scaled must be caught
    def f(t):
        y = mul(t, t)
        bad = Tensor(y.data.copy())
        return reduce_sum(record(bad, [t], lambda g: (3.0 * g * t.data,),
                                 "bad_square"))

    rep = finite_diff_check(f, Tensor.ones((1, 1, 2, 2), dtype=np.float64),
                            tol=1e-4)
    assert not rep.passed
    assert rep.max_rel_err > 0.1


def test_finite_diff_max_coords_subsamples():
    rep = finite_diff_check(lambda t: reduce_sum(mul(t, t)),
                            Tensor.ones((1, 4, 8, 8), dtype=np.float64),
                            tol=1e-4, max_coords=7, seed=1)
    assert rep.checked == 7
    assert rep.passed


# -- parameter store and module tree ------------------------------------------


def test_parameter_store_sorted_unique():
    a = Tensor.ones((1, 1, 1, 1), requires_grad=True)
    b = Tensor.ones((1, 1, 1, 1), requires_grad=True)
    store = ParameterStore([("b", b), ("a", a)])
    assert store.names() == ["a", "b"]
    with pytest.raises(AutodiffError, match="duplicate"):
        ParameterStore([("a", a), ("a", b)])


def test_store_zero_grad():
    a = Tensor.ones((1, 1, 1, 1), requires_grad=True)
    store = ParameterStore([("a", a)])
    backward(reduce_sum(scale(a, 2.0)))
    assert a.grad is not None
    store.zero_grad()
    assert a.grad is None


class _Leaf(Module):
    def __init__(self):
        super().__init__()
        self.w = Tensor.ones((1, 2, 1, 1), requires_grad=True)
        self.running = Tensor.zeros((1, 2, 1, 1))


class _Tree(Module):
    def __init__(self):
        super().__init__()
        self.left = _Leaf()
        self.list = [_Leaf(), _Leaf()]


def test_module_names_are_dotted():
    tree = _Tree()
    names = [n for n, _ in tree.named_parameters()]
    assert names == ["left.w", "list.0.w", "list.1.w"]
    buf_names = [n for n, _ in tree.named_buffers()]
    assert buf_names == ["left.running", "list.0.running", "list.1.running"]
    assert tree.num_parameters() == 6


def test_module_train_eval_propagates():
    tree = _Tree()
    assert tree.training and tree.left.training
    tree.eval()
    assert not tree.training
    assert not tree.list[1].training
    tree.train()
    assert tree.list[0].training


def test_reassignment_moves_registration():
    leaf = _Leaf()
    leaf.w = Tensor.zeros((1, 2, 1, 1))  # no longer requires grad -> buffer
    assert [n for n, _ in leaf.named_parameters()] == []
    assert sorted(n for n, _ in leaf.named_buffers()) == ["running", "w"]
