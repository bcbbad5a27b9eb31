"""Rank-4 tensor type with reverse-mode automatic differentiation.

Every value in the library is a dense (n, c, h, w) tensor in row-major
order, float32 or float64. Operations executed while gradient recording
is enabled append nodes to a dynamically built graph; ``backward`` walks
it once in reverse topological order and then frees it, so each recording
supports exactly one backward pass.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Iterator

import numpy as np

_FLOAT_DTYPES = (np.float32, np.float64)

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context (pure forward passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    """Whether ops record graph nodes (False inside ``no_grad``)."""
    return _grad_enabled


class AutodiffError(RuntimeError):
    pass


class _Node:
    """One recorded operation: input tensors plus a backward closure."""

    __slots__ = ("inputs", "backward_fn", "consumed")

    def __init__(self, inputs, backward_fn):
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.consumed = False


class Tensor:
    """Dense (n, c, h, w) array, optionally tracked by the autodiff graph."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        if arr.dtype not in _FLOAT_DTYPES:
            raise AutodiffError(f"unsupported dtype {arr.dtype}; use f32 or f64")
        if arr.ndim != 4:
            raise AutodiffError(f"tensors are rank-4 (n, c, h, w); got shape {arr.shape}")
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def scalar(value: float, dtype=np.float64, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.full((1, 1, 1, 1), value, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def zeros(shape, dtype=np.float32, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, dtype=np.float32, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)

    # -- basic properties -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise AutodiffError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(())[()])

    def __repr__(self):
        flags = []
        if self.requires_grad:
            flags.append("requires_grad")
        if self._node is not None:
            flags.append("recorded")
        tail = (", " + ", ".join(flags)) if flags else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tail})"

    # -- operator sugar (delegates to the recorded ops below) -----------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)


def _check_finite(arr: np.ndarray, op: str):
    # the ufunc reduce skips the Python-level wrapper of ndarray.all
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise AutodiffError(f"non-finite values produced by {op}")


def record(out: Tensor, inputs: list[Tensor], backward_fn: Callable, op: str) -> Tensor:
    """Attach a graph node to ``out`` if recording is on and any input needs grad.

    ``backward_fn(grad_out)`` must return one gradient array (or None) per input.
    """
    _check_finite(out.data, op)
    if _grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._node = _Node(list(inputs), backward_fn)
    return out


# -- backward pass ------------------------------------------------------------


def backward(loss: Tensor, store: "ParameterStore | None" = None) -> "dict[str, Tensor] | None":
    """Reverse-mode sweep from a scalar loss.

    Accumulates ``.grad`` on every reachable requires_grad leaf, consumes the
    graph (a second backward over the same recording raises), and, when a
    ParameterStore is given, returns the named gradient map.
    """
    if loss.shape != (1, 1, 1, 1):
        raise AutodiffError(f"backward needs a scalar (1,1,1,1) loss, got shape {loss.shape}")
    if loss._node is None:
        raise AutodiffError("backward on a tensor with no recorded graph")
    if loss._node.consumed:
        raise AutodiffError("graph already consumed; a recording supports a single backward")

    # Iterative topological order over recorded nodes.
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            topo.append(t)
            continue
        if id(t) in visited or t._node is None:
            continue
        visited.add(id(t))
        stack.append((t, True))
        for inp in t._node.inputs:
            if inp._node is not None and id(inp) not in visited:
                stack.append((inp, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones((1, 1, 1, 1), dtype=loss.dtype)}
    for t in reversed(topo):
        node = t._node
        g = grads.pop(id(t), None)
        if g is None:
            continue
        input_grads = node.backward_fn(g)
        for inp, gi in zip(node.inputs, input_grads):
            if gi is None:
                continue
            if inp._node is not None:
                acc = grads.get(id(inp))
                grads[id(inp)] = gi if acc is None else acc + gi
            elif inp.requires_grad:
                inp.grad = gi.copy() if inp.grad is None else inp.grad + gi
        node.consumed = True
        node.backward_fn = None
        node.inputs = ()
        if t is not loss:
            t._node = None

    if store is not None:
        return {name: Tensor(p.grad if p.grad is not None else np.zeros_like(p.data))
                for name, p in store.items()}
    return None


# -- elementwise arithmetic ---------------------------------------------------


def _broadcast_axes(a_shape, b_shape):
    """Validate the restricted broadcast rule and return b's reduction axes.

    Allowed: identical shapes, a per-channel (1, c, 1, 1) second operand, or a
    spatially-global (n, c, 1, 1) second operand.
    """
    if a_shape == b_shape:
        return ()
    n, c, h, w = a_shape
    bn, bc, bh, bw = b_shape
    if bc == c and bh == 1 and bw == 1 and bn in (1, n):
        axes = []
        if bn == 1 and n > 1:
            axes.append(0)
        if h > 1:
            axes.append(2)
        if w > 1:
            axes.append(3)
        return tuple(axes)
    raise AutodiffError(
        f"shapes {a_shape} and {b_shape} do not match and {b_shape} is not a "
        "per-channel (1,c,1,1) or spatially-global (n,c,1,1) broadcast operand")


def _reduce_to(shape, g: np.ndarray, axes) -> np.ndarray:
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return np.ascontiguousarray(g.reshape(shape))


def _binary(op: str, a: Tensor, b: Tensor) -> Tensor:
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise AutodiffError(f"{op} expects Tensor operands")
    if a.dtype != b.dtype:
        raise AutodiffError(f"{op}: dtype mismatch {a.dtype} vs {b.dtype}")
    axes = _broadcast_axes(a.shape, b.shape)
    out = Tensor(a.data + b.data if op == "add" else a.data * b.data)
    b_shape = b.shape
    a_data, b_data = a.data, b.data

    if op == "add":
        def bwd(g):
            return g, _reduce_to(b_shape, g, axes)
    else:
        def bwd(g):
            return g * b_data, _reduce_to(b_shape, g * a_data, axes)

    return record(out, [a, b], bwd, op)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary("add", a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary("mul", a, b)


def scale(a: Tensor, s: float) -> Tensor:
    s = a.dtype.type(s)
    out = Tensor(a.data * s)

    def bwd(g):
        return (g * s,)

    return record(out, [a], bwd, "scale")


def reduce_sum(a: Tensor) -> Tensor:
    out = Tensor(np.asarray(a.data.sum(), dtype=a.dtype).reshape(1, 1, 1, 1))
    shape = a.shape

    def bwd(g):
        return (np.broadcast_to(g.reshape(()), shape).astype(g.dtype, copy=True),)

    return record(out, [a], bwd, "sum")


# -- parameter store and module base ------------------------------------------


class ParameterStore:
    """Named parameter map with deterministic lexicographic iteration."""

    def __init__(self, named: Iterable[tuple[str, Tensor]]):
        self._params: dict[str, Tensor] = {}
        for name, t in named:
            if name in self._params:
                raise AutodiffError(f"duplicate parameter name {name!r}")
            self._params[name] = t

    def items(self) -> Iterator[tuple[str, Tensor]]:
        for name in self.names():
            yield name, self._params[name]

    def names(self) -> list[str]:
        return sorted(self._params)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None


class Module:
    """Minimal layer container whose attributes are its registry.

    A tensor attribute is a parameter when it requires grad and a buffer
    otherwise; a Module attribute is a child, and so is each Module of a
    list attribute, named ``<attr>.<index>``. A module's own tensors come
    before its children's, each in attribute order.
    """

    dtype = np.float32  # what every module builds in; ``astype`` casts

    def __init__(self):
        self.training = True

    def _named_children(self) -> Iterator[tuple[str, "Module"]]:
        for name, v in vars(self).items():
            if isinstance(v, Module):
                yield name, v
            elif isinstance(v, list):
                for i, m in enumerate(v):
                    if isinstance(m, Module):
                        yield f"{name}.{i}", m

    def _named_tensors(self, params: bool, prefix: str
                       ) -> Iterator[tuple[str, Tensor]]:
        for name, v in vars(self).items():
            if isinstance(v, Tensor) and v.requires_grad == params:
                yield prefix + name, v
        for name, child in self._named_children():
            yield from child._named_tensors(params, prefix + name + ".")

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        return self._named_tensors(True, "")

    def named_buffers(self) -> Iterator[tuple[str, Tensor]]:
        return self._named_tensors(False, "")

    def parameter_store(self) -> ParameterStore:
        return ParameterStore(self.named_parameters())

    def astype(self, dtype) -> "Module":
        """Cast the tensors of this module and of every child to ``dtype``,
        f32 or f64, in place (the same tensors); returns the module."""
        for v in vars(self).values():
            if isinstance(v, Tensor):
                v.data = Tensor(v.data, dtype=dtype).data  # checks the dtype
        for _, child in self._named_children():
            child.astype(dtype)
        self.dtype = np.dtype(dtype).type
        return self

    def train(self, flag: bool = True):
        self.training = flag
        for _, child in self._named_children():
            child.train(flag)
        return self

    def eval(self):
        return self.train(False)

    def num_parameters(self) -> int:
        return sum(t.size() for _, t in self.named_parameters())
