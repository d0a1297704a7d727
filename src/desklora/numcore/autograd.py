"""Reverse-mode autodiff tape.

Nodes are built define-by-run: each op records the nodes it read (its
parents) and one backward closure, `grad_fn`, that maps the output gradient
to one gradient per parent, in parent order, so work the input gradients
share is done once. `backward` walks the graph in reverse topological order,
calls each reached node's `grad_fn` once and accumulates the gradients into
every reachable node that requires them. A node without a `grad_fn` is a leaf.
"""

import contextlib

import numpy as np

from ..errors import ContractError
from .tensor import DOUBLE, FULL, Tensor

# The meter charged with the byte size of every op output created while it is
# installed (see `metering`): an object with `charge(nbytes)` and `scope()`.
_meter = None

_grad_enabled = True


@contextlib.contextmanager
def metering(meter):
    """Charge `meter` for every op output created inside; restore the previous meter on exit."""
    global _meter
    previous = _meter
    _meter = meter
    try:
        yield
    finally:
        _meter = previous


@contextlib.contextmanager
def no_grad():
    """Disable tape recording; values are still computed."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class GradNode:
    """One tape node: a Tensor value, the nodes it came from and the closure
    `grad_fn(g)` that returns one gradient per parent. Under `no_grad` a node
    keeps neither, so it holds nothing its backward would have read."""

    __slots__ = ("value", "grad", "parents", "grad_fn", "requires_grad")

    def __init__(self, value: Tensor, parents=(), grad_fn=None, requires_grad: bool = False):
        self.value = value
        self.grad: Tensor | None = None
        if not _grad_enabled:
            parents, grad_fn = (), None
        self.parents = tuple(parents)
        self.grad_fn = grad_fn
        self.requires_grad = bool(requires_grad or any(p.requires_grad for p in self.parents))

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def __repr__(self):
        return f"GradNode(shape={self.shape}, dtype={self.dtype!r}, requires_grad={self.requires_grad})"


class Parameter(GradNode):
    """Trainable leaf. The optimizer swaps in new values between steps."""

    __slots__ = ("name",)

    def __init__(self, value: Tensor, name: str = ""):
        super().__init__(value, requires_grad=True)
        self.name = name

    def assign(self, value: Tensor):
        if value.shape != self.value.shape:
            raise ContractError(
                f"parameter {self.name!r}: cannot assign shape {value.shape} over {self.value.shape}"
            )
        self.value = value

    def zero_grad(self):
        self.grad = None


def op_output(value: Tensor, parents, grad_fn, saved=()) -> GradNode:
    """An op's output node over `parents`, whose `grad_fn(g)` returns one
    gradient per parent, in order. The node is charged to the installed meter
    together with the `saved` arrays its backward keeps besides its inputs;
    leaves never are."""
    if _meter is not None:
        _meter.charge(value.nbytes + sum(a.nbytes for a in saved))
    return GradNode(value, parents, grad_fn)


def constant(data, dtype: str = FULL) -> GradNode:
    """Node with no history; gradients never flow into it."""
    value = data if isinstance(data, Tensor) else Tensor(data, dtype)
    return GradNode(value)


def _topo_order(root: GradNode) -> list:
    """Iterative reverse DFS; avoids recursion limits on deep graphs."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited and parent.requires_grad:
                stack.append((parent, False))
    return order


def backward(loss: GradNode, seed: np.ndarray | None = None):
    """Accumulate gradients of `loss` into every reachable requires-grad node.

    A leaf's `grad` adds onto what earlier calls left there, so calls made
    between two `zero_grad`s sum their gradients (the trainer's micro-batches).
    `seed` overrides the initial output gradient (used internally for
    checkpoint recomputation); without it the loss must be scalar.
    """
    if seed is None:
        if loss.value.numel != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
        seed = np.ones_like(loss.value.data)
    else:
        seed = np.asarray(seed, dtype=loss.value.data.dtype)
        if seed.shape != loss.value.shape:
            raise ContractError(f"seed shape {seed.shape} != loss shape {loss.shape}")
    if not loss.requires_grad:
        return

    order = _topo_order(loss)
    grads: dict[int, np.ndarray] = {id(loss): seed}
    grad_dtype = DOUBLE if loss.value.dtype == DOUBLE else FULL

    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.grad_fn is None:
            # leaf: publish the accumulated gradient
            if node.grad is None:
                node.grad = Tensor(g, grad_dtype)
            else:
                node.grad = Tensor(node.grad.data + g, grad_dtype)
            continue
        for parent, contrib in zip(node.parents, node.grad_fn(g), strict=True):
            if not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contrib
            else:
                grads[key] = contrib


def checkpoint(fn, x: GradNode) -> GradNode:
    """Run `fn(x)` without retaining its internal tape; recompute it on backward.

    The recomputation executes the exact same op sequence, so gradients are
    bit-identical to the non-checkpointed path. When a meter is installed (see
    `metering`) at the call, the throwaway forward and the recomputation each
    run in a scope of its own, so the meter sees the block's internals as
    transient; the leaf that feeds `fn` shares `x.value` and costs nothing.
    Only the block's output is charged where `checkpoint` is called.
    """
    scope = _meter.scope if _meter is not None else contextlib.nullcontext
    with scope():
        with no_grad():
            out_value = fn(GradNode(x.value)).value

    def grad_fn(g: np.ndarray) -> tuple:
        with scope():
            leaf = GradNode(x.value, requires_grad=True)
            backward(fn(leaf), seed=g)
        return (leaf.grad.data,)

    return op_output(out_value, (x,), grad_fn)
