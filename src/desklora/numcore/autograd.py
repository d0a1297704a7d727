"""Reverse-mode autodiff tape.

Nodes are built define-by-run: each op records its parents together with a
local-backward closure mapping the output gradient to that parent's gradient
contribution. `backward` walks the graph in reverse topological order and
accumulates gradients into every reachable node that requires them.
"""

import contextlib

import numpy as np

from ..errors import ContractError
from .tensor import DOUBLE, FULL, Tensor

# Hook invoked with the byte size of every node value created while set.
# Installed by the trainer's activation meter; None outside training scopes.
_alloc_hook = None

_grad_enabled = True


def set_alloc_hook(fn):
    global _alloc_hook
    previous = _alloc_hook
    _alloc_hook = fn
    return previous


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


def grad_enabled() -> bool:
    return _grad_enabled


class GradNode:
    """One tape node: a Tensor value plus edges to the nodes it came from."""

    __slots__ = ("value", "grad", "parents", "requires_grad")

    def __init__(self, value: Tensor, parents=(), requires_grad: bool = False):
        self.value = value
        self.grad: Tensor | None = None
        if not _grad_enabled:
            parents = ()
        self.parents = tuple(parents)
        self.requires_grad = bool(requires_grad or any(p.requires_grad for p, _ in self.parents))
        if _alloc_hook is not None:
            _alloc_hook(value.nbytes)

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
        for parent, _ in node.parents:
            if id(parent) not in visited and parent.requires_grad:
                stack.append((parent, False))
    return order


def backward(loss: GradNode, seed: np.ndarray | None = None):
    """Accumulate gradients of `loss` into every reachable requires-grad node.

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
        for parent, local_backward in node.parents:
            if not parent.requires_grad:
                continue
            contrib = local_backward(g)
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contrib
            else:
                grads[key] = contrib
        if node.requires_grad and (not node.parents or isinstance(node, Parameter)):
            # leaf: publish the accumulated gradient
            if node.grad is None:
                node.grad = Tensor(g, grad_dtype)
            else:
                node.grad = Tensor(node.grad.data + g, grad_dtype)


def checkpoint(fn, x: GradNode, scope_factory=None) -> GradNode:
    """Run `fn(x)` without retaining its internal tape; recompute it on backward.

    The recomputation executes the exact same op sequence, so gradients are
    bit-identical to the non-checkpointed path. `scope_factory`, when given,
    must return a context manager; it is entered around both the throwaway
    forward and the recomputation so an activation meter can observe that the
    block's internals are transient.
    """
    scope = scope_factory if scope_factory is not None else contextlib.nullcontext

    with scope():
        with no_grad():
            out_value = fn(GradNode(x.value)).value

    def recompute_backward(g: np.ndarray) -> np.ndarray:
        with scope():
            leaf = GradNode(x.value, requires_grad=True)
            out = fn(leaf)
            backward(out, seed=g)
        return leaf.grad.data

    return GradNode(out_value, parents=((x, recompute_backward),), requires_grad=True)
