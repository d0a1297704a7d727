"""Reverse-mode autodiff tape over read-only numpy arrays.

Nodes are built define-by-run: each op records the nodes it read (its
parents) and one backward closure, `grad_fn`, that maps the output gradient
to one gradient per parent, in parent order, so work the input gradients
share is done once. `backward` walks the graph in reverse topological order,
calls each reached node's `grad_fn` once and accumulates the gradients into
every reachable node that requires them. A node without a `grad_fn` is a leaf.

A node's value, like a leaf's gradient, is a C-contiguous, read-only array in
one of two precisions: "full" stores float32, "double" float64 (used for
gradient checking). The tags name a precision in configs and files;
`storage_dtype` maps a tag to its numpy dtype.
"""

import contextlib

import numpy as np

from ..errors import ContractError

FULL = "full"
DOUBLE = "double"

_STORAGE = {FULL: np.dtype(np.float32), DOUBLE: np.dtype(np.float64)}

# The meter charged with the byte size of every op output created while it is
# installed (see `metering`): an object with `charge(nbytes)` and `scope()`.
_meter = None

# Ops keep their parents and `grad_fn` while `_record` is set, and work out
# whether they need a gradient while `_track` is. `no_grad` clears both; the
# throwaway forward of `checkpoint` clears `_record` only.
_record = _track = True


def storage_dtype(precision: str) -> np.dtype:
    """The numpy dtype of a precision tag: float32 for "full", float64 for "double"."""
    if precision not in _STORAGE:
        raise ValueError(f"unknown precision {precision!r}")
    return _STORAGE[precision]


def node_value(data, dtype, copy: bool = False) -> np.ndarray:
    """`data` as a node value: an array of numpy `dtype`, C-contiguous and
    read-only. Without `copy`, an array that already has that dtype and layout
    is kept, not copied, so the caller hands it over and must not write it."""
    value = (np.array if copy else np.asarray)(data, dtype=dtype, order="C")
    value.flags.writeable = False
    return value


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
def _taping(record: bool, track: bool):
    global _record, _track
    previous = _record, _track
    _record, _track = record, track
    try:
        yield
    finally:
        _record, _track = previous


def no_grad():
    """Disable tape recording; values are still computed."""
    return _taping(False, False)


def grad_enabled() -> bool:
    """False inside `no_grad`, where ops neither record the tape nor track gradients."""
    return _track


class GradNode:
    """One tape node: a node value (see `node_value`), the nodes it came from
    and the closure `grad_fn(g)` that returns one gradient per parent. Under
    `no_grad` a node keeps neither, so it holds nothing its backward would
    have read."""

    __slots__ = ("value", "grad", "parents", "grad_fn", "requires_grad")

    def __init__(self, value: np.ndarray, parents=(), grad_fn=None, requires_grad: bool = False):
        self.value = value
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad or (_track and any(p.requires_grad for p in parents)))
        self.parents, self.grad_fn = (tuple(parents), grad_fn) if _record else ((), None)

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def __repr__(self):
        return f"GradNode(shape={self.shape}, dtype={self.dtype!r}, requires_grad={self.requires_grad})"


class Parameter(GradNode):
    """Trainable leaf in precision `dtype`, over a copy of `data`. The
    optimizer swaps in new values between steps."""

    __slots__ = ("name",)

    def __init__(self, data, dtype: str = FULL, name: str = ""):
        super().__init__(node_value(data, storage_dtype(dtype), copy=True), requires_grad=True)
        self.name = name

    def assign(self, data):
        """Replace the value with a copy of `data` in the parameter's precision."""
        value = node_value(data, self.value.dtype, copy=True)
        if value.shape != self.value.shape:
            raise ContractError(
                f"parameter {self.name!r}: cannot assign shape {value.shape} over {self.value.shape}"
            )
        self.value = value

    def zero_grad(self):
        self.grad = None


def op_output(value: np.ndarray, parents, grad_fn, saved=(), dtype=None) -> GradNode:
    """An op's output node over `parents`, whose `grad_fn(g)` returns one
    gradient per parent, in order. `value` becomes the node value (see
    `node_value`) in numpy `dtype`; by default float64 when every parent is
    float64, else float32. The node is charged to the installed meter together
    with the `saved` arrays its backward keeps besides its inputs; leaves never are."""
    if dtype is None:
        dtype = np.float64 if all(p.value.dtype == np.float64 for p in parents) else np.float32
    value = node_value(value, dtype)
    if _meter is not None:
        _meter.charge(value.nbytes + sum(a.nbytes for a in saved))
    return GradNode(value, parents, grad_fn)


def constant(data, dtype: str = FULL) -> GradNode:
    """Node with no history over a copy of `data`; gradients never flow into it."""
    return GradNode(node_value(data, storage_dtype(dtype), copy=True))


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
        if loss.value.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
        seed = np.ones_like(loss.value)
    else:
        seed = np.asarray(seed, dtype=loss.dtype)
        if seed.shape != loss.shape:
            raise ContractError(f"seed shape {seed.shape} != loss shape {loss.shape}")
    if not loss.requires_grad:
        return

    order = _topo_order(loss)
    grads: dict[int, np.ndarray] = {id(loss): seed}

    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.grad_fn is None:
            # leaf: publish the accumulated gradient, in the loss's precision
            node.grad = node_value(g if node.grad is None else node.grad + g, loss.dtype)
            continue
        for parent, contrib in zip(node.parents, node.grad_fn(g), strict=True):
            if not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contrib
            else:
                grads[key] = contrib


def checkpoint(fn, *xs: GradNode) -> GradNode:
    """Run `fn(*xs)` without retaining its internal tape; recompute it on backward.

    The output is one node over `xs`, and it needs a gradient when an input
    does or when `fn` reads a node that does, such as a parameter. Backward
    reruns `fn` once over leaves that share the inputs' values and returns
    each input's gradient, None for an input that needs none. The rerun
    executes the exact same op sequence, so gradients are bit-identical to
    the plain call's. When a meter is installed (see `metering`) at the
    call, the throwaway forward and the rerun each run in a scope of their
    own, so the meter sees what `fn` keeps for its backward as transient;
    the leaves cost nothing. Only the output is charged where `checkpoint`
    is called. The model checkpoints attention and GELU this way
    (Korthikanti et al. 2022, arXiv 2205.05198, §5).
    """
    scope = _meter.scope if _meter is not None else contextlib.nullcontext
    with scope(), _taping(False, _track):
        out = fn(*(GradNode(x.value) for x in xs))

    def grad_fn(g: np.ndarray) -> tuple:
        with scope():
            leaves = [GradNode(x.value, requires_grad=x.requires_grad) for x in xs]
            backward(fn(*leaves), seed=g)
        return tuple(leaf.grad for leaf in leaves)

    node = op_output(out.value, xs, grad_fn, dtype=out.value.dtype)
    node.requires_grad = node.requires_grad or (_track and out.requires_grad)
    return node
