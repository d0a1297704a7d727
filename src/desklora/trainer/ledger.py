"""Byte-accounting ledger enforcing host/device budget ceilings.

Budgets model the target hardware split: quantized weights, their resident
dequantized copies, adapters and activations count against the device budget; optimizer moments and master
copies against the host budget. Only engine-registered allocations are
tracked; this is an accounting realization of the memory limits, not an OS
allocator.
"""

import contextlib
from dataclasses import dataclass, field

from ..errors import BudgetError, ConfigError, ContractError
from ..numcore import metering

DEVICE_CATEGORIES = ("quantized_weights", "dequantized_weights", "adapters", "activations")
HOST_CATEGORIES = ("optimizer_states", "other")
CATEGORIES = DEVICE_CATEGORIES + HOST_CATEGORIES


@dataclass
class MemoryBudget:
    device_bytes: int = int(3.5 * 2**30)
    host_bytes: int = int(12 * 2**30)

    def __post_init__(self):
        for name, value in (("device_bytes", self.device_bytes), ("host_bytes", self.host_bytes)):
            if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
                raise ConfigError(f"budget {name} must be a positive int, got {value!r}")


@dataclass
class MemoryLedger:
    budget: MemoryBudget = field(default_factory=MemoryBudget)

    def __post_init__(self):
        self.totals = {c: 0 for c in CATEGORIES}
        self._device_total = 0  # running sums of `totals` over each side's categories
        self._host_total = 0
        self.device_high_water = 0
        self.host_high_water = 0

    def device_total(self) -> int:
        return self._device_total

    def host_total(self) -> int:
        return self._host_total

    def breakdown(self) -> dict:
        return {
            "totals": dict(self.totals),
            "device_total": self.device_total(),
            "host_total": self.host_total(),
            "device_budget": self.budget.device_bytes,
            "host_budget": self.budget.host_bytes,
            "device_high_water": self.device_high_water,
            "host_high_water": self.host_high_water,
        }

    def allocate(self, category: str, nbytes: int):
        """Record an allocation; fail before it would breach a budget."""
        if category not in CATEGORIES:
            raise ContractError(f"unknown ledger category {category!r}")
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ContractError(f"negative allocation of {nbytes} bytes")
        device = category in DEVICE_CATEGORIES
        budget = self.budget.device_bytes if device else self.budget.host_bytes
        total = (self._device_total if device else self._host_total) + nbytes
        if total > budget:
            side = "device" if device else "host"
            raise BudgetError(
                f"{side} budget exceeded: {total} > {budget} bytes "
                f"(allocating {nbytes} under {category!r})",
                breakdown=self.breakdown(),
            )
        self.totals[category] += nbytes
        if device:
            self._device_total = total
            self.device_high_water = max(self.device_high_water, total)
        else:
            self._host_total = total
            self.host_high_water = max(self.host_high_water, total)

    def release(self, category: str, nbytes: int):
        if category not in CATEGORIES:
            raise ContractError(f"unknown ledger category {category!r}")
        nbytes = int(nbytes)
        if nbytes < 0 or nbytes > self.totals[category]:
            raise ContractError(
                f"release of {nbytes} bytes from {category!r} holding {self.totals[category]}"
            )
        self.totals[category] -= nbytes
        if category in DEVICE_CATEGORIES:
            self._device_total -= nbytes
        else:
            self._host_total -= nbytes


class ActivationMeter:
    """Charges op outputs to a ledger's activation category.

    Inside `scope()` autograd charges the meter for every op output it
    creates, and `checkpoint` opens nested scopes on it. Every scope releases
    the bytes charged while it was innermost, so transient graphs
    (checkpointed block recomputation) raise and then lower the water line.
    An op charges its output plus the arrays it declares as `saved`: for
    `lora.forward`, the rank-r product, Aᵀ, Bᵀ and the dropout multiplier. Leaves
    cost nothing: parameters, constants and the leaf `checkpoint` builds over
    its input, which holds the input's own read-only array, not a copy.
    The dequantized frozen weights are no nodes at all; `register_static_memory`
    charges them as `dequantized_weights` when training starts. Ops that return
    their input node (dropout off, `astype` to the same precision) cost nothing.
    """

    def __init__(self, ledger: MemoryLedger):
        self.ledger = ledger
        self._stack: list[int] = []

    def charge(self, nbytes: int):
        self.ledger.allocate("activations", nbytes)
        self._stack[-1] += nbytes

    @contextlib.contextmanager
    def scope(self):
        self._stack.append(0)
        try:
            with metering(self):
                yield self
        finally:
            self.ledger.release("activations", self._stack.pop())
