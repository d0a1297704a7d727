"""Byte-accounting ledger enforcing host/device budget ceilings.

Budgets model the target hardware split: quantized weights, adapters and
activations count against the device budget; optimizer moments and master
copies against the host budget. Only engine-registered allocations are
tracked; this is an accounting realization of the memory limits, not an OS
allocator.
"""

import contextlib
from dataclasses import dataclass, field

from ..errors import BudgetError, ContractError
from ..numcore import set_alloc_hook

DEVICE_CATEGORIES = ("quantized_weights", "adapters", "activations")
HOST_CATEGORIES = ("optimizer_states", "other")
CATEGORIES = DEVICE_CATEGORIES + HOST_CATEGORIES


@dataclass
class MemoryBudget:
    device_bytes: int = int(3.5 * 2**30)
    host_bytes: int = int(12 * 2**30)

    @classmethod
    def from_dict(cls, d: dict) -> "MemoryBudget":
        return cls(device_bytes=int(d["device_bytes"]), host_bytes=int(d["host_bytes"]))


@dataclass
class MemoryLedger:
    budget: MemoryBudget = field(default_factory=MemoryBudget)

    def __post_init__(self):
        self.totals = {c: 0 for c in CATEGORIES}
        self.device_high_water = 0
        self.host_high_water = 0

    def device_total(self) -> int:
        return sum(self.totals[c] for c in DEVICE_CATEGORIES)

    def host_total(self) -> int:
        return sum(self.totals[c] for c in HOST_CATEGORIES)

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
        total = (self.device_total() if device else self.host_total()) + nbytes
        if total > budget:
            side = "device" if device else "host"
            raise BudgetError(
                f"{side} budget exceeded: {total} > {budget} bytes "
                f"(allocating {nbytes} under {category!r})",
                breakdown=self.breakdown(),
            )
        self.totals[category] += nbytes
        if device:
            self.device_high_water = max(self.device_high_water, self.device_total())
        else:
            self.host_high_water = max(self.host_high_water, self.host_total())

    def release(self, category: str, nbytes: int):
        if category not in CATEGORIES:
            raise ContractError(f"unknown ledger category {category!r}")
        nbytes = int(nbytes)
        if nbytes < 0 or nbytes > self.totals[category]:
            raise ContractError(
                f"release of {nbytes} bytes from {category!r} holding {self.totals[category]}"
            )
        self.totals[category] -= nbytes


class ActivationMeter:
    """Feeds tape-node allocations into a ledger's activation category.

    Every scope tracks the bytes created while it is the innermost active
    scope and releases them on exit, so transient graphs (checkpointed block
    recomputation) raise and then lower the water line.
    """

    def __init__(self, ledger: MemoryLedger):
        self.ledger = ledger
        self._stack: list[int] = []
        self._previous_hook = None

    def _on_alloc(self, nbytes: int):
        self._stack[-1] += nbytes
        self.ledger.allocate("activations", nbytes)

    @contextlib.contextmanager
    def scope(self):
        if not self._stack:
            self._previous_hook = set_alloc_hook(self._on_alloc)
        self._stack.append(0)
        try:
            yield self
        finally:
            counted = self._stack.pop()
            self.ledger.release("activations", counted)
            if not self._stack:
                set_alloc_hook(self._previous_hook)
                self._previous_hook = None
