"""Training loop, optimizers, schedule, and memory accounting."""

from .ledger import (
    CATEGORIES,
    DEVICE_CATEGORIES,
    HOST_CATEGORIES,
    ActivationMeter,
    MemoryBudget,
    MemoryLedger,
)
from .loop import (
    METRICS_HEADER,
    MetricsRecord,
    TrainConfig,
    TrainResult,
    checkpoint_hash,
    effective_batch,
    load_checkpoint,
    lr_at,
    pack_windows,
    read_trainer_state,
    register_static_memory,
    save_checkpoint,
    train,
)
from .optim import AdamW, Sgd, clip_gradients, global_grad_norm, loads_optimizer, make_optimizer

__all__ = [
    "ActivationMeter",
    "AdamW",
    "CATEGORIES",
    "DEVICE_CATEGORIES",
    "HOST_CATEGORIES",
    "METRICS_HEADER",
    "MemoryBudget",
    "MemoryLedger",
    "MetricsRecord",
    "Sgd",
    "TrainConfig",
    "TrainResult",
    "checkpoint_hash",
    "clip_gradients",
    "effective_batch",
    "global_grad_norm",
    "load_checkpoint",
    "loads_optimizer",
    "lr_at",
    "make_optimizer",
    "pack_windows",
    "read_trainer_state",
    "register_static_memory",
    "save_checkpoint",
    "train",
]
