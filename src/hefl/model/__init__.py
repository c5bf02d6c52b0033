"""Model engine: reference networks, optimizer, datasets."""

from .data import (Dataset, class_templates, load_cifar10_batches,
                   make_toy_dataset, partition_iid)
from .nets import (Architecture, LayerSlot, ModelState, build_model, evaluate,
                   forward_backward, forward_logits)
from .optim import SgdState, sgd_step

__all__ = [
    "Dataset", "class_templates", "load_cifar10_batches", "make_toy_dataset",
    "partition_iid",
    "Architecture", "LayerSlot", "ModelState", "build_model", "evaluate",
    "forward_backward", "forward_logits",
    "SgdState", "sgd_step",
]
