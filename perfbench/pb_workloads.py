"""The benchmark's workloads: one training task and one configuration each.

A workload fixes everything about a run except its data: the architecture,
the worker count, the :class:`~repro.core.TrainingConfig` and the chunk of
global iterations one ``train()`` call runs.  The ``--seed`` given to the
benchmark only feeds the synthetic dataset and its i.i.d. partition, so two
seeds train the same configuration on different data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.analysis import CommunicationInputs, table3_communication
from repro.core import FLGANTrainer, MDGANTrainer, TrainingConfig
from repro.datasets import ImageDataset, make_gaussian_ring, make_mnist_like, partition_iid
from repro.models.base import GANFactory
from repro.models.mnist import build_mnist_cnn_gan
from repro.models.toy import build_toy_gan
from repro.nn.serialize import FLOAT_BYTES
from repro.simulation import MessageKind

__all__ = ["Workload", "WORKLOADS", "expected_sim_bytes"]

Task = Tuple[GANFactory, List[ImageDataset]]


def mnist_cnn_task(seed: int, num_workers: int, n_train: int) -> Task:
    """``mnist-cnn`` at width 0.5 on 16x16 MNIST-like digits, split i.i.d."""
    train, _ = make_mnist_like(n_train=n_train, n_test=16, image_size=16, seed=seed)
    factory = build_mnist_cnn_gan(
        image_shape=train.spec.shape, num_classes=train.num_classes, width_factor=0.5
    )
    return factory, partition_iid(train, num_workers, np.random.default_rng(seed))


def toy_ring_task(seed: int, num_workers: int, n_train: int) -> Task:
    """The dense toy GAN on 8x8 Gaussian-ring images, split i.i.d."""
    train, _ = make_gaussian_ring(n_train=n_train, n_test=16, image_size=8, seed=seed)
    factory = build_toy_gan(image_shape=train.spec.shape, num_classes=train.num_classes)
    return factory, partition_iid(train, num_workers, np.random.default_rng(seed))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``config.iterations`` is the chunk length: the timed phase calls
    ``train()`` repeatedly with it.  Chunks are multiples of the swap /
    FedAvg period, so every chunk runs whole periods.  ``parity_iters`` is
    the length of the short same-seed runs whose losses must equal the
    first iterations of the measured trainer bit for bit.
    """

    name: str
    why: str
    trainer_cls: type
    make_task: Callable[[int], Task]
    config: TrainingConfig
    parity_iters: int

    @property
    def algorithm(self) -> str:
        return "fl-gan" if self.trainer_cls is FLGANTrainer else "md-gan"

    @property
    def pooled(self) -> bool:
        """Whether worker state lives in pool slots (a real wire exists)."""
        return self.config.backend == "resident"


WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            name="mdgan-cnn-serial",
            why=(
                "compute-bound in repro.nn (conv forward/backward dominate) and "
                "bypasses runtime/transport: conv work moves it, wire work does not"
            ),
            trainer_cls=MDGANTrainer,
            make_task=partial(mnist_cnn_task, num_workers=4, n_train=512),
            config=TrainingConfig(
                iterations=8, batch_size=16, num_batches=4, epochs_per_swap=1.0,
                backend="serial",
            ),
            parity_iters=2,
        ),
        Workload(
            name="mdgan-toy-tcp",
            why=(
                "millisecond compute, so time goes to runtime dispatch/collect, "
                "pickle framing over loopback tcp and core/simulation bookkeeping"
            ),
            trainer_cls=MDGANTrainer,
            make_task=partial(toy_ring_task, num_workers=8, n_train=2048),
            config=TrainingConfig(
                iterations=256, batch_size=16, num_batches=2, epochs_per_swap=1.0,
                backend="resident", transport="tcp", max_workers=2,
            ),
            parity_iters=16,
        ),
        Workload(
            name="flgan-toy-pipe",
            why=(
                "whole-model pull/push and FedAvg every 4 iterations over pipes, "
                "driven by the depth-2 in-flight window instead of lockstep"
            ),
            trainer_cls=FLGANTrainer,
            make_task=partial(toy_ring_task, num_workers=8, n_train=2048),
            config=TrainingConfig(
                iterations=256, batch_size=16, epochs_per_swap=0.25,
                backend="resident", transport="pipe", max_workers=2,
                pipeline_depth=2,
            ),
            parity_iters=8,
        ),
    )
}


def expected_sim_bytes(
    workload: Workload, factory: GANFactory, shards: List[ImageDataset]
) -> Dict[MessageKind, int]:
    """Table III bytes the emulated network must meter per unit of work.

    MD-GAN: bytes per global iteration of the generated batches and of the
    error feedback.  FL-GAN: bytes per federated round of the model uploads
    and of the broadcast.  The closed form is
    :func:`repro.analysis.table3_communication`, as in ``traffic-check``.
    """
    counts = factory.parameter_counts()
    cfg = workload.config
    table = table3_communication(
        CommunicationInputs(
            generator_params=counts["generator"],
            discriminator_params=counts["discriminator"],
            object_size=factory.object_size,
            batch_size=cfg.batch_size,
            num_workers=len(shards),
            iterations=cfg.iterations,
            local_dataset_size=len(shards[0]),
            epochs_per_round=cfg.epochs_per_swap,
        )
    )
    c_to_w = table["server_to_worker_at_server"][workload.algorithm]
    w_to_c = table["worker_to_server_at_server"][workload.algorithm]
    if workload.algorithm == "md-gan":
        kinds = (MessageKind.GENERATED_BATCHES, MessageKind.ERROR_FEEDBACK)
    else:
        kinds = (MessageKind.MODEL_BROADCAST, MessageKind.MODEL_UPDATE)
    return {
        kinds[0]: int(round(c_to_w * FLOAT_BYTES)),
        kinds[1]: int(round(w_to_c * FLOAT_BYTES)),
    }
