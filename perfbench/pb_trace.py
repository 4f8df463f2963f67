"""Spans around calls into the program's layers, recorded from outside it.

The traced run patches public functions and methods of each ``repro`` layer
with wrappers that record a span ``(name, start, end, parent, iteration)``
per call, keeps the spans in memory and writes them out when the run ends.
Nothing inside ``src/`` changes.  Only calls on the thread that installed
the tracer are recorded; the spans of one global iteration share its id.

A span's *self* time is its duration minus the durations of its direct
children.  :func:`span_summary` aggregates both per span name.
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing.connection
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List

__all__ = ["Tracer", "instrument", "span_summary", "SpanSummary"]

_MISSING = object()


class Tracer:
    """Records spans for every patched call; undoes its patches on exit."""

    def __init__(self, iteration_of: Callable[[], int]) -> None:
        #: ``[name, start, end, parent index or -1, iteration id]`` per call,
        #: in call (start) order.
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Thread whose calls are recorded; ``None`` while paused.
        self._active = [threading.get_ident()]
        self._iteration_of = iteration_of
        self._patches: List[tuple] = []

    # -- recording -------------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so each call on the tracer's thread is a span."""
        spans, stack, active = self.spans, self._stack, self._active
        iteration_of = self._iteration_of
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != active[0]:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, iteration_of()]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        thread, self._active[0] = self._active[0], None
        try:
            yield
        finally:
            self._active[0] = thread

    # -- patching --------------------------------------------------------------
    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a traced wrapper."""
        own = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def patch_tree(self, cls: type, attr: str, name: str) -> None:
        """Patch ``attr`` on ``cls`` and on every subclass that overrides it."""
        pending, seen = [cls], set()
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            if attr in vars(klass):
                self.patch(klass, attr, name)
            pending.extend(klass.__subclasses__())

    def patch_function(self, fn: Callable, name: str) -> None:
        """Patch ``fn`` in every loaded ``repro`` module that binds it by name."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, name)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- output ----------------------------------------------------------------
    def write(self, path: str, header: Dict[str, object]) -> None:
        """Write a header line, then one JSON array per span (times in seconds)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            out.write(json.dumps({**header, "span_fields": [
                "name", "start", "end", "parent", "iteration"]}) + "\n")
            for name, start, end, parent, iteration in self.spans:
                out.write(json.dumps(
                    [name, round(start - origin, 7), round(end - origin, 7), parent, iteration]
                ) + "\n")


# Layer classes whose forward/backward self times are reported by kind;
# every other layer class is traced as ``other``.
_LAYER_KINDS = {
    "Conv2D": "conv2d",
    "Conv2DTranspose": "conv2d_t",
    "Dense": "dense",
    "BatchNorm": "batchnorm",
    "ReLU": "act",
    "LeakyReLU": "act",
    "Tanh": "act",
    "Sigmoid": "act",
}


def _subclasses(cls: type) -> List[type]:
    found, pending = [], list(cls.__subclasses__())
    while pending:
        klass = pending.pop()
        if klass not in found:
            found.append(klass)
            pending.extend(klass.__subclasses__())
    return found


def instrument(tracer: Tracer) -> None:
    """Patch the public entry points of every ``repro`` layer the workloads use."""
    from repro.core import gan_ops
    from repro.datasets.sampler import EpochSampler
    from repro.nn import serialize
    from repro.nn.layers import Layer
    from repro.nn.model import Sequential
    from repro.nn.optim import Optimizer
    from repro.runtime.backend import ExecutorBackend, PendingResult
    from repro.runtime.resident import PendingSteps, ResidentBackend
    from repro.runtime.transport.base import SlotChannel
    from repro.simulation.node import Node

    # nn: model-level passes, optimizer, and every layer class.
    tracer.patch(Sequential, "forward", "nn.forward")
    tracer.patch(Sequential, "backward", "nn.backward")
    tracer.patch_tree(Optimizer, "step", "nn.optim")
    for klass in _subclasses(Layer):
        kind = _LAYER_KINDS.get(klass.__name__, "other")
        for attr, suffix in (("forward", "fwd"), ("backward", "bwd")):
            if attr in vars(klass):
                tracer.patch(klass, attr, f"nn.{kind}.{suffix}")
    # datasets
    tracer.patch(EpochSampler, "next_batch", "datasets.next_batch")
    # core: the GAN math entry points and FedAvg.
    tracer.patch_function(gan_ops.sample_generator_images, "core.generate")
    tracer.patch_function(gan_ops.discriminator_update, "core.disc_update")
    tracer.patch_function(gan_ops.generator_feedback, "core.feedback")
    tracer.patch_function(gan_ops.apply_feedback_to_generator, "core.feedback_apply")
    tracer.patch_function(serialize.weighted_average_parameters, "core.fedavg")
    # runtime: dispatch, wait for results, parameter boundary ops.
    tracer.patch_tree(ExecutorBackend, "submit_ordered", "runtime.dispatch")
    tracer.patch(ResidentBackend, "start_steps", "runtime.dispatch")
    tracer.patch_tree(PendingResult, "result", "runtime.wait")
    tracer.patch(PendingSteps, "result", "runtime.wait")
    tracer.patch(ResidentBackend, "pull_params", "runtime.params")
    tracer.patch(ResidentBackend, "push_params", "runtime.params")
    # End-of-train() state mirroring; traced so it is not charged to core.
    tracer.patch(ResidentBackend, "pull_mirror", "runtime.mirror")
    tracer.patch(ResidentBackend, "pull_state", "runtime.mirror")
    # transport: frame writes and reads on tcp channels and on pipes.
    tracer.patch_tree(SlotChannel, "send_bytes", "transport.send")
    tracer.patch_tree(SlotChannel, "recv_bytes", "transport.recv")
    tracer.patch(multiprocessing.connection.Connection, "send_bytes", "transport.send")
    tracer.patch(multiprocessing.connection.Connection, "recv_bytes", "transport.recv")
    # simulation: emulated-network message sends.
    tracer.patch(Node, "send", "simulation.send")


@dataclass
class SpanSummary:
    """Per-name totals over a list of spans."""

    count: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    inclusive_s: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    self_s: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: Summed duration of spans without a parent (called by trainer code).
    root_s: float = 0.0
    #: Step batches in flight, sampled at the end of each dispatch.
    inflight_samples: List[int] = field(default_factory=list)


def span_summary(spans: List[list]) -> SpanSummary:
    """Aggregate counts, inclusive and self times per span name."""
    summary = SpanSummary()
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
        else:
            summary.root_s += end - start
    for index, (name, start, end, _, _) in enumerate(spans):
        summary.count[name] += 1
        summary.inclusive_s[name] += end - start
        summary.self_s[name] += end - start - child_s[index]
    in_flight = 0
    for name, _, end, _, _ in sorted(spans, key=lambda span: span[2]):
        if name == "runtime.dispatch":
            in_flight += 1
            summary.inflight_samples.append(in_flight)
        elif name == "runtime.wait":
            in_flight = max(0, in_flight - 1)
    return summary
