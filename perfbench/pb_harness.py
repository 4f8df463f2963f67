"""One benchmark run: set up a workload, train in a closed loop, check, measure.

A run drives the public training API from one process.  One trainer runs
global iterations back to back (each starts when the previous completes):
the timed phase calls ``train()`` on chunks of ``config.iterations``
iterations until the requested seconds have passed.  A global iteration
completes when the trainer records its losses; the harness timestamps that
call and nothing else inside the program.

End-to-end metrics come from an untraced run.  With ``trace=True`` the timed
phase runs half untraced and half under a :class:`~pb_trace.Tracer`; the
per-layer metrics come from the traced half and the two halves' throughput
gives the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from pb_trace import Tracer, instrument, span_summary
from pb_workloads import Workload, expected_sim_bytes
from repro.core import StandaloneGANTrainer
from repro.datasets import merge_shards

__all__ = ["E2E_METRICS", "LAYER_METRICS", "RunResult", "run_workload"]

#: End-to-end metrics (untraced run): name -> unit.
E2E_METRICS: Dict[str, str] = {
    "iters_per_s": "1/s",
    "iter_ms_p50": "ms",
    "iter_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wire_bytes_per_iter": "B",
    "cpu_s_per_iter": "s",
    "ok_iter_share": "ratio",
}

_NN_KINDS = ("conv2d", "conv2d_t", "dense", "batchnorm", "act", "other")

#: Per-layer metrics (traced run), per global iteration unless noted.
LAYER_METRICS: Dict[str, str] = {
    "nn.forward_ms": "ms/iter",
    "nn.backward_ms": "ms/iter",
    "nn.optim_ms": "ms/iter",
    **{
        f"nn.{kind}.{pass_}_ms": "ms/iter"
        for kind in _NN_KINDS
        for pass_ in ("fwd", "bwd")
    },
    "nn.layer_calls": "1/iter",
    "datasets.next_batch_ms": "ms/iter",
    "datasets.batches": "1/iter",
    "core.generate_ms": "ms/iter",
    "core.disc_update_ms": "ms/iter",
    "core.feedback_ms": "ms/iter",
    "core.feedback_apply_ms": "ms/iter",
    "core.fedavg_ms": "ms/iter",
    "core.self_ms": "ms/iter",
    "runtime.dispatch_ms": "ms/iter",
    "runtime.wait_ms": "ms/iter",
    "runtime.params_ms": "ms/iter",
    "runtime.ops": "1/iter",
    "runtime.installs": "1/iter",
    "runtime.inflight_mean": "count",
    "transport.send_ms": "ms/iter",
    "transport.recv_ms": "ms/iter",
    "transport.frames": "1/iter",
    "transport.bytes_out": "B/iter",
    "transport.bytes_in": "B/iter",
    "transport.shm_bytes": "B",
    "simulation.messages": "1/iter",
    "simulation.send_ms": "ms/iter",
    "simulation.bytes": "B/iter",
    "trace.untraced_iters_per_s": "1/s",
    "trace.iters_per_s": "1/s",
    "trace.overhead_pct": "%",
    "trace.spans": "1/iter",
    "baseline.standalone_iter_ms": "ms",
}

#: Span names whose metric is the inclusive time; all others report self time.
_INCLUSIVE = {"nn.forward", "nn.backward", "nn.optim"}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 11
#: Images drawn by the per-chunk ``sample_images`` check.
SAMPLE_CHECK = 16
#: Seconds between steal marks: the length of a fit window.
MARK_S = 0.25


@dataclass
class RunResult:
    """What one run reports: the contract's four keys plus diagnostics."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    info: Dict[str, object] = field(default_factory=dict)

    def as_line(self) -> Dict[str, object]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


class CompletionLog:
    """Timestamps each global-iteration completion (``history.record_losses``).

    Every :data:`MARK_S` seconds a completion also records a mark
    ``(completions so far, time, steal ticks, all ticks, CPU seconds)``;
    consecutive marks bound the windows that :func:`_steal_fit` fits.
    """

    def __init__(self, history) -> None:
        self.times: List[float] = []
        self.marks: List[Tuple[int, float, int, int, float]] = []
        #: CPU seconds of the server and its slots (set once the pool exists).
        self.cpu_s: Callable[[], float] = time.process_time
        self._last_mark = 0.0
        record = history.record_losses

        def timed(*args, **kwargs):
            record(*args, **kwargs)
            now = time.perf_counter()
            self.times.append(now)
            if now - self._last_mark >= MARK_S:
                self._mark(now)

        history.record_losses = timed

    def _mark(self, now: float) -> None:
        self._last_mark = now
        self.marks.append((len(self.times), now, *_host_ticks(), self.cpu_s()))

    def mark(self) -> None:
        """Record a mark now, outside a completion (the start of a phase)."""
        self._mark(time.perf_counter())


# -- process accounting ---------------------------------------------------------
_TICK = os.sysconf("SC_CLK_TCK")


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` (all its threads)."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def _peak_rss_mb(pid: str) -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _cpu_s(slot_pids: Sequence[int]) -> float:
    return time.process_time() + sum(_proc_cpu_s(pid) for pid in slot_pids)


def _host_ticks() -> Tuple[int, int]:
    """(steal ticks, all ticks) of the host's CPUs: time a hypervisor took away."""
    with open("/proc/stat") as stat:
        ticks = [int(value) for value in stat.readline().split()[1:]]
    return ticks[7], sum(ticks)


# -- one phase of chunks ------------------------------------------------------------
@dataclass
class Phase:
    """Counters of one timed phase (deltas over it)."""

    times: List[float]
    start: float
    end: float
    attempted: int = 0
    failed: int = 0
    cpu_s: float = 0.0
    ipc_out: int = 0
    ipc_in: int = 0
    sim_bytes: int = 0
    installs: int = 0
    #: Share of the host's CPU time stolen by the hypervisor during the phase.
    steal_share: float = 0.0
    #: The log's marks inside the phase, counts relative to its first completion.
    marks: List[Tuple[int, float, int, int, float]] = field(default_factory=list)

    @property
    def iters(self) -> int:
        return len(self.times)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _losses(history) -> List[Tuple[float, float]]:
    return list(zip(history.generator_loss, history.discriminator_loss))


def _wire(trainer) -> Tuple[int, int, int]:
    """(ipc bytes out, ipc bytes in, installs) of a pooled backend, else zeros."""
    backend = trainer.executor
    return (
        int(getattr(backend, "ipc_bytes_sent", 0)),
        int(getattr(backend, "ipc_bytes_received", 0)),
        int(getattr(backend, "install_count", 0)),
    )


class Checker:
    """Output checks applied to every chunk of the timed phase."""

    def __init__(self, workload: Workload, trainer, factory, shards) -> None:
        self.workload = workload
        self.trainer = trainer
        self.expected = expected_sim_bytes(workload, factory, shards)
        self.image_shape = tuple(factory.image_shape)
        self.rng = np.random.default_rng(0)
        self.problems: List[str] = []

    def _rounds(self) -> int:
        return len(self.trainer.history.events_of_kind("federated_round"))

    def snapshot(self) -> Tuple[int, int, Dict]:
        meter = self.trainer.cluster.meter
        return (
            len(self.trainer.history.generator_loss),
            self._rounds(),
            {kind: meter.total_bytes(kind) for kind in self.expected},
        )

    def failures(self, before, chunk: int) -> int:
        """Failed iterations of the chunk that ran since ``before``."""
        losses_before, rounds_before, bytes_before = before
        _, rounds_now, bytes_now = self.snapshot()
        new = _losses(self.trainer.history)[losses_before:]
        failed = chunk - len(new) + sum(
            1 for gen, disc in new if not (math.isfinite(gen) and math.isfinite(disc))
        )
        if self.workload.algorithm == "md-gan":
            units, unit_name = len(new), "iteration"
        else:
            units, unit_name = rounds_now - rounds_before, "round"
            expected_rounds = chunk // self.trainer.iterations_per_round
            if units != expected_rounds:
                self.problems.append(f"{units} FedAvg rounds in a chunk, expected {expected_rounds}")
                return chunk
        for kind, per_unit in self.expected.items():
            measured = bytes_now[kind] - bytes_before[kind]
            if measured != per_unit * units:
                self.problems.append(
                    f"{kind.value}: {measured} B over {units} {unit_name}s, "
                    f"Table III gives {per_unit} B per {unit_name}"
                )
                return chunk
        images = self.trainer.sample_images(SAMPLE_CHECK, self.rng)
        if images.shape != (SAMPLE_CHECK,) + self.image_shape or not np.all(
            np.isfinite(images)
        ):
            self.problems.append(f"sample_images returned {images.shape} / non-finite values")
            return chunk
        return failed


def _timed_phase(
    trainer,
    log: CompletionLog,
    checker: Checker,
    seconds: float,
    tracer: Optional[Tracer] = None,
) -> Phase:
    """Run chunks until ``seconds`` of training have passed; count, check, meter.

    The checks between chunks are excluded from the phase's duration and,
    under a tracer, from its spans.
    """
    chunk = trainer.config.iterations
    meter = trainer.cluster.meter
    quiet = tracer.paused if tracer is not None else contextlib.nullcontext
    first = len(log.times)
    out0, in0, installs0 = _wire(trainer)
    sim0 = meter.total_bytes()
    cpu0 = log.cpu_s()
    steal0, ticks0 = _host_ticks()
    log.mark()
    first_mark = len(log.marks) - 1
    phase = Phase(times=[], start=log.marks[-1][1], end=0.0)
    checking_s = 0.0
    while True:
        started = time.perf_counter()
        with quiet():
            before = checker.snapshot()
        checking_s += time.perf_counter() - started
        phase.attempted += chunk
        try:
            trainer.train()
        except Exception as exc:  # a raising run fails the rest of its chunk
            checker.problems.append(f"train() raised {type(exc).__name__}: {exc}")
            phase.failed += chunk - (len(trainer.history.generator_loss) - before[0])
            break
        started = time.perf_counter()
        with quiet():
            phase.failed += checker.failures(before, chunk)
        checking_s += time.perf_counter() - started
        if time.perf_counter() - phase.start - checking_s >= seconds:
            break
    phase.end = time.perf_counter() - checking_s
    phase.cpu_s = log.cpu_s() - cpu0
    steal1, ticks1 = _host_ticks()
    phase.steal_share = (steal1 - steal0) / max(ticks1 - ticks0, 1)
    phase.times = log.times[first:]
    phase.marks = [(count - first, *rest) for count, *rest in log.marks[first_mark:]]
    out1, in1, installs1 = _wire(trainer)
    phase.ipc_out, phase.ipc_in, phase.installs = out1 - out0, in1 - in0, installs1 - installs0
    phase.sim_bytes = meter.total_bytes() - sim0
    return phase


# -- set-up -----------------------------------------------------------------------
def _start(workload: Workload, seed: int, iterations: int):
    """Build data and trainer, train ``iterations``; return trainer, log, set-up s.

    Set-up time runs from the start of the data build to the completion of
    the first global iteration, so it includes pool spawn, handshake and
    installs.
    """
    # Garbage the earlier set-ups of this run left behind is not this set-up's cost.
    gc.collect()
    started = time.perf_counter()
    factory, shards = workload.make_task(seed)
    trainer = workload.trainer_cls(
        factory, shards, workload.config.with_overrides(iterations=iterations)
    )
    log = CompletionLog(trainer.history)
    try:
        trainer.train()
    except BaseException:
        trainer.close()
        raise
    return trainer, log, log.times[0] - started, factory, shards


def _digest(series: List[Tuple[float, float]]) -> str:
    return hashlib.sha256(np.asarray(series, dtype=np.float64).tobytes()).hexdigest()


# -- metrics -----------------------------------------------------------------------
@dataclass
class StealFit:
    """A phase's throughput, gaps and CPU per iteration."""

    rate: float
    gaps_ms: np.ndarray
    cpu_s_per_iter: float
    #: Change in iterations/s per unit of steal share (0 when not fitted).
    slope: float = 0.0


def _raw_figures(phase: Phase) -> StealFit:
    return StealFit(
        rate=phase.iters / phase.duration,
        gaps_ms=np.diff([phase.start] + phase.times) * 1e3,
        cpu_s_per_iter=phase.cpu_s / max(phase.iters, 1),
    )


def _weighted_line(x: np.ndarray, y: np.ndarray, weight: np.ndarray):
    """(intercept, slope) of the weighted least-squares line ``y ~ x``, or ``None``."""
    if len(x) < 3 or np.ptp(x) == 0:
        return None
    root = np.sqrt(weight)
    return np.linalg.lstsq(np.column_stack([root, x * root]), y * root, rcond=None)[0]


def _steal_fit(phase: Phase) -> StealFit:
    """Estimate the phase's throughput, gaps and CPU per iteration without steal.

    On a shared virtual machine the hypervisor takes CPU time away ("steal").
    Throughput falls with it, and faster than in proportion, because every
    hand-off between processes waits for a descheduled vCPU; CPU per
    iteration rises with the contention behind it.  Each window between two
    marks gives a throughput, a CPU per iteration and a steal share.  A
    weighted least-squares line through each gives its value at zero steal:
    the intercept.  Each gap is scaled by its window's fitted throughput over
    that intercept.  Without steal variation, or with a fit that predicts a
    non-positive value, the raw figures stand.
    """
    raw = _raw_figures(phase)
    marks = np.array(phase.marks, dtype=float)
    done, spans, stolen, ticks, cpu = np.diff(marks, axis=0).T
    steal = stolen / np.maximum(ticks, 1)
    rate_line = _weighted_line(steal, done / spans, spans)
    cpu_line = _weighted_line(steal, cpu / done, done)
    if rate_line is None or cpu_line is None:
        return raw
    (rate, slope), cpu_s_per_iter = rate_line, cpu_line[0]
    fitted = rate + slope * steal
    if rate <= 0 or cpu_s_per_iter <= 0 or np.any(fitted <= 0):
        return raw
    # Completion c (1-based) lies in window j when counts[j] < c <= counts[j+1].
    counts = marks[:, 0].astype(int)
    window = np.searchsorted(counts, np.arange(1, counts[-1] + 1), side="left") - 1
    return StealFit(
        rate=float(rate),
        gaps_ms=raw.gaps_ms[: counts[-1]] * fitted[window] / rate,
        cpu_s_per_iter=float(cpu_s_per_iter),
        slope=float(slope),
    )


def _e2e_metrics(
    workload: Workload, phase: Phase, fit: StealFit, setups: List[float], rss_mb: float
):
    iters = max(phase.iters, 1)
    wire = phase.ipc_out + phase.ipc_in if workload.pooled else phase.sim_bytes
    values = {
        "iters_per_s": fit.rate,
        "iter_ms_p50": float(np.percentile(fit.gaps_ms, 50)),
        "iter_ms_p90": float(np.percentile(fit.gaps_ms, 90)),
        "setup_s": float(np.median(setups)),
        "peak_rss_mb": rss_mb,
        "wire_bytes_per_iter": wire / iters,
        "cpu_s_per_iter": fit.cpu_s_per_iter,
        "ok_iter_share": (phase.attempted - phase.failed) / phase.attempted,
    }
    return {name: (float(values[name]), unit) for name, unit in E2E_METRICS.items()}


def _layer_metrics(
    tracer: Tracer, traced: Phase, untraced: Phase,
    shm_bytes: int, standalone_ms: float,
):
    summary = span_summary(tracer.spans)
    iters = max(traced.iters, 1)

    def ms(span: str) -> float:
        source = summary.inclusive_s if span in _INCLUSIVE else summary.self_s
        return source.get(span, 0.0) * 1e3 / iters

    def per_iter(*spans: str) -> float:
        return sum(summary.count.get(span, 0) for span in spans) / iters

    layer_spans = [name for name in summary.count if name.count(".") == 2 and name.startswith("nn.")]
    untraced_rate = _steal_fit(untraced).rate
    traced_rate = _steal_fit(traced).rate
    values = {
        "nn.forward_ms": ms("nn.forward"),
        "nn.backward_ms": ms("nn.backward"),
        "nn.optim_ms": ms("nn.optim"),
        **{
            f"nn.{kind}.{pass_}_ms": ms(f"nn.{kind}.{pass_}")
            for kind in _NN_KINDS
            for pass_ in ("fwd", "bwd")
        },
        "nn.layer_calls": per_iter(*layer_spans),
        "datasets.next_batch_ms": ms("datasets.next_batch"),
        "datasets.batches": per_iter("datasets.next_batch"),
        "core.generate_ms": ms("core.generate"),
        "core.disc_update_ms": ms("core.disc_update"),
        "core.feedback_ms": ms("core.feedback"),
        "core.feedback_apply_ms": ms("core.feedback_apply"),
        "core.fedavg_ms": ms("core.fedavg"),
        "core.self_ms": (traced.duration - summary.root_s) * 1e3 / iters,
        "runtime.dispatch_ms": ms("runtime.dispatch"),
        "runtime.wait_ms": ms("runtime.wait"),
        "runtime.params_ms": ms("runtime.params"),
        "runtime.ops": per_iter("runtime.dispatch", "runtime.params"),
        "runtime.installs": traced.installs / iters,
        "runtime.inflight_mean": (
            float(np.mean(summary.inflight_samples)) if summary.inflight_samples else 0.0
        ),
        "transport.send_ms": ms("transport.send"),
        "transport.recv_ms": ms("transport.recv"),
        "transport.frames": per_iter("transport.send", "transport.recv"),
        "transport.bytes_out": traced.ipc_out / iters,
        "transport.bytes_in": traced.ipc_in / iters,
        "transport.shm_bytes": float(shm_bytes),
        "simulation.messages": per_iter("simulation.send"),
        "simulation.send_ms": ms("simulation.send"),
        "simulation.bytes": traced.sim_bytes / iters,
        "trace.untraced_iters_per_s": untraced_rate,
        "trace.iters_per_s": traced_rate,
        "trace.overhead_pct": (1.0 - traced_rate / untraced_rate) * 100.0,
        "trace.spans": len(tracer.spans) / iters,
        "baseline.standalone_iter_ms": standalone_ms,
    }
    return {name: (float(values[name]), unit) for name, unit in LAYER_METRICS.items()}


def _standalone_iter_ms(workload: Workload, seed: int) -> float:
    """Median iteration time of a single-worker GAN on the workload's whole dataset."""
    factory, shards = workload.make_task(seed)
    config = workload.config.with_overrides(
        backend="serial", transport=None, max_workers=None, pipeline_depth=0,
        iterations=2 * workload.config.iterations,
    )
    with StandaloneGANTrainer(factory, merge_shards(shards), config) as trainer:
        log = CompletionLog(trainer.history)
        trainer.train()
    return float(np.median(np.diff(log.times))) * 1e3


# -- the run --------------------------------------------------------------------------
def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool = False,
    setup_reps: int = SETUP_REPS,
    trace_path: Optional[str] = None,
) -> RunResult:
    """Run ``workload`` on the data of ``seed`` for about ``seconds`` of timed work."""
    setups: List[float] = []
    parity_runs: List[List[Tuple[float, float]]] = []
    for _ in range(setup_reps - 1):
        trainer, _, setup, _, _ = _start(workload, seed, workload.parity_iters)
        trainer.close()
        setups.append(setup)
        parity_runs.append(_losses(trainer.history))

    trainer, log, setup, factory, shards = _start(workload, seed, workload.config.iterations)
    with trainer:
        setups.append(setup)
        warm = _losses(trainer.history)
        checker = Checker(workload, trainer, factory, shards)
        for series in parity_runs:
            if series != warm[: len(series)]:
                checker.problems.append("same-seed runs disagree on the loss series")
                break
        slot_pids = [child.pid for child in multiprocessing.active_children()]
        log.cpu_s = functools.partial(_cpu_s, slot_pids)
        if not trace:
            phase = _timed_phase(trainer, log, checker, seconds)
        else:
            untraced = _timed_phase(trainer, log, checker, seconds / 2)
            tracer = Tracer(iteration_of=lambda: len(log.times))
            instrument(tracer)
            with tracer:
                phase = _timed_phase(trainer, log, checker, seconds / 2, tracer)
        rss_mb = max(_peak_rss_mb(str(pid)) for pid in ["self", *slot_pids])
        shm_bytes = int(getattr(trainer.executor, "shm_bytes_sent", 0))

    if trace:
        metrics = _layer_metrics(
            tracer, phase, untraced, shm_bytes,
            _standalone_iter_ms(workload, seed),
        )
    else:
        fit, raw = _steal_fit(phase), _raw_figures(phase)
        metrics = _e2e_metrics(workload, phase, fit, setups, rss_mb)
    attempted = phase.attempted + (untraced.attempted if trace else 0)
    failed = phase.failed + (untraced.failed if trace else 0)
    info = {
        "workload": workload.name,
        "seed": seed,
        "loss_digest": _digest(warm),
        "digest_iterations": len(warm),
        "timed_iterations": phase.iters,
        "host_steal_share": round(phase.steal_share, 4),
        **({} if trace else {
            "raw_iters_per_s": raw.rate,
            "raw_iter_ms_p50": float(np.percentile(raw.gaps_ms, 50)),
            "raw_iter_ms_p90": float(np.percentile(raw.gaps_ms, 90)),
            "raw_cpu_s_per_iter": raw.cpu_s_per_iter,
            "steal_slope": fit.slope,
        }),
        "setup_samples_s": [round(value, 4) for value in setups],
        "problems": checker.problems,
    }
    if trace and trace_path is not None:
        tracer.write(trace_path, {"workload": workload.name, "seed": seed})
        info["trace_file"] = trace_path
    return RunResult(
        correct=not checker.problems and failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        info=info,
    )
