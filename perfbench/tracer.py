"""Per-layer spans, recorded from outside the package by wrapping module attributes.

The package calls its layers through module globals (``harness.sample_channel``,
``protocol.init_from_samples``, ...), so assigning a timing wrapper to such an
attribute times every call the package makes through it. Spans are folded
into per-name totals in memory; nothing is written while the run is traced.
A span's self time is its duration minus the durations of the spans it
directly encloses.
"""

from __future__ import annotations

import importlib
import time

from workloads import SAMPLES_PER_TRACKER_RUN, SER_SYMBOLS_PER_CALL

# Each hook is "module:attribute"; the span takes the same name.
HOOKS = (
    "mmwtrack:load_config",
    "mmwtrack:run_experiment",
    "mmwtrack:emit_csv",
    "mmwtrack.harness:sample_channel",
    "mmwtrack.channel:dominant_svd",
    "mmwtrack.harness:run_protocol",
    "mmwtrack.protocol:run_phase_a",
    "mmwtrack.protocol:run_phase_b",
    "mmwtrack.protocol:init_from_samples",
    "mmwtrack.protocol:tracker_run",
    "mmwtrack.harness:dpsk_ser_trial",
    "mmwtrack.harness:spectral_efficiency",
    "mmwtrack.harness:normalized_correlation",
)

# Layer metric -> the spans whose self time per trial it sums.
SELF_TIME_LAYERS = {
    "channel.sample_s": ("mmwtrack.harness:sample_channel",),
    "channel.svd_s": ("mmwtrack.channel:dominant_svd",),
    "protocol.probe_s": ("mmwtrack.protocol:run_phase_a", "mmwtrack.protocol:run_phase_b"),
    "protocol.run_s": ("mmwtrack.harness:run_protocol",),
    "tracking.warmstart_s": ("mmwtrack.protocol:init_from_samples",),
    "tracking.steps_s": ("mmwtrack.protocol:tracker_run",),
    "evaluation.ser_s": ("mmwtrack.harness:dpsk_ser_trial",),
    "evaluation.se_s": ("mmwtrack.harness:spectral_efficiency",),
    "evaluation.align_s": ("mmwtrack.harness:normalized_correlation",),
    "harness.self_s": ("mmwtrack:run_experiment",),
    "harness.emit_s": ("mmwtrack:emit_csv",),
}
SER_SPAN = "mmwtrack.harness:dpsk_ser_trial"
STEPS_SPAN = "mmwtrack.protocol:tracker_run"
CONFIG_SPAN = "mmwtrack:load_config"
# Spans outside the timed batch, or whose self time is the unexplained residual.
NOT_COVERAGE = ("mmwtrack:load_config", "mmwtrack:run_experiment")
# Hooked spans that directly enclose other hooked spans. When an inner hook is
# missing, its time lands in the enclosing spans' self time, so those no
# longer measure one layer either.
_PHASES = ("mmwtrack.protocol:run_phase_a", "mmwtrack.protocol:run_phase_b")
ENCLOSING = {
    "mmwtrack.channel:dominant_svd": ("mmwtrack.harness:sample_channel",),
    "mmwtrack.protocol:run_phase_a": ("mmwtrack.harness:run_protocol",),
    "mmwtrack.protocol:run_phase_b": ("mmwtrack.harness:run_protocol",),
    "mmwtrack.protocol:init_from_samples": _PHASES,
    "mmwtrack.protocol:tracker_run": _PHASES,
}


def tainted(missing) -> set:
    """Missing hooks and the spans whose self time now includes their work."""
    return set(missing).union(*(ENCLOSING.get(hook, ()) for hook in missing))


class Tracer:
    """Per-span call counts, total and self times of nested, single-threaded calls."""

    def __init__(self):
        self.stats = {}    # span -> [calls, total_s, self_s]
        self._open = []    # child time of each open span, innermost last

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - children

        traced.__wrapped__ = fn
        return traced

    def calls(self, name) -> int:
        return self.stats.get(name, (0,))[0]

    def self_s(self, name) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]


def install(tracer: Tracer, hooks=HOOKS):
    """Wrap every hook that exists; return (restore, missing hook names)."""
    restore, missing = [], []
    for hook in hooks:
        module_name, attr = hook.split(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(hook)
            continue
        fn = getattr(module, attr, None)
        if not callable(fn):
            missing.append(hook)
            continue
        setattr(module, attr, tracer.wrap(hook, fn))
        restore.append((module, attr, fn))
    return restore, missing


def uninstall(restore) -> None:
    for module, attr, fn in reversed(restore):
        setattr(module, attr, fn)


def layer_metrics(tracer: Tracer, missing, trials: int, ser_expected: bool) -> dict:
    """Per-trial layer metrics from the spans of ``trials`` traced trials.

    A metric is None (absent) when one of its spans is tainted by a missing
    hook, or when its spans never ran although the workload should call them;
    a layer the workload never calls, such as DPSK SER at m > 1, reads 0.
    """

    unreliable = tainted(missing)

    def absent(spans, expected=True):
        return any(s in unreliable for s in spans) or (
            expected and all(tracer.calls(s) == 0 for s in spans)
        )

    out = {}
    for metric, spans in SELF_TIME_LAYERS.items():
        expected = ser_expected or SER_SPAN not in spans
        out[metric] = (
            None if absent(spans, expected) else sum(tracer.self_s(s) for s in spans) / trials
        )
    samples = tracer.calls(STEPS_SPAN) * SAMPLES_PER_TRACKER_RUN
    steps_absent = absent((STEPS_SPAN,))
    out["tracking.samples"] = None if steps_absent else samples / trials
    out["tracking.step_us"] = (
        None if steps_absent else tracer.self_s(STEPS_SPAN) / samples * 1e6
    )
    out["evaluation.ser_symbols"] = (
        None
        if absent((SER_SPAN,), ser_expected)
        else tracer.calls(SER_SPAN) * SER_SYMBOLS_PER_CALL / trials
    )
    out["harness.config_s"] = (
        None
        if absent((CONFIG_SPAN,))
        else tracer.stats[CONFIG_SPAN][1] / tracer.calls(CONFIG_SPAN)
    )
    return out


def covered_s(tracer: Tracer, missing) -> float:
    """Self time inside the batch that some layer span accounts for."""
    excluded = tainted(missing).union(NOT_COVERAGE)
    return sum(st[2] for name, st in tracer.stats.items() if name not in excluded)
