"""Per-layer time and call counts for a traced benchmark run.

The package is instrumented from outside: each listed public function is
replaced by a timing wrapper in *every* ``nyquist_otdm`` module namespace
that holds it, so callers that imported it by name (``scenario.demultiplex``,
``scenario.calibrate_flat_comb``) are counted too.  The FFT entry points of
``numpy.fft`` and ``scipy.fft`` are wrapped the same way, counting calls and
output points whichever module calls them.

Times are inclusive and a layer's time is added only at its outermost call,
so a layer that calls itself is not counted twice.  ``scenario.run_self_s``
is ``run_scenario`` minus the traced calls made directly inside it.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# metric -> (module, public functions timed into it)
TIMED = {
    "scenario.parse_s": ("scenario", ("parse_scenario",)),
    "scenario.run_s": ("scenario", ("run_scenario",)),
    "scenario.write_s": ("scenario", ("write_bundle",)),
    "mzm.calibrate_s": ("mzm", ("calibrate_flat_comb",)),
    "nyquist.shape_s": ("nyquist", ("nyquist_interpolate", "raised_cosine_shape")),
    "nyquist.multiplex_s": ("nyquist", ("multiplex_branch_signals", "otdm_multiplex")),
    "link.propagate_s": ("link", ("propagate",)),
    "link.noise_s": ("link", ("add_noise", "phase_noise")),
    "link.cd_comp_s": ("link", ("compensate_dispersion",)),
    "demux.demultiplex_s": ("demux", ("demultiplex",)),
    "modem.metrics_s": ("modem", ("qam_map", "qam_demap", "evm", "q_factor", "ber_count")),
    "core.spectrum_s": ("core", ("spectrum",)),
}

FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                 "rfft", "irfft", "rfftn", "irfftn", "hfft", "ihfft")

# every per-layer metric, in the order BENCHMARK.json lists them
METRICS = (
    "scenario.parse_s", "scenario.run_s", "scenario.run_self_s",
    "scenario.write_s", "scenario.write_bytes", "scenario.write_files",
    "mzm.calibrate_s", "mzm.calibrate_calls", "mzm.modulate_calls",
    "mzm.modulate_samples",
    "nyquist.shape_s", "nyquist.multiplex_s",
    "link.propagate_s", "link.noise_s", "link.cd_comp_s",
    "demux.demultiplex_s", "demux.demultiplex_calls",
    "modem.metrics_s", "core.spectrum_s",
    "fft.calls", "fft.points",
)

# The self-test of a traced run: these must be non-zero on the workload ...
MZM_METRICS = ("mzm.calibrate_s", "mzm.calibrate_calls", "mzm.modulate_calls",
               "mzm.modulate_samples")
EXERCISED = {
    "paper-bundles": METRICS,
    "calibration-sweep": METRICS,
    "ideal-chain": tuple(m for m in METRICS
                         if m not in MZM_METRICS and m != "core.spectrum_s"),
}
# ... and these must stay zero on it.
IDLE = {"ideal-chain": MZM_METRICS}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "B" if metric.endswith("_bytes") else "count"


def coverage_problems(workload: str, values: dict) -> list:
    """Counters that read zero where the workload runs their layer, or
    non-zero where it must not; a zero there usually means a caller holds an
    unwrapped reference."""
    problems = [f"{m} is 0 on {workload}" for m in EXERCISED[workload] if not values[m]]
    problems += [f"{m} is {values[m]} on {workload}, expected 0"
                 for m in IDLE.get(workload, ()) if values[m]]
    return problems


class Tracer:
    """Accumulates per-layer totals while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.totals = dict.fromkeys(METRICS, 0)
        self._depth = {}
        self._children = []  # traced time spent inside each open call

    def reset(self) -> None:
        self.totals = dict.fromkeys(self.totals, 0)

    def snapshot(self) -> dict:
        return dict(self.totals)

    def timed(self, metric: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            depth = self._depth.get(metric, 0)
            self._depth[metric] = depth + 1
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                self._depth[metric] = depth
                if depth == 0:
                    self.totals[metric] += elapsed
                    if metric == "scenario.run_s":
                        self.totals["scenario.run_self_s"] += elapsed - inner
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def counted(self, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                after(args, result)
            return result
        return wrapper

    def counted_fft(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                self.totals["fft.calls"] += 1
                self.totals["fft.points"] += int(np.size(result))
            return result
        return wrapper

    # counters attached to timed calls

    def _count_calibrate(self, args, result):
        self.totals["mzm.calibrate_calls"] += 1

    def _count_modulate(self, args, result):
        self.totals["mzm.modulate_calls"] += 1
        self.totals["mzm.modulate_samples"] += args[0].grid.n_samples

    def _count_demultiplex(self, args, result):
        self.totals["demux.demultiplex_calls"] += 1

    def _count_write(self, args, result):
        self.totals["scenario.write_files"] += len(result)
        self.totals["scenario.write_bytes"] += sum(p.stat().st_size for p in result)


def _package_modules() -> list:
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "nyquist_otdm" or name.startswith("nyquist_otdm."))]


def _replace_everywhere(modules, original, wrapper) -> int:
    replaced = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                replaced += 1
    return replaced


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions and the FFT entry points."""
    import numpy.fft
    import scipy.fft

    modules = _package_modules()
    after = {"calibrate_flat_comb": tracer._count_calibrate,
             "demultiplex": tracer._count_demultiplex,
             "write_bundle": tracer._count_write}
    wrappers = [(module, name, functools.partial(tracer.timed, metric, after=after.get(name)))
                for metric, (module, names) in TIMED.items() for name in names]
    wrappers.append(("mzm", "modulate", functools.partial(tracer.counted,
                                                          after=tracer._count_modulate)))
    for module, name, wrap in wrappers:
        original = getattr(sys.modules[f"nyquist_otdm.{module}"], name)
        if not _replace_everywhere(modules, original, wrap(original)):
            raise RuntimeError(f"nyquist_otdm.{module}.{name} was not replaced")
    for fft_module in (numpy.fft, scipy.fft):
        for name in FFT_FUNCTIONS:
            original = getattr(fft_module, name)
            _replace_everywhere(modules + [fft_module], original, tracer.counted_fft(original))
