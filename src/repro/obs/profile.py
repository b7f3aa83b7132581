"""Host-time profiling: which layer of the simulator the CPU is in.

``run_simulation(..., profile=True)`` runs the replay inside
:func:`sampling`: a ``SIGPROF`` handler on a 1 ms process-CPU interval
timer charges each sample to the layer of the innermost frame of
``repro`` code on the interrupted stack (see ``docs/OBSERVABILITY.md``).
The handler only reads frames and adds to counters, so a profiled run's
simulated results equal the unprofiled run's byte for byte.  While
``ITIMER_PROF`` is armed, Linux advances the process CPU clock only at
its ticks, so the sampled region and the handler are timed on the
thread's CPU clock (the replay runs on the one thread).
"""

from __future__ import annotations

import math
import os
import signal
import threading
from contextlib import contextmanager
from time import thread_time
from types import CodeType
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.log import get_logger, log_event

logger = get_logger(__name__)

#: requested process CPU seconds between samples (the kernel rounds it
#: up to its tick: about 250 samples per CPU second at HZ 250)
INTERVAL_S = 0.001

#: FTL methods per layer, split as ``_FTL_METHODS`` in
#: ``perfbench/layers.py``; the methods taking ``is_gc`` sit in their
#: host path's layer.  ``ftl.dftl`` applies only where dftl defines the
#: method and comes last, so dftl's ``_translate_read`` override is
#: ``ftl.dftl`` while the base's pass-through stays ``ftl.read``.
FTL_LAYERS: Dict[str, Tuple[str, ...]] = {
    "ftl.submit": ("submit",),
    "ftl.write": (
        "_start_write", "_drain_pending_writes", "_maybe_flush",
        "_dispatch_group", "_bind_host_pages", "_host_allocate", "_open_wl",
        "_program_entries", "_on_program_complete", "_on_program_fail",
    ),
    "ftl.read": (
        "_start_read", "_read_lpn", "_mapped_read", "_controller_read",
        "_buffer_read", "_unmapped_read", "_translate_read", "_flash_read",
        "_deliver_read", "_account_read",
    ),
    "ftl.gc": (
        "_maybe_gc", "_gc_may_start", "_gc_reclaims", "_gc_steps",
        "_gc_continue", "_gc_migrate", "_gc_erase", "_erase_victim",
        "_bind_gc_pages", "_gc_allocate", "rearm_gc",
        # dftl's translation-block GC policy
        "_trans_gc_migrate", "_migrate_tpage", "_trans_gc_erase",
    ),
    "ftl.dftl": (
        "_translate_read", "_cmt_note_update", "_cmt_fill",
        "_cmt_evict_overflow", "_writeback", "_issue_writeback",
        "_trans_flash_read", "_tpage_payload", "_program_tpage",
        "_trans_allocate", "_drain_trans_pending",
    ),
}

#: modules charged to a layer other than their own dotted path
MODULE_LAYERS = {
    "nand.tables": "nand.reliability",
    "obs.exemplars": "obs.trace",
    "obs.registry": "obs.telemetry",
    "obs.device": "obs.telemetry",
    "obs.timeseries": "obs.telemetry",
}

#: keys of a profile dict (``result.profile``, ``profile.json``)
PROFILE_KEYS = (
    "total_s", "setup_s", "build_s", "prefill_s", "trace_s", "replay_s",
    "samples", "handler_s", "layers",
)
#: the parts of ``setup_s``, in the order a run takes them
SETUP_KEYS = ("build_s", "prefill_s", "trace_s")

_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _has_is_gc(code: CodeType) -> bool:
    return "is_gc" in code.co_varnames + code.co_cellvars + code.co_freevars


def _module_layer(filename: str) -> str:
    path = os.path.abspath(filename)
    if not path.startswith(_PACKAGE_DIR + os.sep) or not path.endswith(".py"):
        return ""
    parts = path[len(_PACKAGE_DIR) + 1 : -3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    if parts and parts[0] == "check":
        return "check"
    module = ".".join(parts) or "repro"
    return MODULE_LAYERS.get(module, module)


def _ftl_codes() -> Dict[CodeType, Tuple[str, bool]]:
    """:data:`FTL_LAYERS` by code object: a method's code and, through
    ``co_consts``, its nested functions -> (layer, has ``is_gc``)."""
    import repro.ftl as ftl

    table = {}
    classes = [c for c in vars(ftl).values() if isinstance(c, type)]
    for layer, names in FTL_LAYERS.items():
        owner = ftl.DFTL if layer == "ftl.dftl" else ftl.BaseFTL
        for cls in (c for c in classes if issubclass(c, owner)):
            codes = [cls.__dict__[n].__code__ for n in names if n in cls.__dict__]
            while codes:
                code = codes.pop()
                table[code] = (layer, _has_is_gc(code))
                codes += [c for c in code.co_consts if isinstance(c, CodeType)]
    return table


def unavailable_reason() -> Optional[str]:
    """Why :func:`sampling` cannot run here, or ``None`` when it can."""
    if not hasattr(signal, "SIGPROF") or not hasattr(signal, "setitimer"):
        return "no SIGPROF on this platform"
    if threading.current_thread() is not threading.main_thread():
        return "not on the main thread"
    if signal.getitimer(signal.ITIMER_PROF) != (0.0, 0.0):
        return "ITIMER_PROF is already armed"
    if signal.getsignal(signal.SIGPROF) is None:
        return "SIGPROF has a handler installed outside Python"
    return None


class HostProfile:
    """Samples per layer, counted by the ``SIGPROF`` handler."""

    def __init__(self) -> None:
        self.samples: Dict[str, int] = {}
        #: CPU seconds spent in :meth:`on_sample` itself
        self.handler_s = 0.0
        #: CPU seconds of the sampled region
        self.replay_s = 0.0
        #: code object -> (layer, has an ``is_gc`` local); layer "" is
        #: code outside the package
        self._codes = _ftl_codes()

    def layer_of(self, code: CodeType, is_gc: bool = False) -> str:
        """The layer a sample in ``code`` is charged to, for a frame
        whose ``is_gc`` local is ``is_gc``; "" outside the package."""
        layer = self._entry(code)[0]
        return "ftl.gc" if layer and is_gc else layer

    def _entry(self, code: CodeType) -> Tuple[str, bool]:
        entry = self._codes.get(code)
        if entry is None:
            entry = (_module_layer(code.co_filename), _has_is_gc(code))
            self._codes[code] = entry
        return entry

    def on_sample(self, signum, frame) -> None:
        start = thread_time()
        codes = self._codes
        layer = "other"  # no repro frame on the stack at all
        while frame is not None:
            code = frame.f_code
            entry = codes.get(code) or self._entry(code)
            if entry[0]:
                layer = entry[0]
                if entry[1] and frame.f_locals.get("is_gc"):
                    layer = "ftl.gc"
                break
            frame = frame.f_back
        self.samples[layer] = self.samples.get(layer, 0) + 1
        self.handler_s += thread_time() - start

    def to_dict(
        self, build_s: float, prefill_s: float, trace_s: float, total_s: float
    ) -> dict:
        """Samples and CPU seconds per layer (a layer's share of the
        samples times ``replay_s``), with the whole-run time and the
        set-up parts the caller measured: building the simulation, its
        prefill (or, on a resume, the checkpoint restore) and the trace
        generation, which sum to ``setup_s``."""
        total = sum(self.samples.values())
        return {
            "total_s": total_s,
            "setup_s": build_s + prefill_s + trace_s,
            "build_s": build_s,
            "prefill_s": prefill_s,
            "trace_s": trace_s,
            "replay_s": self.replay_s,
            "samples": total,
            "handler_s": self.handler_s,
            "layers": {
                name: {"samples": n, "seconds": self.replay_s * n / total}
                for name, n in sorted(self.samples.items())
            },
        }


@contextmanager
def sampling() -> Iterator[Optional[HostProfile]]:
    """Sample the body of the ``with`` block; yields the
    :class:`HostProfile`, or ``None`` (after logging why) where sampling
    cannot run: no ``SIGPROF``, not the main thread, or ``ITIMER_PROF``
    already armed.  On exit the timer is disarmed and the previous
    ``SIGPROF`` handler put back, also when the body raises."""
    reason = unavailable_reason()
    if reason is not None:
        log_event(logger, "warning", "profile_unavailable", reason=reason)
        yield None
        return
    profile = HostProfile()
    previous = signal.signal(signal.SIGPROF, profile.on_sample)
    start = thread_time()
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    try:
        yield profile
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        profile.replay_s = thread_time() - start
        signal.signal(signal.SIGPROF, previous)


def validate_profile(profile: dict) -> List[str]:
    """Problems with a profile dict (empty = valid): its keys, no
    negative number, set-up parts that sum to ``setup_s`` and layer
    seconds that sum to ``replay_s``."""
    missing = [key for key in PROFILE_KEYS if key not in profile]
    if missing:
        return [f"missing key {key!r}" for key in missing]
    numbers = [(key, profile[key]) for key in PROFILE_KEYS[:-1]]
    for name, layer in sorted(profile["layers"].items()):
        for key in ("samples", "seconds"):
            numbers.append((f"layers[{name!r}].{key}", layer.get(key)))
    problems = [
        f"{key} is {value!r}, not a non-negative number"
        for key, value in numbers
        if not isinstance(value, (int, float)) or value < 0
    ]
    if problems:
        return problems
    setup = sum(profile[key] for key in SETUP_KEYS)
    if not math.isclose(setup, profile["setup_s"], rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"set-up parts sum to {setup!r}, not setup_s")
    if not profile["samples"]:
        return problems
    seconds = sum(layer["seconds"] for layer in profile["layers"].values())
    if not math.isclose(seconds, profile["replay_s"], rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"layer seconds sum to {seconds!r}, not replay_s")
    return problems


def profile_report(profile: dict, min_share: float = 0.0) -> str:
    """The profile as a table: one row per layer above ``min_share`` of
    the samples (most first), then the set-up parts, set-up and the
    whole run, then the handler's own cost."""
    from repro.analysis.tables import format_table

    total, replay_s, layers = profile["samples"], profile["replay_s"], profile["layers"]
    rows = []
    for name in sorted(layers, key=lambda name: (-layers[name]["samples"], name)):
        n, seconds = layers[name]["samples"], layers[name]["seconds"]
        if n > min_share * total:
            rows.append([name, n, f"{seconds:.3f}", f"{100.0 * n / total:.1f} %"])
    for label in ("build", "prefill", "trace", "setup"):
        rows.append([label, "", f"{profile[label + '_s']:.3f}", ""])
    rows.append(["total", total, f"{profile['total_s']:.3f}", ""])
    share = 100.0 * profile["handler_s"] / replay_s if replay_s else 0.0
    return (
        format_table(["layer", "samples", "CPU s", "share"], rows)
        + f"\nreplay {replay_s:.3f} CPU s in {total} samples; sampler "
        f"handler {1e3 * profile['handler_s']:.2f} ms ({share:.2f} %)"
    )
