"""Declarative simulation specs: what to run, fully serializable.

:func:`repro.api.run_simulation` grew ~20 flat kwargs over five PRs;
trace-driven workloads, NCQ host behavior, and multi-tenant scenarios
do not fit that shape.  This module is the redesigned front door: four
small frozen dataclasses compose into one :class:`SimulationSpec` that
every runner consumes --

- :class:`WorkloadSpec` -- *what stream*: a registry name or a
  ``trace:<path>`` reference, its request count, seed, and per-generator
  params (``zipf`` skew, block-trace units, ...).
- :class:`HostSpec` -- *how the host issues it*: queue depth, closed vs
  open loop, optional arrival-rate stamping, and the tenant list of a
  multi-tenant scenario.
- :class:`TenantSpec` -- one tenant stream of a multi-tenant scenario:
  its own workload, arrival rate, LPN partition, and seed.
- :class:`RunOptions` -- observability and persistence toggles (trace /
  telemetry / profile / check / checkpoint group).

Specs serialize to plain dicts (:meth:`SimulationSpec.to_dict`) and
back (:func:`simulation_spec_from_dict`), so a run is reproducible from
a JSON or TOML file (:func:`load_spec_file`, ``repro-ssd simulate
--spec``).  The old kwarg form of ``run_simulation`` remains as a thin
shim that builds a spec -- the two forms are verified byte-identical by
the golden-trace suite.

Example::

    from repro.specs import SimulationSpec, WorkloadSpec, HostSpec
    from repro.api import run_simulation

    spec = SimulationSpec(
        workload=WorkloadSpec("zipf", n_requests=4000,
                              params={"theta": 1.2}),
        ftl="cube",
        host=HostSpec(queue_depth=16),
        seed=11,
    )
    result = run_simulation(spec)
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.faults.campaign import CAMPAIGNS
from repro.nand.geometry import BlockGeometry, SSDGeometry
from repro.nand.reliability import AgingState
from repro.nand.timing import NandTiming
from repro.obs.timeseries import DEFAULT_INTERVAL_US
from repro.ssd.config import SSDConfig
from repro.workloads import build_columns, build_workload, is_trace_path
from repro.workloads.base import Columns, Trace

#: version stamp of the spec-file layout; bump on any key change
SPEC_VERSION = 1


class SpecError(ValueError):
    """A spec (file) is malformed or uses unsupported values."""


def _require_keys(mapping: dict, allowed: "set[str]", where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise SpecError(f"{where}: unknown key(s) {unknown}")


# ---------------------------------------------------------------------------
# WorkloadSpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """One host request stream: registry name or ``trace:<path>``.

    ``seed=None`` (the default) means "use the run's seed"
    (:attr:`SimulationSpec.seed`), so one spec file reseeds as a whole.
    ``params`` forward verbatim to the generator (``theta`` for
    ``zipf``, ``read_fraction`` for ``uniform``) or, for ``.csv`` trace
    references, to
    :func:`repro.workloads.blocktrace.load_block_trace`
    (``offset_unit``, ``time_unit``, ``address_mode``, ...).
    ``n_requests`` is ignored for ``trace:`` references -- the recorded
    file's length wins.
    """

    name: str
    n_requests: int = 8000
    seed: Optional[int] = None
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("workload name must be non-empty")
        if self.n_requests < 1:
            raise SpecError("n_requests must be >= 1")

    @property
    def is_trace(self) -> bool:
        return is_trace_path(self.name)

    def build(self, config: SSDConfig, default_seed: int = 1) -> Trace:
        """Generate (or load) the request stream for a device config."""
        return build_workload(*self._args(config, default_seed), **self.params)

    def columns(self, config: SSDConfig, default_seed: int = 1) -> Columns:
        """The stream :meth:`build` builds, as columns not yet built
        (see :func:`repro.workloads.build_columns`)."""
        return build_columns(*self._args(config, default_seed), **self.params)

    def _args(self, config: SSDConfig, default_seed: int) -> tuple:
        seed = self.seed if self.seed is not None else default_seed
        n_requests = None if self.is_trace else self.n_requests
        return self.name, config.logical_pages, n_requests, seed

    def to_dict(self) -> dict:
        out: Dict[str, Any] = {"name": self.name, "n_requests": self.n_requests}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, data: Union[str, dict]) -> "WorkloadSpec":
        if isinstance(data, str):
            return cls(name=data)
        _require_keys(
            data, {"name", "n_requests", "seed", "params"}, "workload"
        )
        if "name" not in data:
            raise SpecError("workload: missing 'name'")
        return cls(
            name=data["name"],
            n_requests=data.get("n_requests", 8000),
            seed=data.get("seed"),
            params=dict(data.get("params", {})),
        )


# ---------------------------------------------------------------------------
# TenantSpec / HostSpec
# ---------------------------------------------------------------------------


# NaN fails every ordered comparison, so a ``rate <= 0`` test lets it
# through; an infinite rate would stamp every arrival at 0
def _positive_finite(rate: float) -> bool:
    return rate > 0 and math.isfinite(rate)


def _burstiness_ok(burstiness: float) -> bool:
    return burstiness >= 1.0 and math.isfinite(burstiness)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant stream of a multi-tenant scenario.

    The tenant's requests are generated by ``workload`` over its LPN
    ``partition`` (a ``(lo, hi)`` fraction pair of the logical space;
    ``None`` = the full space, overlapping every other tenant), stamped
    with exponential arrivals at ``rate_iops * rate_scale``, and merged
    with the other tenants by arrival time.  ``seed=None`` derives the
    tenant's seed from the run seed and the tenant *name* via the
    :func:`repro.parallel.derive_seed` rule, so adding or removing other
    tenants never changes this tenant's stream.
    """

    name: str
    workload: WorkloadSpec
    rate_iops: float
    rate_scale: float = 1.0
    burstiness: float = 1.0
    partition: Optional[Tuple[float, float]] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("tenant name must be non-empty")
        if not _positive_finite(self.rate_iops):
            raise SpecError(
                f"tenant {self.name!r}: rate_iops must be positive and finite"
            )
        if not _positive_finite(self.rate_scale):
            raise SpecError(
                f"tenant {self.name!r}: rate_scale must be positive and finite"
            )
        if not _burstiness_ok(self.burstiness):
            raise SpecError(
                f"tenant {self.name!r}: burstiness must be >= 1 and finite"
            )
        if self.partition is not None:
            object.__setattr__(self, "partition", tuple(self.partition))
            lo, hi = self.partition
            if not (0.0 <= lo < hi <= 1.0):
                raise SpecError(
                    f"tenant {self.name!r}: partition must satisfy "
                    "0 <= lo < hi <= 1"
                )

    @property
    def effective_rate_iops(self) -> float:
        return self.rate_iops * self.rate_scale

    def to_dict(self) -> dict:
        out: Dict[str, Any] = {
            "name": self.name,
            "workload": self.workload.to_dict(),
            "rate_iops": self.rate_iops,
        }
        if self.rate_scale != 1.0:
            out["rate_scale"] = self.rate_scale
        if self.burstiness != 1.0:
            out["burstiness"] = self.burstiness
        if self.partition is not None:
            out["partition"] = list(self.partition)
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TenantSpec":
        _require_keys(
            data,
            {"name", "workload", "rate_iops", "rate_scale", "burstiness",
             "partition", "seed"},
            "tenant",
        )
        for key in ("name", "workload", "rate_iops"):
            if key not in data:
                raise SpecError(f"tenant: missing {key!r}")
        partition = data.get("partition")
        return cls(
            name=data["name"],
            workload=WorkloadSpec.from_dict(data["workload"]),
            rate_iops=data["rate_iops"],
            rate_scale=data.get("rate_scale", 1.0),
            burstiness=data.get("burstiness", 1.0),
            partition=tuple(partition) if partition is not None else None,
            seed=data.get("seed"),
        )


@dataclass(frozen=True)
class HostSpec:
    """How the host issues the stream.

    Three replay modes, selected by ``queue_depth`` / ``open_loop``:

    - **closed loop** (default): ``queue_depth`` requests outstanding at
      all times; a completion immediately issues the next request.
    - **NCQ open loop** (``open_loop=True`` with a finite
      ``queue_depth``): requests issue at their arrival timestamps into
      an N-deep queue; arrivals finding the queue full wait for a slot
      (backpressure), and the reported latency includes that wait.
    - **unbounded open loop** (``open_loop=True``,
      ``queue_depth=None``): every request issues exactly at its
      arrival time (infinite queue).

    Open-loop replay needs arrival timestamps: either the trace carries
    them (``trace:`` CSV references, pre-stamped traces, tenant mixes)
    or ``rate_iops`` is set, which stamps exponential arrivals onto the
    generated trace (seeded from the run seed).

    A non-empty ``tenants`` tuple switches to the multi-tenant scenario:
    the per-tenant streams replace :attr:`SimulationSpec.workload`, are
    merged by arrival time, and always replay open-loop (NCQ when
    ``queue_depth`` is finite).
    """

    queue_depth: Optional[int] = 32
    open_loop: bool = False
    rate_iops: Optional[float] = None
    burstiness: float = 1.0
    tenants: Tuple[TenantSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        if self.queue_depth is not None and self.queue_depth < 1:
            raise SpecError("queue_depth must be >= 1 (or None for unbounded)")
        if self.queue_depth is None and not (self.open_loop or self.tenants):
            raise SpecError("queue_depth=None requires open-loop replay")
        if self.rate_iops is not None and not _positive_finite(self.rate_iops):
            raise SpecError("rate_iops must be positive and finite")
        if not _burstiness_ok(self.burstiness):
            raise SpecError("burstiness must be >= 1 and finite")
        names = [tenant.name for tenant in self.tenants]
        if len(names) != len(set(names)):
            raise SpecError(f"tenant names must be unique, got {names}")

    @property
    def is_open_loop(self) -> bool:
        """True when replay is driven by arrival timestamps."""
        return self.open_loop or bool(self.tenants) or self.rate_iops is not None

    @property
    def mode(self) -> str:
        """``"closed"``, ``"ncq"``, or ``"unbounded"``."""
        if not self.is_open_loop:
            return "closed"
        return "unbounded" if self.queue_depth is None else "ncq"

    def to_dict(self) -> dict:
        out: Dict[str, Any] = {"queue_depth": self.queue_depth}
        if self.open_loop:
            out["open_loop"] = True
        if self.rate_iops is not None:
            out["rate_iops"] = self.rate_iops
        if self.burstiness != 1.0:
            out["burstiness"] = self.burstiness
        if self.tenants:
            out["tenants"] = [tenant.to_dict() for tenant in self.tenants]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "HostSpec":
        _require_keys(
            data,
            {"queue_depth", "open_loop", "rate_iops", "burstiness", "tenants"},
            "host",
        )
        return cls(
            queue_depth=data.get("queue_depth", 32),
            open_loop=data.get("open_loop", False),
            rate_iops=data.get("rate_iops"),
            burstiness=data.get("burstiness", 1.0),
            tenants=tuple(
                TenantSpec.from_dict(tenant)
                for tenant in data.get("tenants", [])
            ),
        )


# ---------------------------------------------------------------------------
# RunOptions
# ---------------------------------------------------------------------------


def check_level_name(check) -> Optional[str]:
    """Normalize a ``check=`` value to its level string (or ``None``)."""
    if check is None or check is False:
        return None
    if check is True:
        return "on"
    if isinstance(check, str):
        return check
    level = getattr(check, "level", None)
    if isinstance(level, str):
        return level
    raise SpecError(
        "check must be None/True/'on'/'strict' or a CheckConfig with a "
        "level attribute"
    )


@dataclass(frozen=True)
class RunOptions:
    """Observability and persistence toggles of one run.

    Everything here is off by default, and an all-default ``RunOptions``
    leaves the simulation bit-for-bit identical to a bare run (the
    standing contract of the obs / check / persist layers).
    """

    trace: Optional[str] = None
    metrics_interval: Optional[float] = None
    telemetry: bool = False
    profile: bool = False
    check: Optional[object] = None
    max_events: Optional[int] = None
    checkpoint_every: Optional[int] = None
    checkpoint_dir: Optional[str] = None
    resume_from: Optional[str] = None
    #: write a run artifact under this directory (see repro.obs.artifact);
    #: excluded from the run's content fingerprint -- *where* an artifact
    #: lives never changes *which* run it names
    artifact_dir: Optional[str] = None

    def __post_init__(self) -> None:
        # the time-series window cadence, refused before anything runs
        if self.metrics_interval is not None and not (
            0 < self.metrics_interval < math.inf
        ):
            raise SpecError(
                "metrics_interval must be a positive, finite number of "
                f"microseconds, got {self.metrics_interval!r}"
            )

    @property
    def window_us(self) -> Optional[float]:
        """The time-series recorder's cadence: ``metrics_interval``, the
        default for an artifact run without one, else ``None`` (no
        recorder)."""
        if self.metrics_interval is None and self.artifact_dir is not None:
            return DEFAULT_INTERVAL_US
        return self.metrics_interval

    def to_dict(self) -> dict:
        out: Dict[str, Any] = {}
        if self.trace is not None:
            out["trace"] = self.trace
        if self.metrics_interval is not None:
            out["metrics_interval"] = self.metrics_interval
        if self.telemetry:
            out["telemetry"] = True
        if self.profile:
            out["profile"] = True
        level = check_level_name(self.check)
        if level is not None:
            out["check"] = level
        if self.max_events is not None:
            out["max_events"] = self.max_events
        if self.checkpoint_every is not None:
            out["checkpoint_every"] = self.checkpoint_every
        if self.checkpoint_dir is not None:
            out["checkpoint_dir"] = self.checkpoint_dir
        if self.resume_from is not None:
            out["resume_from"] = self.resume_from
        if self.artifact_dir is not None:
            out["artifact_dir"] = self.artifact_dir
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunOptions":
        _require_keys(
            data,
            {"trace", "metrics_interval", "telemetry", "profile", "check",
             "max_events", "checkpoint_every", "checkpoint_dir",
             "resume_from", "artifact_dir"},
            "options",
        )
        return cls(**data)


# ---------------------------------------------------------------------------
# SSDConfig <-> dict
# ---------------------------------------------------------------------------

_CONFIG_SCALARS = (
    "buffer_capacity_pages",
    "buffer_read_us",
    "mu_threshold",
    "active_blocks_per_chip",
    "max_inflight_programs",
    "gc_trigger_blocks",
    "wear_aware_allocation",
    "gc_min_invalid_fraction",
    "logical_fraction",
    "env_shift_prob",
    "store_tags",
    "store_oob",
    "seed",
    "read_recovery_attempts",
    "scrub_margin_threshold",
)

_DEFAULT_CONFIG = None


def _default_config() -> SSDConfig:
    global _DEFAULT_CONFIG
    if _DEFAULT_CONFIG is None:
        _DEFAULT_CONFIG = SSDConfig()
    return _DEFAULT_CONFIG


def config_to_dict(config: SSDConfig) -> dict:
    """Serialize an :class:`SSDConfig` for a spec file.

    Only named fault campaigns serialize (the campaign *name* is
    stored); a custom :class:`FaultCampaign` object or a non-default
    :class:`NandTiming` raises -- those runs are constructed in code,
    not from files.
    """
    if config.timing != NandTiming():
        raise SpecError(
            "spec files only carry the default NAND timing; construct "
            "custom-timing configs in code"
        )
    faults_name: Optional[str] = None
    if config.faults is not None:
        for name, campaign in CAMPAIGNS.items():
            if campaign == config.faults:
                faults_name = name
                break
        else:
            raise SpecError(
                f"fault campaign {config.faults.name!r} is not a named "
                "campaign; spec files only carry names from "
                f"{sorted(CAMPAIGNS)}"
            )
    geometry = config.geometry
    block = geometry.block
    out: Dict[str, Any] = {
        "geometry": {
            "n_channels": geometry.n_channels,
            "chips_per_channel": geometry.chips_per_channel,
            "blocks_per_chip": geometry.blocks_per_chip,
            "block": {
                "n_layers": block.n_layers,
                "wls_per_layer": block.wls_per_layer,
                "pages_per_wl": block.pages_per_wl,
                "page_size_bytes": block.page_size_bytes,
            },
        },
        "aging": {
            "pe_cycles": config.aging.pe_cycles,
            "retention_months": config.aging.retention_months,
        },
    }
    if faults_name is not None:
        out["faults"] = faults_name
    defaults = _default_config()
    for key in _CONFIG_SCALARS:
        value = getattr(config, key)
        if value != getattr(defaults, key):
            out[key] = value
    return out


def config_from_dict(data: dict) -> SSDConfig:
    """Build an :class:`SSDConfig` from a spec-file dict (inverse of
    :func:`config_to_dict`; every key optional, defaults apply)."""
    allowed = {"geometry", "aging", "faults"} | set(_CONFIG_SCALARS)
    _require_keys(data, allowed, "config")
    kwargs: Dict[str, Any] = {}
    geometry_data = data.get("geometry")
    if geometry_data is not None:
        _require_keys(
            geometry_data,
            {"n_channels", "chips_per_channel", "blocks_per_chip", "block"},
            "config.geometry",
        )
        block_data = geometry_data.get("block", {})
        _require_keys(
            block_data,
            {"n_layers", "wls_per_layer", "pages_per_wl", "page_size_bytes"},
            "config.geometry.block",
        )
        default_geometry = _default_config().geometry
        block = BlockGeometry(
            n_layers=block_data.get("n_layers", 48),
            wls_per_layer=block_data.get("wls_per_layer", 4),
            pages_per_wl=block_data.get("pages_per_wl", 3),
            page_size_bytes=block_data.get("page_size_bytes", 16 * 1024),
        )
        kwargs["geometry"] = SSDGeometry(
            n_channels=geometry_data.get(
                "n_channels", default_geometry.n_channels
            ),
            chips_per_channel=geometry_data.get(
                "chips_per_channel", default_geometry.chips_per_channel
            ),
            blocks_per_chip=geometry_data.get(
                "blocks_per_chip", default_geometry.blocks_per_chip
            ),
            block=block,
        )
    aging_data = data.get("aging")
    if aging_data is not None:
        _require_keys(
            aging_data, {"pe_cycles", "retention_months"}, "config.aging"
        )
        kwargs["aging"] = AgingState(
            pe_cycles=aging_data.get("pe_cycles", 0),
            retention_months=aging_data.get("retention_months", 0.0),
        )
    faults_name = data.get("faults")
    if faults_name is not None:
        if faults_name not in CAMPAIGNS:
            raise SpecError(
                f"unknown fault campaign {faults_name!r}; choose from "
                f"{sorted(CAMPAIGNS)}"
            )
        kwargs["faults"] = CAMPAIGNS[faults_name]
    for key in _CONFIG_SCALARS:
        if key in data:
            kwargs[key] = data[key]
    return SSDConfig(**kwargs)


# ---------------------------------------------------------------------------
# SimulationSpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulationSpec:
    """One fully-described simulation run.

    Exactly one stream source: either :attr:`workload` (single stream;
    a :class:`WorkloadSpec`, a bare registry name string, or a pre-built
    :class:`~repro.workloads.base.Trace`) or a non-empty
    :attr:`host` ``.tenants`` tuple (multi-tenant scenario).
    """

    config: SSDConfig = field(default_factory=SSDConfig)
    workload: Union[WorkloadSpec, Trace, str, None] = None
    ftl: str = "cube"
    host: HostSpec = field(default_factory=HostSpec)
    options: RunOptions = field(default_factory=RunOptions)
    warmup_requests: int = 0
    prefill: float = 0.9
    seed: int = 7
    ftl_kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if isinstance(self.workload, str):
            object.__setattr__(self, "workload", WorkloadSpec(self.workload))
        if self.workload is None and not self.host.tenants:
            raise SpecError("spec needs a workload or host.tenants")
        if self.workload is not None and self.host.tenants:
            raise SpecError(
                "workload and host.tenants are mutually exclusive (the "
                "tenant workloads replace the single stream)"
            )
        if self.warmup_requests < 0:
            raise SpecError("warmup_requests must be >= 0")
        if not 0.0 <= self.prefill <= 1.0:
            raise SpecError("prefill must be in [0, 1]")

    # -- derived ---------------------------------------------------------

    @property
    def workload_name(self) -> str:
        """Display name of the stream (workload name or tenant mix)."""
        if self.host.tenants:
            return "+".join(tenant.name for tenant in self.host.tenants)
        if isinstance(self.workload, Trace):
            return self.workload.name
        return self.workload.name

    def build_trace(self) -> Trace:
        """Materialize the request stream this spec replays.

        A generated stream is stamped with arrivals (open loop) while it
        is still columns, so each of its requests is built once; a
        pre-built or recorded trace is returned as it is, or stamped by
        :func:`~repro.workloads.base.with_arrivals` when it has none.
        """
        from repro.workloads.tenants import compose_tenants

        if self.host.tenants:
            return compose_tenants(
                self.host.tenants, self.config, base_seed=self.seed
            )
        workload = self.workload
        if isinstance(workload, WorkloadSpec) and not workload.is_trace:
            stream = workload.columns(self.config, default_seed=self.seed)
        else:
            trace = (
                workload
                if isinstance(workload, Trace)
                else workload.build(self.config, default_seed=self.seed)
            )
            if self.host.rate_iops is None or trace.has_arrivals:
                return trace
            stream = Columns.of(trace)
        if self.host.rate_iops is not None:
            from repro.parallel.seeds import derive_seed

            stream.stamp(
                self.host.rate_iops,
                self.host.burstiness,
                seed=derive_seed(self.seed, "host:arrivals"),
            )
        return stream.build()

    def with_options(self, **changes) -> "SimulationSpec":
        """A copy with :class:`RunOptions` fields replaced."""
        return replace(self, options=replace(self.options, **changes))

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        if isinstance(self.workload, Trace):
            raise SpecError(
                "a spec carrying a pre-built Trace object does not "
                "serialize; reference the stream by name or trace:<path>"
            )
        out: Dict[str, Any] = {
            "spec_version": SPEC_VERSION,
            "config": config_to_dict(self.config),
            "ftl": self.ftl,
            "host": self.host.to_dict(),
            "warmup_requests": self.warmup_requests,
            "prefill": self.prefill,
            "seed": self.seed,
        }
        if self.workload is not None:
            out["workload"] = self.workload.to_dict()
        options = self.options.to_dict()
        if options:
            out["options"] = options
        if self.ftl_kwargs:
            out["ftl_kwargs"] = dict(self.ftl_kwargs)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationSpec":
        _require_keys(
            data,
            {"spec_version", "config", "workload", "ftl", "host", "options",
             "warmup_requests", "prefill", "seed", "ftl_kwargs"},
            "spec",
        )
        version = data.get("spec_version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise SpecError(
                f"spec_version {version} != supported {SPEC_VERSION}"
            )
        workload = data.get("workload")
        return cls(
            config=config_from_dict(data.get("config", {})),
            workload=(
                WorkloadSpec.from_dict(workload)
                if workload is not None
                else None
            ),
            ftl=data.get("ftl", "cube"),
            host=HostSpec.from_dict(data.get("host", {})),
            options=RunOptions.from_dict(data.get("options", {})),
            warmup_requests=data.get("warmup_requests", 0),
            prefill=data.get("prefill", 0.9),
            seed=data.get("seed", 7),
            ftl_kwargs=dict(data.get("ftl_kwargs", {})),
        )


simulation_spec_from_dict = SimulationSpec.from_dict


def load_spec_file(path: Union[str, Path]) -> SimulationSpec:
    """Load a :class:`SimulationSpec` from a ``.json`` or ``.toml`` file."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError:  # pragma: no cover - python < 3.11
            raise SpecError(
                f"{path}: TOML spec files need Python 3.11+ (tomllib); "
                "use JSON instead"
            ) from None
        data = tomllib.loads(text)
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"{path}: invalid JSON: {error}") from error
    if not isinstance(data, dict):
        raise SpecError(f"{path}: spec root must be an object")
    try:
        return SimulationSpec.from_dict(data)
    except SpecError as error:
        raise SpecError(f"{path}: {error}") from error


def validate_spec_dict(data: dict) -> List[str]:
    """Schema-check one spec dict; returns a list of problems (empty =
    valid).  Used by ``tools/check_schema.py --spec``."""
    try:
        SimulationSpec.from_dict(data)
    except (SpecError, TypeError, ValueError, KeyError) as error:
        return [str(error)]
    return []


__all__ = [
    "SPEC_VERSION",
    "SpecError",
    "WorkloadSpec",
    "TenantSpec",
    "HostSpec",
    "RunOptions",
    "SimulationSpec",
    "simulation_spec_from_dict",
    "config_to_dict",
    "config_from_dict",
    "load_spec_file",
    "validate_spec_dict",
    "check_level_name",
]
