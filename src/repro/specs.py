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
back (:meth:`SimulationSpec.from_dict`), so a run is reproducible from
a JSON or TOML file (:func:`load_spec_file`, ``repro-ssd simulate
--spec``).  Each dataclass is its own schema: every field is a key, a
key left out takes the field's default, and one writer and one reader
(:func:`_to_dict`, :func:`_from_dict`) serve every class.  The old
kwarg form of ``run_simulation`` remains as a thin shim that builds a
spec -- the two forms are verified byte-identical by the golden-trace
suite.

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
from dataclasses import (
    MISSING,
    dataclass,
    field,
    fields,
    is_dataclass,
    replace,
)
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.check import parse_check_level
from repro.faults.campaign import CAMPAIGNS, FaultCampaign
from repro.ftl import ftl_factory
from repro.nand.timing import NandTiming
from repro.obs.timeseries import DEFAULT_INTERVAL_US
from repro.ssd.config import SSDConfig
from repro.workloads import (
    build_columns,
    build_workload,
    check_workload_name,
    is_trace_path,
)
from repro.workloads.base import Columns, Trace

#: version stamp of the spec-file layout; bump on any key change
SPEC_VERSION = 1


class SpecError(ValueError):
    """A spec (file) is malformed or uses unsupported values."""


# ---------------------------------------------------------------------------
# The file form: one writer and one reader for every spec dataclass
# ---------------------------------------------------------------------------

#: per field, a function from one form of its value to the other: the
#: writer's from the value to its file form, the reader's back
Conversions = Dict[str, Callable[[Any], Any]]

#: the keys the spec file carries beside the fields, with their one
#: supported value
_STAMPS = {"spec_version": SPEC_VERSION}


def _defaults(cls: type) -> Dict[str, Any]:
    """Each field of ``cls`` that has a default, with that default."""
    defaults = {}
    for f in fields(cls):
        if f.default_factory is not MISSING:
            defaults[f.name] = f.default_factory()
        elif f.default is not MISSING:
            defaults[f.name] = f.default
    return defaults


def _form(value: Any) -> Any:
    """A field value's file form: a spec by its ``to_dict``, a plain
    dataclass (geometry, block, aging) with every field, a tuple as a
    list, a dict as a copy."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if is_dataclass(value):
        return {f.name: _form(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_form(item) for item in value]
    if isinstance(value, dict):
        return dict(value)
    return value


def _to_dict(
    spec: Any,
    always: Tuple[str, ...] = (),
    convert: Optional[Conversions] = None,
) -> dict:
    """``spec``'s file form: the ``always`` fields and the fields
    without a default, and every other field whose file form differs
    from its default's.  ``convert`` gives a field's file form where
    :func:`_form` does not."""
    convert = convert or {}
    defaults = _defaults(type(spec))
    out = {}
    for f in fields(spec):
        form = convert.get(f.name, _form)
        value = form(getattr(spec, f.name))
        if (
            f.name in always
            or f.name not in defaults
            or value != form(defaults[f.name])
        ):
            out[f.name] = value
    return out


def _from_dict(
    cls: type,
    data: Any,
    where: str,
    convert: Optional[Conversions] = None,
    *,
    base: Any = None,
    hidden: Tuple[str, ...] = (),
    stamps: Optional[Dict[str, Any]] = None,
) -> Any:
    """Build ``cls`` from its file form ``data``.

    Each key must name a field (``hidden`` fields have no file form) or
    a stamp holding its supported value; a field without a default must
    be given, and a key left out takes the field's default -- or, when
    ``base`` is an instance to merge onto, ``base``'s value.
    ``convert`` builds a field's value from its file form, and a field
    whose default is a plain dataclass (geometry, block, aging) reads
    its object merged onto that default."""
    if not isinstance(data, dict):
        raise SpecError(
            f"{where}: expected an object, got {type(data).__name__}"
        )
    stamps = stamps or {}
    defaults = _defaults(cls) if base is None else vars(base)
    names = [f.name for f in fields(cls) if f.name not in hidden]
    unknown = sorted(set(data) - set(names) - set(stamps))
    if unknown:
        raise SpecError(f"{where}: unknown key(s) {unknown}")
    for key, supported in stamps.items():
        if key in data and data[key] != supported:
            raise SpecError(f"{key} {data[key]} != supported {supported}")
    for name in names:
        if name not in data and name not in defaults:
            raise SpecError(f"{where}: missing {name!r}")
    convert = convert or {}
    kwargs = {}
    for name in names:
        if name not in data:
            continue
        value = data[name]
        if name in convert:
            value = convert[name](value)
        elif is_dataclass(defaults.get(name)):
            value = _from_dict(
                type(defaults[name]), value, f"{where}.{name}",
                base=defaults[name],
            )
        kwargs[name] = value
    return cls(**kwargs) if base is None else replace(base, **kwargs)


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
        return _to_dict(self, always=("name", "n_requests"))

    @classmethod
    def from_dict(cls, data: Union[str, dict]) -> "WorkloadSpec":
        """The spec of a file's workload object, or of a bare name; the
        name must be a registered workload or a ``trace:`` reference."""
        if isinstance(data, str):
            data = {"name": data}
        spec = _from_dict(cls, data, "workload", {"params": dict})
        check_workload_name(spec.name)
        return spec


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
        return _to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TenantSpec":
        return _from_dict(
            cls, data, "tenant", {"workload": WorkloadSpec.from_dict}
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
        return _to_dict(self, always=("queue_depth",))

    @classmethod
    def from_dict(cls, data: dict) -> "HostSpec":
        return _from_dict(cls, data, "host", {
            "tenants": lambda tenants: [
                TenantSpec.from_dict(tenant) for tenant in tenants
            ],
        })


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
        return _to_dict(self, convert={"check": check_level_name})

    @classmethod
    def from_dict(cls, data: dict) -> "RunOptions":
        """The options of a file; ``check`` must be a level
        :func:`~repro.check.parse_check_level` takes."""
        options = _from_dict(cls, data, "options")
        parse_check_level(options.check)
        return options


# ---------------------------------------------------------------------------
# SSDConfig <-> dict
# ---------------------------------------------------------------------------


def _campaign_name(campaign: Optional[FaultCampaign]) -> Optional[str]:
    """A fault campaign's file form: its name in ``CAMPAIGNS``."""
    if campaign is None:
        return None
    for name, named in CAMPAIGNS.items():
        if named == campaign:
            return name
    raise SpecError(
        f"fault campaign {campaign.name!r} is not a named "
        "campaign; spec files only carry names from "
        f"{sorted(CAMPAIGNS)}"
    )


def _named_campaign(name: Optional[str]) -> Optional[FaultCampaign]:
    """The campaign a spec file names (``None`` or ``"none"``: no
    faults)."""
    if name is None:
        return None
    if name not in CAMPAIGNS:
        raise SpecError(
            f"unknown fault campaign {name!r}; choose from "
            f"{sorted(CAMPAIGNS)}"
        )
    return CAMPAIGNS[name]


def config_to_dict(config: SSDConfig) -> dict:
    """Serialize an :class:`SSDConfig` for a spec file: ``geometry``
    (with its ``block``) and ``aging`` in full, every other field that
    differs from its default.

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
    return _to_dict(
        config,
        always=("geometry", "aging"),
        convert={"faults": _campaign_name},
    )


def config_from_dict(data: dict) -> SSDConfig:
    """Build an :class:`SSDConfig` from a spec-file dict (inverse of
    :func:`config_to_dict`).  Every key is optional; ``geometry``, its
    ``block`` and ``aging`` merge onto ``SSDConfig()``'s own, so a
    partial geometry keeps the default device's 48 blocks per chip."""
    return _from_dict(
        SSDConfig, data, "config", {"faults": _named_campaign},
        hidden=("timing",),
    )


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
        return {**_STAMPS, **_to_dict(
            self,
            always=("config", "ftl", "host", "warmup_requests", "prefill",
                    "seed"),
            convert={"config": config_to_dict},
        )}

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationSpec":
        """The spec of a file's root object; ``ftl`` must be a name
        :func:`~repro.ftl.make_ftl` takes."""
        spec = _from_dict(
            cls,
            data,
            "spec",
            {
                "config": config_from_dict,
                "workload": lambda workload: (
                    None if workload is None
                    else WorkloadSpec.from_dict(workload)
                ),
                "host": HostSpec.from_dict,
                "options": RunOptions.from_dict,
                "ftl_kwargs": dict,
            },
            stamps=_STAMPS,
        )
        ftl_factory(spec.ftl)
        return spec


#: what building a spec from a malformed dict raises: its own checks'
#: SpecError, and the TypeError, ValueError and KeyError of the
#: constructors it calls (an SSDConfig field out of its domain, say)
_SPEC_DICT_ERRORS = (SpecError, TypeError, ValueError, KeyError)


def load_spec_file(path: Union[str, Path]) -> SimulationSpec:
    """Load a :class:`SimulationSpec` from a ``.json`` or ``.toml`` file.

    Every problem -- an unreadable file, malformed JSON, an unknown key,
    an out-of-domain value -- is a :class:`SpecError` whose message
    starts with the path."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise SpecError(f"{path}: {error.strerror or error}") from error
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError:  # pragma: no cover - python < 3.11
            raise SpecError(
                f"{path}: TOML spec files need Python 3.11+ (tomllib); "
                "use JSON instead"
            ) from None
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise SpecError(f"{path}: invalid TOML: {error}") from error
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"{path}: invalid JSON: {error}") from error
    if not isinstance(data, dict):
        raise SpecError(f"{path}: spec root must be an object")
    try:
        return SimulationSpec.from_dict(data)
    except _SPEC_DICT_ERRORS as error:
        raise SpecError(f"{path}: {error}") from error


def validate_spec_dict(data: dict) -> List[str]:
    """Schema-check one spec dict; returns a list of problems (empty =
    valid).  Used by the artifact check on a run's ``spec.json``."""
    try:
        SimulationSpec.from_dict(data)
    except _SPEC_DICT_ERRORS as error:
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
    "config_to_dict",
    "config_from_dict",
    "load_spec_file",
    "validate_spec_dict",
    "check_level_name",
]
