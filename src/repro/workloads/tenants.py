"""Multi-tenant stream composition: N independent workloads, one device.

Each :class:`~repro.specs.TenantSpec` names a workload, an arrival rate,
and an optional LPN partition; :func:`compose_tenants` materializes every
tenant's stream independently and interleaves them deterministically by
arrival time into one merged :class:`~repro.workloads.base.Trace` whose
requests carry tenant tags (see :attr:`IORequest.tenant`).

Two determinism rules make tenant scenarios composable:

- **Per-tenant seeds derive from the run seed and the tenant name**
  (the :func:`repro.parallel.derive_seed` rule), never from the tenant's
  position in the list -- adding, removing, or reordering *other*
  tenants leaves this tenant's stream bit-identical.  That is what makes
  the interference matrix meaningful: the solo baseline run replays
  exactly the stream the tenant issued in the shared run.
- **The merge order is a pure function of the streams**: requests sort
  by ``(arrival_us, tenant index, sequence index)``, so ties break the
  same way on every platform.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.parallel.seeds import derive_seed
from repro.workloads import build_columns
from repro.workloads.base import Columns, Trace

if TYPE_CHECKING:
    from repro.specs import TenantSpec
    from repro.ssd.config import SSDConfig


def tenant_seed(base_seed: int, name: str) -> int:
    """The workload seed a tenant runs with (unless pinned in its spec)."""
    return derive_seed(base_seed, f"tenant:{name}")


def tenant_arrival_seed(base_seed: int, name: str) -> int:
    """The arrival-stamping seed of a tenant (independent of the
    workload seed, so rate changes never reshuffle the request mix)."""
    return derive_seed(base_seed, f"tenant:{name}:arrivals")


def _partition_pages(tenant: "TenantSpec", logical_pages: int):
    """(base LPN, region size) of a tenant's slice of the logical space."""
    if tenant.partition is None:
        return 0, logical_pages
    lo_fraction, hi_fraction = tenant.partition
    lo = int(lo_fraction * logical_pages)
    hi = int(hi_fraction * logical_pages)
    if hi - lo < 1:
        raise ValueError(
            f"tenant {tenant.name!r}: partition {tenant.partition} spans "
            f"no pages on a {logical_pages}-page device"
        )
    return lo, hi - lo


def _tenant_columns(
    tenant: "TenantSpec", config: "SSDConfig", base_seed: int
) -> Columns:
    """One tenant's placed, tagged and stamped stream, not yet built."""
    logical_pages = config.logical_pages
    base_lpn, region_pages = _partition_pages(tenant, logical_pages)
    spec = tenant.workload
    seed = tenant.seed if tenant.seed is not None else tenant_seed(
        base_seed, tenant.name
    )
    stream = build_columns(
        spec.name,
        region_pages,
        None if spec.is_trace else spec.n_requests,
        seed=seed,
        **spec.params,
    )
    stream.name = tenant.name
    stream.logical_pages = logical_pages
    stream.lpns = [lpn + base_lpn for lpn in stream.lpns]
    stream.tenants = [tenant.name] * len(stream)
    if spec.is_trace:
        # a recorded trace keeps its own logical space, which may
        # overhang the partition; a generated one was checked against it
        stream.check()
    if not stream.has_arrivals:
        stream.stamp(
            tenant.effective_rate_iops,
            tenant.burstiness,
            seed=tenant_arrival_seed(base_seed, tenant.name),
        )
    elif tenant.rate_scale != 1.0:
        stream.arrivals = [
            arrival / tenant.rate_scale for arrival in stream.arrivals
        ]
    return stream


def tenant_trace(
    tenant: "TenantSpec", config: "SSDConfig", base_seed: int
) -> Trace:
    """One tenant's tagged, arrival-stamped stream over the full device.

    The workload generates over the tenant's partition region (so
    locality structure is preserved inside the slice), then shifts to the
    region's base LPN and tags every request with the tenant name.
    Generated workloads are stamped with exponential arrivals at
    ``rate_iops * rate_scale``; recorded traces that already carry
    arrivals keep their own timeline, compressed by ``rate_scale``.
    """
    return _tenant_columns(tenant, config, base_seed).build()


def compose_tenants(
    tenants: Sequence["TenantSpec"], config: "SSDConfig", base_seed: int
) -> Trace:
    """The merged multi-tenant stream, interleaved by arrival time.

    The result always satisfies :attr:`Trace.has_arrivals` (tenant
    scenarios replay open-loop by construction) and every request
    carries its tenant tag.  Each tenant's stream is merged as columns,
    so each request is built once.
    """
    if not tenants:
        raise ValueError("compose_tenants needs at least one tenant")
    names = [tenant.name for tenant in tenants]
    if len(names) != len(set(names)):
        raise ValueError(f"tenant names must be unique, got {names}")
    streams = [_tenant_columns(tenant, config, base_seed) for tenant in tenants]
    # (arrival, tenant index, sequence) is unique, so sorting the whole
    # tuples orders them by that key alone
    keyed = sorted(
        (arrival, tenant_index, sequence, op, lpn, n_pages)
        for tenant_index, stream in enumerate(streams)
        for sequence, (arrival, op, lpn, n_pages) in enumerate(
            zip(stream.arrivals, stream.ops, stream.lpns, stream.sizes)
        )
    )
    return Columns(
        "+".join(names),
        config.logical_pages,
        [entry[3] for entry in keyed],
        [entry[4] for entry in keyed],
        [entry[5] for entry in keyed],
        [entry[0] for entry in keyed],
        [names[entry[1]] for entry in keyed],
    ).build()


__all__ = [
    "tenant_seed",
    "tenant_arrival_seed",
    "tenant_trace",
    "compose_tenants",
]
