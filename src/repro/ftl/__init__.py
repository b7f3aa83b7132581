"""Flash translation layers.

- :class:`PageFTL` -- the PS-unaware page-mapping baseline.
- :class:`VertFTL` -- the inter-layer-variability baseline (conservative
  offline V_final-only adjustment, after Hung et al. [13]).
- :class:`CubeFTL` -- the paper's PS-aware FTL (OPM + WAM + MOS); with
  ``wam_enabled=False`` it becomes the cubeFTL- ablation of Section 6.3.
- :class:`DFTL` -- demand-paged mapping (bounded CMT, translation pages
  in flash) over the pageFTL allocation policy.
"""

from functools import partial

from repro.ftl.base import BaseFTL, FTLCounters
from repro.ftl.mapping import PageMapper, UNMAPPED
from repro.ftl.blockmgr import BlockManager, BlockState, OutOfSpaceError
from repro.ftl.pageftl import PageFTL
from repro.ftl.vertftl import VertFTL
from repro.ftl.cubeftl import CubeFTL
from repro.ftl.oracleftl import OracleFTL
from repro.ftl.dftl import DFTL

_FTL_REGISTRY = {
    "page": PageFTL,
    "pageftl": PageFTL,
    "vert": VertFTL,
    "vertftl": VertFTL,
    "cube": CubeFTL,
    "cubeftl": CubeFTL,
    "oracle": OracleFTL,
    "oracleftl": OracleFTL,
    "dftl": DFTL,
    # cubeFTL with the WAM disabled (horizontal-first allocation), the
    # paper's cubeFTL- configuration
    "cube-": partial(CubeFTL, wam_enabled=False),
    "cubeftl-": partial(CubeFTL, wam_enabled=False),
}

#: the FTL names a run is given by (the CLI's ``--ftl`` choices);
#: :func:`make_ftl` also takes the long forms (``pageftl``, ``cubeftl-``,
#: ...), in any case
FTL_NAMES = ("page", "vert", "cube", "cube-", "oracle", "dftl")


def ftl_factory(name):
    """The constructor :func:`make_ftl` calls for ``name`` (any case);
    ``ValueError`` for a name it does not know."""
    key = name.lower() if isinstance(name, str) else None
    if key not in _FTL_REGISTRY:
        raise ValueError(
            f"unknown FTL {name!r}; choose from {list(FTL_NAMES)}"
        )
    return _FTL_REGISTRY[key]


def make_ftl(name, config, controller, **kwargs):
    """Instantiate an FTL by name (see :data:`FTL_NAMES`); ``"cube-"``
    is cubeFTL with the WAM disabled, the paper's cubeFTL-."""
    return ftl_factory(name)(config, controller, **kwargs)


__all__ = [
    "BaseFTL",
    "FTLCounters",
    "PageMapper",
    "UNMAPPED",
    "BlockManager",
    "BlockState",
    "OutOfSpaceError",
    "PageFTL",
    "VertFTL",
    "CubeFTL",
    "OracleFTL",
    "DFTL",
    "FTL_NAMES",
    "ftl_factory",
    "make_ftl",
]
