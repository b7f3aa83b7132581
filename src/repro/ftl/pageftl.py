"""pageFTL: the PS-unaware baseline (Section 6.1).

A page-level mapping FTL with no 3D-NAND-specific optimization: every WL
programs with the conservative default parameters, blocks fill in the
conventional horizontal-first order, and every read starts from the
default read references (paying the full retry sweep on aged blocks).
"""

from __future__ import annotations

from repro.ftl.base import BaseFTL


class PageFTL(BaseFTL):
    """Baseline page-mapping FTL without process-similarity awareness:
    the base FTL's PS-unaware defaults (horizontal-first allocation,
    default program and read parameters) and nothing more."""

    name = "pageFTL"
