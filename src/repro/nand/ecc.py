"""ECC engine model.

The flash controller protects each page with per-codeword ECC (BCH/LDPC
class).  The model works with expected error counts: a page of ``n`` bits
at raw bit error rate ``ber`` carries ``ber * n`` raw errors spread over
its codewords; the page decodes iff the worst codeword stays within the
correction capability.

The engine's :attr:`ber_limit` is the threshold the paper's Fig. 9 calls
the *ECC correction capability*: program-parameter relaxation is safe
exactly while the resulting BER stays below it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EccEngine:
    """Per-codeword error correction model.

    Defaults: 1-KiB codewords with 72-bit correction, a common
    enterprise-TLC operating point.
    """

    codeword_bytes: int = 1024
    correctable_bits: int = 72
    #: headroom factor: vendors derate the hard limit to keep the
    #: uncorrectable-page probability negligible
    derating: float = 0.88

    def __post_init__(self) -> None:
        if self.codeword_bytes < 1:
            raise ValueError("codeword_bytes must be >= 1")
        if self.correctable_bits < 1:
            raise ValueError("correctable_bits must be >= 1")
        if not 0.0 < self.derating <= 1.0:
            raise ValueError("derating must be in (0, 1]")
        # every page read tests against the limit; the engine is frozen,
        # so compute it once
        object.__setattr__(
            self,
            "_ber_limit",
            self.derating * self.correctable_bits / self.codeword_bits,
        )

    @property
    def codeword_bits(self) -> int:
        return self.codeword_bytes * 8

    @property
    def ber_limit(self) -> float:
        """Maximum raw BER the engine can reliably correct."""
        return self._ber_limit

    def codewords_per_page(self, page_size_bytes: int) -> int:
        if page_size_bytes % self.codeword_bytes:
            raise ValueError("page size must be a codeword multiple")
        return page_size_bytes // self.codeword_bytes

    def raw_errors_per_codeword(self, ber: float) -> float:
        """Expected raw bit errors per codeword at a given raw BER."""
        if ber < 0:
            raise ValueError("ber must be >= 0")
        return ber * self.codeword_bits

    def correctable(self, ber: float) -> bool:
        """Whether a page read at raw BER ``ber`` decodes successfully."""
        return ber <= self._ber_limit

    def margin(self, ber: float) -> float:
        """Remaining correction headroom, normalized (1 = fresh, 0 = at
        the limit, negative = uncorrectable)."""
        return 1.0 - ber / self._ber_limit
