"""RAM configuration: the parameters the user gives BISRAMGEN.

"The parameters explicitly specified by the user include: bpw, bpc,
number of words, number of spare rows (4, 8, or 16), size of critical
gates in the RAM circuitry, and the strap space. ... The value of bpc
must be a power of 2."
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Optional

from repro.core.canonical import stable_digest
from repro.core.errors import ConfigError


@dataclass(frozen=True)
class RamConfig:
    """A validated BISR-RAM configuration.

    Attributes:
        words: number of addressable words (CPU-visible).
        bpw: bits per word (power of two).
        bpc: bits per column, the column-mux factor (power of two).
        spares: spare rows; the paper's tool offers 4, 8 or 16 and only
            guarantees a maskable TLB delay up to 4 ("BISRAMGEN will
            allow a user to generate a RAM array with more spares but
            will not be able to guarantee that the TLB delay penalty
            can be masked").
        spare_cols: spare bit-line pairs for 2-D redundancy (0 = the
            paper's row-only repair).  Each spare column is a full
            bit-line pair running the whole array height, bypassed in
            via the column-steering mux; 0..16 allowed.
        gate_size: integer drive-strength multiplier for critical gates
            (precharge devices, word-line drivers).
        strap_every: bit-cell columns between strap columns (0 = no
            straps); Figs. 6-7 use 32.
        strap_width_lambda: width of each strap column in lambda.
        process: deck name — one of the paper's packaged decks
            ("cda05", "mos06", "cda07", "mos08") or any other
            registered deck (``repro tech list`` enumerates them).
        ports: access ports on the bit cell — 1 (classic 6T) or 2
            (dual-port 8T: second word line and bit-line pair, its own
            precharge row and row decoder).
    """

    words: int
    bpw: int
    bpc: int
    spares: int = 4
    spare_cols: int = 0
    gate_size: int = 1
    strap_every: int = 32
    strap_width_lambda: int = 16
    process: str = "cda07"
    ports: int = 1

    def __post_init__(self) -> None:
        if self.words < 1:
            raise ConfigError("words must be positive")
        for name in ("bpw", "bpc"):
            value = getattr(self, name)
            if value < 1 or value & (value - 1):
                raise ConfigError(f"{name} must be a positive power of two")
        if self.words % self.bpc:
            raise ConfigError(
                f"words ({self.words}) must be a multiple of bpc "
                f"({self.bpc}) so rows come out integral"
            )
        if self.spares not in (4, 8, 16):
            raise ConfigError(
                "spares must be 4, 8, or 16 (the options BISRAMGEN offers)"
            )
        if not 0 <= self.spare_cols <= 16:
            raise ConfigError("spare_cols must be in 0..16")
        if self.gate_size < 1:
            raise ConfigError("gate_size must be >= 1")
        if self.strap_every < 0:
            raise ConfigError("strap_every must be non-negative")
        if self.strap_every and self.strap_width_lambda < 12:
            raise ConfigError("strap columns need >= 12 lambda for well ties")
        if self.ports not in (1, 2):
            raise ConfigError("ports must be 1 (6T) or 2 (dual-port 8T)")

    # -- derived geometry -----------------------------------------------------

    @property
    def rows(self) -> int:
        """Regular word-line count."""
        return self.words // self.bpc

    @property
    def total_rows(self) -> int:
        return self.rows + self.spares

    @property
    def columns(self) -> int:
        """Physical bit-line pair count (bpw subarrays of bpc each)."""
        return self.bpw * self.bpc

    @property
    def total_columns(self) -> int:
        """Physical bit-line pairs including spare columns."""
        return self.columns + self.spare_cols

    @property
    def bits(self) -> int:
        """Usable capacity in bits."""
        return self.words * self.bpw

    @property
    def row_address_bits(self) -> int:
        return max(1, (self.rows - 1).bit_length())

    @property
    def column_address_bits(self) -> int:
        return max(1, (self.bpc - 1).bit_length()) if self.bpc > 1 else 0

    @property
    def address_bits(self) -> int:
        return max(1, (self.words - 1).bit_length())

    @property
    def spare_word_fraction(self) -> float:
        """Redundancy level: spare words over regular words.

        The paper notes 1-4 spare rows give bpc/words to 4*bpc/words
        redundancy, "large enough in practice".
        """
        return (self.spares * self.bpc) / self.words

    @property
    def strap_count(self) -> int:
        if not self.strap_every:
            return 0
        return max(0, (self.columns - 1) // self.strap_every)

    # -- canonical identity ---------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical plain-dict form: every field, JSON-serializable.

        The inverse of :meth:`from_dict`; the payload :meth:`digest`
        hashes.  Field order follows the dataclass declaration, but the
        digest sorts keys, so the order here is cosmetic.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "RamConfig":
        """Rebuild a validated configuration from :meth:`to_dict` output.

        Raises:
            ConfigError: on unknown keys, missing required keys, or any
                value the constructor's own validation rejects.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown RamConfig field(s): {sorted(unknown)}"
            )
        try:
            return cls(**dict(data))
        except TypeError as error:
            raise ConfigError(f"incomplete RamConfig: {error}") from None

    def digest(self, chars: Optional[int] = None) -> str:
        """Stable content digest: sorted-key canonical JSON -> SHA-256.

        Two equal configurations digest equal in any process on any
        platform, so this is the identity the artifact store, the
        compiler's stage cache, and campaign fingerprints key on.

        The payload folds in the resolved *deck fingerprint*
        (:meth:`repro.tech.process.Process.fingerprint`) on top of
        :meth:`to_dict`: two configs naming the same process string but
        resolving different rule decks (a ``--tech-dir`` deck shadowing
        a packaged one, or an edited descriptor file) digest differently, so
        no cache layer ever serves geometry generated under other
        rules.  ``to_dict``/``from_dict`` stay fingerprint-free — the
        fingerprint is derived state, not configuration.
        """
        from repro.tech.process import get_process

        payload = dict(self.to_dict())
        payload["deck_fingerprint"] = get_process(self.process).fingerprint()
        return stable_digest(payload, chars)

    def describe(self) -> str:
        kb = self.bits / 1024
        cols = (f", cols={self.columns}+{self.spare_cols} spare"
                if self.spare_cols else "")
        dp = ", dual-port" if self.ports == 2 else ""
        return (
            f"{self.words} words x {self.bpw} bits ({kb:.0f} Kbit), "
            f"bpc={self.bpc}, rows={self.rows}+{self.spares} spare"
            f"{cols}, process={self.process}{dp}"
        )
