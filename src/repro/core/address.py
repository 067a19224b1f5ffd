"""Physical address codec (paper Fig. 5 and section 4.1).

The MAC partitions a physical address into:

* ``flit offset``  — bits 0..3, the byte offset inside one 16 B FLIT
  (ignored by the coalescer);
* ``flit id``      — bits 4..7, which of the 16 FLITs of the 256 B row is
  requested;
* ``row number``   — bits 8.., the index of the HMC DRAM row (vault, bank
  and in-bank row bits combined).

Two extension bits augment the row number inside the ARQ
(section 4.1.2): the ``T`` (type) bit, placed just above the 52-bit
physical address so that loads and stores to the same row compare unequal
with a single comparator, and the ``B`` (bypass) bit, which marks entries
that cannot coalesce further.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from .config import MACConfig
from .request import MemoryRequest, RequestType


@dataclass(frozen=True, slots=True)
class AddressCodec:
    """Bit-level encode/decode of physical addresses for one MAC config.

    Every shift and mask is derived from the config once, at
    construction (the config's power-of-two checks make them exact), so
    a decode reads plain ints.  :meth:`locate` is the one decode the
    MAC's hot path runs per raw request.
    """

    config: MACConfig
    #: Address bits below the row number (8 for 256 B rows).
    row_shift: int = field(init=False, repr=False, compare=False)
    #: ``row_bytes - 1``: the in-row byte offset.
    row_mask: int = field(init=False, repr=False, compare=False)
    #: Address bits below the FLIT id (4 for 16 B FLITs).
    flit_shift: int = field(init=False, repr=False, compare=False)
    #: ``flit_bytes - 1``: the in-FLIT byte offset.
    flit_mask: int = field(init=False, repr=False, compare=False)
    #: The T bit of a store's ARQ key, just above the row-number bits.
    store_bit: int = field(init=False, repr=False, compare=False)
    #: ``1 << phys_addr_bits``: first address outside the address space.
    addr_limit: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cfg = self.config
        row_shift = cfg.row_offset_bits
        key_row_bits = cfg.phys_addr_bits - row_shift
        for name, value in (
            ("row_shift", row_shift),
            ("row_mask", cfg.row_bytes - 1),
            ("flit_shift", cfg.flit_offset_bits),
            ("flit_mask", cfg.flit_bytes - 1),
            ("store_bit", 1 << key_row_bits),
            ("addr_limit", 1 << cfg.phys_addr_bits),
        ):
            object.__setattr__(self, name, value)

    # -- the hot-path decode -------------------------------------------------

    def locate(self, addr: int, rtype: RequestType) -> Tuple[int, int]:
        """``(ARQ key, FLIT id)`` of one raw request, with one range check.

        Loads and stores get :meth:`arq_key`'s key; atomics, which never
        coalesce, get key ``-1``.  Fences carry no address and raise.
        """
        if not 0 <= addr < self.addr_limit:
            self._check(addr)
        flit = (addr & self.row_mask) >> self.flit_shift
        if rtype is RequestType.LOAD:
            return addr >> self.row_shift, flit
        if rtype is RequestType.STORE:
            return self.store_bit | (addr >> self.row_shift), flit
        if rtype is RequestType.ATOMIC:
            return -1, flit
        raise ValueError("fences carry no address to locate")

    # -- basic field extraction ------------------------------------------

    def row_number(self, addr: int) -> int:
        """DRAM row index of ``addr`` (address >> row_offset_bits)."""
        self._check(addr)
        return addr >> self.row_shift

    def row_offset(self, addr: int) -> int:
        """Byte offset of ``addr`` inside its DRAM row."""
        self._check(addr)
        return addr & self.row_mask

    def flit_id(self, addr: int) -> int:
        """FLIT index (0..15 for 256 B rows) of ``addr`` inside its row."""
        self._check(addr)
        return (addr & self.row_mask) >> self.flit_shift

    def flit_offset(self, addr: int) -> int:
        """Byte offset of ``addr`` inside its FLIT (bits 0..3)."""
        self._check(addr)
        return addr & self.flit_mask

    def row_base(self, addr: int) -> int:
        """Byte address of the first byte of the row containing ``addr``."""
        self._check(addr)
        return addr & ~self.row_mask

    # -- composition ------------------------------------------------------

    def compose(self, row: int, flit: int = 0, offset: int = 0) -> int:
        """Build a physical address from (row number, flit id, byte offset)."""
        cfg = self.config
        if not 0 <= flit < cfg.flits_per_row:
            raise ValueError(f"flit id {flit} out of range")
        if not 0 <= offset < cfg.flit_bytes:
            raise ValueError(f"flit offset {offset} out of range")
        addr = (row << self.row_shift) | (flit << self.flit_shift) | offset
        self._check(addr)
        return addr

    # -- ARQ comparator key ------------------------------------------------

    def arq_key(self, request: MemoryRequest) -> int:
        """The single-comparator key used by the ARQ (section 4.1.2).

        The key is the row number with the T bit spliced in as its most
        significant bit, so one integer comparison distinguishes both the
        target row and the request type.
        """
        if not request.rtype.coalescable:
            raise ValueError("only loads/stores carry an ARQ key")
        return self.locate(request.addr, request.rtype)[0]

    def key_row(self, key: int) -> int:
        """Recover the row number from an ARQ key."""
        return key & (self.store_bit - 1)

    def key_type(self, key: int) -> RequestType:
        """Recover the request type (load/store) from an ARQ key."""
        return RequestType.STORE if key & self.store_bit else RequestType.LOAD

    # -- helpers -----------------------------------------------------------

    def _check(self, addr: int) -> None:
        if addr < 0:
            raise ValueError(f"negative address {addr:#x}")
        if addr >= self.addr_limit:
            raise ValueError(
                f"address {addr:#x} exceeds {self.config.phys_addr_bits}-bit "
                "physical address space"
            )
