"""Wire-level view of HMC packets (paper section 2.2.2).

The device model consumes :class:`repro.core.packet.CoalescedRequest`
objects; this module computes their wire representation — FLIT counts,
header/tail control overhead, CRC-carrying tail — and defines the
response record returned by the device.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

from repro.core.packet import CoalescedRequest
from repro.core.request import RequestType

from .config import HMCConfig


class HMCCommand(enum.Enum):
    """Subset of HMC 2.1 request commands the model distinguishes."""

    RD = "read"
    WR = "write"
    ATOMIC = "atomic"


#: Command of each request type; every other type reads.
_COMMANDS = {RequestType.STORE: HMCCommand.WR, RequestType.ATOMIC: HMCCommand.ATOMIC}


class WirePacket(NamedTuple):
    """FLIT-level accounting of one request/response exchange."""

    command: HMCCommand
    payload_bytes: int
    request_flits: int
    response_flits: int
    vault: int
    bank: int
    dram_row: int
    columns: int

    @property
    def total_flits(self) -> int:
        return self.request_flits + self.response_flits

    @property
    def wire_bytes(self) -> int:
        return self.total_flits * 16

    @property
    def control_bytes(self) -> int:
        return self.wire_bytes - self.payload_bytes


@dataclass(frozen=True, slots=True)
class AddressMap:
    """One cube's address map and packet geometry, frozen.

    Holds the shifts and masks of :meth:`HMCConfig.vault_of`,
    :meth:`~HMCConfig.bank_of` and :meth:`~HMCConfig.dram_row_of` (the
    reference definitions) as plain ints, plus a per-(size, type) cache
    of packet shapes.  A device builds one at construction; its
    ``submit`` and :func:`encode` read packets through :meth:`shape_of`
    and :meth:`place`.
    """

    flit_bytes: int
    row_bytes: int
    min_request_bytes: int
    max_request_bytes: int
    row_shift: int
    vault_bits: int
    vault_mask: int
    bank_shift: int
    bank_bits: int
    bank_mask: int
    dram_row_shift: int
    config: HMCConfig = field(compare=False, repr=False)
    #: ``(size, rtype) -> (command, request_flits, response_flits,
    #: columns)``, filled by :meth:`shape_of`.
    shapes: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def of(cls, config: HMCConfig) -> "AddressMap":
        row_shift = config.row_offset_bits
        bank_shift = row_shift + config.vault_bits
        return cls(
            flit_bytes=config.flit_bytes,
            row_bytes=config.row_bytes,
            min_request_bytes=config.min_request_bytes,
            max_request_bytes=config.max_request_bytes,
            row_shift=row_shift,
            vault_bits=config.vault_bits,
            vault_mask=config.vaults - 1,
            bank_shift=bank_shift,
            bank_bits=config.bank_bits,
            bank_mask=config.banks_per_vault - 1,
            dram_row_shift=bank_shift + config.bank_bits,
            config=config,
        )

    def place(self, addr: int, size: int) -> Tuple[int, int, int]:
        """``(vault, bank, dram_row)`` of a ``size``-byte packet at ``addr``.

        Runs the address checks every packet needs: FLIT alignment and
        staying inside one DRAM row.
        """
        if addr % self.flit_bytes:
            raise ValueError("requests must be FLIT aligned")
        if (addr & (self.row_bytes - 1)) + size > self.row_bytes:
            raise ValueError("request crosses a DRAM row boundary")
        row = addr >> self.row_shift
        vb = self.vault_bits
        upper = addr >> self.bank_shift
        return (
            (row ^ (row >> vb) ^ (row >> (2 * vb))) & self.vault_mask,
            (upper ^ (upper >> self.bank_bits)) & self.bank_mask,
            addr >> self.dram_row_shift,
        )

    def shape_of(self, size: int, rtype: RequestType) -> tuple:
        """Check a ``size``-byte ``rtype`` packet and cache its shape.

        The size checks depend on nothing else, so they run once per
        shape; a size that fails them raises and is never cached.
        """
        if size < self.min_request_bytes and rtype is not RequestType.ATOMIC:
            # HMC accepts 16 B as its smallest transaction; the MAC's
            # bypass packets are exactly that.
            if size != self.flit_bytes:
                raise ValueError(f"unsupported request size {size}")
        if size > self.max_request_bytes:
            raise ValueError(
                f"request of {size} B exceeds protocol max {self.max_request_bytes} B"
            )
        cmd = _COMMANDS.get(rtype, HMCCommand.RD)
        is_write = cmd is HMCCommand.WR
        cfg = self.config
        shape = self.shapes[size, rtype] = (
            cmd,
            cfg.request_flits(size, is_write),
            cfg.response_flits(size, is_write),
            cfg.columns(size),
        )
        return shape


def encode(
    req: CoalescedRequest, config: HMCConfig, amap: Optional[AddressMap] = None
) -> WirePacket:
    """Compute the wire footprint of one coalesced request.

    ``amap`` is the cube's frozen :class:`AddressMap`; without one it is
    built from ``config`` for this call.
    """
    if amap is None:
        amap = AddressMap.of(config)
    size, rtype = req.size, req.rtype
    cmd, request_flits, response_flits, columns = amap.shapes.get(
        (size, rtype)
    ) or amap.shape_of(size, rtype)
    return WirePacket(
        cmd, size, request_flits, response_flits, *amap.place(req.addr, size), columns
    )


def packet_crc(req: CoalescedRequest, seq: int = 0) -> int:
    """32-bit CRC over the packet's addressing fields and sequence number.

    Stands in for the tail CRC of the HMC protocol; tests use it to
    exercise the integrity check.  The link's retry protocol does not
    compute it: CRC failures are drawn from the fault model.  The
    sequence number is folded in so a replayed packet cannot be mistaken
    for its neighbour.
    """
    blob = f"{req.addr:x}:{req.size}:{req.rtype.value}:{seq}".encode()
    return zlib.crc32(blob) & 0xFFFFFFFF


def verify_crc(req: CoalescedRequest, crc: int, seq: int = 0) -> bool:
    return packet_crc(req, seq) == crc
