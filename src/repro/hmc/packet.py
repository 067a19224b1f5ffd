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
from typing import Optional

from repro.core.packet import CoalescedRequest
from repro.core.request import RequestType

from .config import HMCConfig


class HMCCommand(enum.Enum):
    """Subset of HMC 2.1 request commands the model distinguishes."""

    RD = "read"
    WR = "write"
    ATOMIC = "atomic"

    @classmethod
    def for_request(cls, req: CoalescedRequest) -> "HMCCommand":
        if req.rtype is RequestType.STORE:
            return cls.WR
        if req.rtype is RequestType.ATOMIC:
            return cls.ATOMIC
        return cls.RD


@dataclass(frozen=True, slots=True)
class WirePacket:
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
    """One cube's address map and packet geometry, frozen for :func:`encode`.

    Holds the shifts and masks of :meth:`HMCConfig.vault_of`,
    :meth:`~HMCConfig.bank_of` and :meth:`~HMCConfig.dram_row_of` (the
    reference definitions) as plain ints, plus a per-(size, is_write)
    cache of the FLIT and column counts the config computes.  A device
    builds one at construction and hands it to every :func:`encode`.
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
    #: ``(size, is_write) -> (request_flits, response_flits, columns)``.
    counts: dict = field(default_factory=dict, compare=False, repr=False)

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
        )


def encode(
    req: CoalescedRequest, config: HMCConfig, amap: Optional[AddressMap] = None
) -> WirePacket:
    """Compute the wire footprint of one coalesced request.

    ``amap`` is the cube's frozen :class:`AddressMap`; without one it is
    built from ``config`` for this call.
    """
    if amap is None:
        amap = AddressMap.of(config)
    addr, size, rtype = req.addr, req.size, req.rtype
    if size < amap.min_request_bytes and rtype is not RequestType.ATOMIC:
        # HMC accepts 16 B as its smallest transaction; the MAC's bypass
        # packets are exactly that.
        if size != amap.flit_bytes:
            raise ValueError(f"unsupported request size {size}")
    if size > amap.max_request_bytes:
        raise ValueError(
            f"request of {size} B exceeds protocol max {amap.max_request_bytes} B"
        )
    if addr % amap.flit_bytes:
        raise ValueError("requests must be FLIT aligned")
    if (addr & (amap.row_bytes - 1)) + size > amap.row_bytes:
        raise ValueError("request crosses a DRAM row boundary")
    cmd = HMCCommand.for_request(req)
    is_write = cmd is HMCCommand.WR
    counts = amap.counts.get((size, is_write))
    if counts is None:
        counts = amap.counts[size, is_write] = (
            config.request_flits(size, is_write),
            config.response_flits(size, is_write),
            config.columns(size),
        )
    row = addr >> amap.row_shift
    vb = amap.vault_bits
    upper = addr >> amap.bank_shift
    return WirePacket(
        command=cmd,
        payload_bytes=size,
        request_flits=counts[0],
        response_flits=counts[1],
        vault=(row ^ (row >> vb) ^ (row >> (2 * vb))) & amap.vault_mask,
        bank=(upper ^ (upper >> amap.bank_bits)) & amap.bank_mask,
        dram_row=addr >> amap.dram_row_shift,
        columns=counts[2],
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
