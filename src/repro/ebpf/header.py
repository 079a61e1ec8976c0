"""The packet-header layout IR programs read through ``ctx->data``.

A frame handed to a program starts with the parsed packet's fields as
little-endian u64s, one after another; the rest of the frame is zero
payload.  This table is the one definition of that layout: the
interpreter's encoder (:func:`repro.net.irnf.encode_packet`), the
``PKT_*`` offsets programs are written against, and the fused chain's
encoder and header-load forwarding (:mod:`repro.ebpf.fuse`) all derive
from it.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Tuple

from .vm import MASK64

#: (``Packet`` attribute, byte offset) of each encoded u64 field.
HEADER_FIELDS: Tuple[Tuple[str, int], ...] = tuple(
    (name, 8 * i)
    for i, name in enumerate(
        (
            "src_ip",
            "dst_ip",
            "src_port",
            "dst_port",
            "proto",
            "size",
            "timestamp_ns",
        )
    )
)
HEADER_OFFSET: Dict[str, int] = dict(HEADER_FIELDS)
HEADER_BYTES = 8 * len(HEADER_FIELDS)
HEADER_STRUCT = struct.Struct("<%dQ" % len(HEADER_FIELDS))

#: ``Packet`` range-checks every other field to fit a u64; timestamps
#: may be negative or past 2**64, so they are encoded modulo 2**64.
WRAPPED_FIELD = "timestamp_ns"

PKT_SRC_IP = HEADER_OFFSET["src_ip"]
PKT_DST_IP = HEADER_OFFSET["dst_ip"]
PKT_SRC_PORT = HEADER_OFFSET["src_port"]
PKT_DST_PORT = HEADER_OFFSET["dst_port"]
PKT_PROTO = HEADER_OFFSET["proto"]
PKT_SIZE = HEADER_OFFSET["size"]
PKT_TIMESTAMP = HEADER_OFFSET["timestamp_ns"]


def pack_header(buf: bytearray, pkt: Any) -> None:
    """Write ``pkt``'s header into ``buf[:HEADER_BYTES]``."""
    HEADER_STRUCT.pack_into(
        buf,
        0,
        *(
            getattr(pkt, name) & MASK64 if name == WRAPPED_FIELD
            else getattr(pkt, name)
            for name, _ in HEADER_FIELDS
        ),
    )
