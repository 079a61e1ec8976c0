"""Packet model.

The evaluation traffic is pktgen-style randomly generated 64-byte UDP
packets; an NF's view of a packet is its parsed 5-tuple plus metadata.
``key_int`` packs the 5-tuple into one integer (the form every hash in
the library consumes).
"""

from __future__ import annotations

from dataclasses import dataclass

PROTO_TCP = 6
PROTO_UDP = 17

MIN_FRAME_BYTES = 64


@dataclass(frozen=True)
class Packet:
    """One parsed packet: 5-tuple, frame size, arrival timestamp."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    proto: int = PROTO_UDP
    size: int = MIN_FRAME_BYTES
    timestamp_ns: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.src_ip <= 0xFFFFFFFF or not 0 <= self.dst_ip <= 0xFFFFFFFF:
            raise ValueError("IPv4 addresses must be 32-bit")
        if not 0 <= self.src_port <= 0xFFFF or not 0 <= self.dst_port <= 0xFFFF:
            raise ValueError("ports must be 16-bit")
        if not 0 <= self.proto <= 0xFF:
            raise ValueError("protocol must be 8-bit")
        if self.size < MIN_FRAME_BYTES:
            raise ValueError(f"frame size below minimum ({MIN_FRAME_BYTES}B)")

    @property
    def five_tuple(self):
        return (self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.proto)

    @property
    def key_int(self) -> int:
        """The 5-tuple packed into a 104-bit integer (hash input)."""
        return (
            self.src_ip
            | self.dst_ip << 32
            | self.src_port << 64
            | self.dst_port << 80
            | self.proto << 96
        )

    @property
    def flow_key(self) -> int:
        """Alias of :attr:`key_int` — identifies the packet's flow."""
        return self.key_int

    def with_timestamp(self, ts_ns: int) -> "Packet":
        return Packet(
            self.src_ip,
            self.dst_ip,
            self.src_port,
            self.dst_port,
            self.proto,
            self.size,
            ts_ns,
        )


class XdpAction:
    """XDP verdicts an NF can return."""

    DROP = "XDP_DROP"
    PASS = "XDP_PASS"
    TX = "XDP_TX"
    ABORTED = "XDP_ABORTED"
    REDIRECT = "XDP_REDIRECT"

    ALL = (DROP, PASS, TX, ABORTED, REDIRECT)
