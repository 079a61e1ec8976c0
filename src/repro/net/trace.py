"""Trace persistence: save and replay packet traces as CSV.

The paper replays fixed pktgen traces; persisting ours makes every
measurement replayable byte-for-byte across machines and lets users
bring their own traces (one packet per row: the 5-tuple, frame size,
timestamp).

One reader and one writer, both streaming: :func:`iter_trace` yields
packets one row at a time and :func:`dump_trace` writes any iterable,
so replaying or writing a multi-gigabyte trace holds O(1) packets in
memory.  The reader feeds :meth:`XdpPipeline.run` and
:meth:`RssDispatcher.run` directly (both accept arbitrary iterables);
``list(iter_trace(path))`` materializes a small trace.  Malformed rows
raise a line-numbered :class:`ValueError`.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Union

from .packet import Packet

FIELDS = ("src_ip", "dst_ip", "src_port", "dst_port", "proto", "size",
          "timestamp_ns")


def _parse_row(row: List[str], line_no: int) -> Packet:
    """One CSV row -> :class:`Packet`, with a line-numbered error."""
    if len(row) != len(FIELDS):
        raise ValueError(f"line {line_no}: expected {len(FIELDS)} fields")
    try:
        values = [int(v) for v in row]
    except ValueError as exc:
        raise ValueError(f"line {line_no}: {exc}") from None
    return Packet(*values)


def _check_header(reader) -> None:
    header = next(reader, None)
    if header is None or tuple(header) != FIELDS:
        raise ValueError(
            f"not a trace file: expected header {','.join(FIELDS)}"
        )


def dump_trace(trace: Iterable[Packet], path: Union[str, Path]) -> int:
    """Write ``trace`` (any iterable) to a CSV file; returns the count."""
    with open(path, "w", newline="") as fh:
        return dump_trace_file(trace, fh)


def dump_trace_file(trace: Iterable[Packet], fh: IO[str]) -> int:
    writer = csv.writer(fh)
    writer.writerow(FIELDS)
    count = 0
    for pkt in trace:
        writer.writerow(
            (pkt.src_ip, pkt.dst_ip, pkt.src_port, pkt.dst_port, pkt.proto,
             pkt.size, pkt.timestamp_ns)
        )
        count += 1
    return count


def iter_trace(path: Union[str, Path]) -> Iterator[Packet]:
    """Stream a CSV trace from disk one packet at a time.

    A generator: the file is opened lazily on first iteration and
    closed when the generator is exhausted or garbage-collected, so an
    arbitrarily large trace replays with O(1) packets resident.
    """
    with open(path, newline="") as fh:
        for pkt in iter_trace_file(fh):
            yield pkt


def iter_trace_file(fh: IO[str]) -> Iterator[Packet]:
    """Stream packets from an open trace file object."""
    reader = csv.reader(fh)
    _check_header(reader)
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        yield _parse_row(row, line_no)


def dumps_trace(trace: Iterable[Packet]) -> str:
    """Trace as a CSV string (for tests and embedding)."""
    buf = io.StringIO()
    dump_trace_file(trace, buf)
    return buf.getvalue()


def iter_trace_str(text: str) -> Iterator[Packet]:
    """Stream packets from a CSV string (see :func:`dumps_trace`)."""
    return iter_trace_file(io.StringIO(text))
