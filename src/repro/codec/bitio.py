"""MSB-first bit-level I/O for the certificate wire format.

:class:`BitWriter` packs fixed-width unsigned fields into a byte string;
:class:`BitReader` unpacks them in the same order.  Fields are written
most-significant-bit first, so the byte stream is a straight left-to-right
transcription of the format diagrams in ``docs/FORMAT.md``: the first
field written occupies the highest bits of the first byte.

The writer tracks the exact number of *semantic* bits
(:attr:`BitWriter.bit_length`) separately from the zero-padded byte
output of :meth:`BitWriter.to_bytes` — the measured certificate size the
reports quote is the former, never the padding.
"""

from __future__ import annotations


class BitStreamError(ValueError):
    """Raised on malformed writes (value overflow) or truncated reads."""


class BitWriter:
    """Accumulates fixed-width unsigned integers into a bit stream."""

    def __init__(self):
        self._bytes = bytearray()
        self._acc = 0  # bits not yet flushed to _bytes
        self._acc_bits = 0

    @property
    def bit_length(self) -> int:
        """Exact number of bits written so far (excludes padding)."""
        return 8 * len(self._bytes) + self._acc_bits

    def write(self, value: int, width: int) -> None:
        """Append ``value`` as a ``width``-bit big-endian field."""
        if width < 0:
            raise BitStreamError("field width must be non-negative")
        if value < 0 or value >> width:
            raise BitStreamError(
                f"value {value} does not fit in {width} bits"
            )
        acc = (self._acc << width) | value
        bits = self._acc_bits + width
        # Drain whole bytes in one C-level conversion: a wide field
        # would otherwise pay a quadratic python shift loop.
        whole, rest = bits >> 3, bits & 7
        if whole:
            self._bytes += (acc >> rest).to_bytes(whole, "big")
            acc &= (1 << rest) - 1
        self._acc = acc
        self._acc_bits = rest

    def to_bytes(self) -> bytes:
        """Return the stream, zero-padded up to the next byte boundary."""
        out = bytes(self._bytes)
        if self._acc_bits:
            out += bytes([(self._acc << (8 - self._acc_bits)) & 0xFF])
        return out


class BitReader:
    """Reads fixed-width unsigned integers back out of a bit stream.

    The stream is held as one Python integer, so a field of any width is
    one shift and one mask.
    """

    def __init__(self, data: bytes, bit_length: int = None):
        """``bit_length`` bounds the readable bits (default: all of
        ``data``); reads past it raise :class:`BitStreamError` instead of
        silently consuming padding."""
        self._bits = 8 * len(data)
        self._value = int.from_bytes(data, "big")
        self._limit = self._bits if bit_length is None else bit_length
        if self._limit > self._bits:
            raise BitStreamError("bit_length exceeds the supplied data")
        self._pos = 0

    @property
    def position(self) -> int:
        """Bits consumed so far."""
        return self._pos

    @property
    def remaining(self) -> int:
        """Readable bits left before the stream (or limit) ends."""
        return self._limit - self._pos

    def read(self, width: int) -> int:
        """Consume and return the next ``width``-bit unsigned field."""
        if width < 0:
            raise BitStreamError("field width must be non-negative")
        pos = self._pos + width
        if pos > self._limit:
            raise BitStreamError(
                f"truncated stream: need {width} bits, have {self.remaining}"
            )
        self._pos = pos
        return (self._value >> (self._bits - pos)) & ((1 << width) - 1)


def width_for(count: int) -> int:
    """Field width needed to index ``count`` distinct values (min 1)."""
    if count < 0:
        raise BitStreamError("count must be non-negative")
    return max(1, (max(count, 2) - 1).bit_length())


def width_for_value(value: int) -> int:
    """Field width needed to store values ``0..value`` (min 1)."""
    if value < 0:
        raise BitStreamError("value must be non-negative")
    return max(1, value.bit_length())
