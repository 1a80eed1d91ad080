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

:meth:`BitWriter.write_many` is the bulk twin of :meth:`BitWriter.write`:
given parallel value/width sequences it packs every field in one
numpy pass (expand fields to a flat bit array, ``np.packbits``), falling
back to the scalar loop when numpy is unavailable or a field is wider
than an ``int64`` can carry.  Both paths produce identical streams.
"""

from __future__ import annotations

try:  # pragma: no cover - exercised through both branches in CI
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


class BitStreamError(ValueError):
    """Raised on malformed writes (value overflow) or truncated reads."""


_IOTA = None  # grow-only arange cache shared by every _field_bits call


def _iota(total):
    """Return ``arange(total)`` from a grow-only shared buffer."""
    global _IOTA
    if _IOTA is None or _IOTA.shape[0] < total:
        _IOTA = _np.arange(max(total, 1 << 16), dtype=_np.int64)
    return _IOTA[:total]


def _field_bits(values, widths):
    """Flat 0/1 ``uint8`` array of ``values`` expanded MSB-first.

    ``values``/``widths`` are equal-length ``int64`` arrays with every
    width in ``0..63`` and every value non-negative and in range.
    """
    total = int(widths.sum())
    if total == 0:
        return _np.zeros(0, dtype=_np.uint8)
    # Expand all 64 bits of every value once (big-endian, so bit 0 of
    # the expansion is the value's MSB), then gather each field's low
    # ``width`` bits: output bit p of field f at local offset o from the
    # field's MSB is expansion bit 64*f + (64 - widths[f] + o).
    allbits = _np.unpackbits(values.astype(">i8").view(_np.uint8))
    starts = _np.cumsum(widths) - widths
    base = 64 * _iota(values.shape[0]) + 64 - widths - starts
    index = _np.repeat(base, widths) + _iota(total)
    return allbits[index]


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

    def write_many(self, values, widths) -> None:
        """Append many fixed-width fields in one vectorized pass.

        Equivalent to ``for v, w in zip(values, widths): self.write(v, w)``
        but packed through numpy (one bit-expansion + ``np.packbits``
        per call) — the bulk path :class:`repro.codec.columnar
        .ColumnarEncoder` uses to pack a whole labeling at once.  Falls
        back to the scalar loop when numpy is missing, a value exceeds
        ``int64`` range, or a field is wider than 63 bits, so the output
        stream is identical either way.
        """
        if _np is not None:
            try:
                varr = _np.asarray(values, dtype=_np.int64)
                warr = _np.asarray(widths, dtype=_np.int64)
            except (OverflowError, TypeError, ValueError):
                varr = None
            if (
                varr is not None
                and varr.shape == warr.shape
                and varr.ndim == 1
                and (varr.size == 0 or int(warr.max()) <= 63)
                and (varr.size == 0 or int(warr.min()) >= 0)
            ):
                if varr.size and ((varr < 0) | (varr >> warr != 0)).any():
                    bad = int(_np.argmax((varr < 0) | (varr >> warr != 0)))
                    raise BitStreamError(
                        f"value {int(varr[bad])} does not fit in "
                        f"{int(warr[bad])} bits"
                    )
                self._append_bits(_field_bits(varr, warr))
                return
        for value, width in zip(values, widths):
            self.write(value, width)

    def _append_bits(self, bits) -> None:
        """Append a flat 0/1 ``uint8`` bit array to the stream."""
        if bits.size == 0:
            return
        if self._acc_bits:
            prefix = _np.zeros(self._acc_bits, dtype=_np.uint8)
            for index in range(self._acc_bits):
                prefix[self._acc_bits - 1 - index] = (self._acc >> index) & 1
            bits = _np.concatenate([prefix, bits])
        whole = bits.size >> 3
        if whole:
            self._bytes += _np.packbits(bits[: whole * 8]).tobytes()
        acc = 0
        for bit in bits[whole * 8:].tolist():
            acc = (acc << 1) | int(bit)
        self._acc = acc
        self._acc_bits = bits.size & 7

    def to_bytes(self) -> bytes:
        """Return the stream, zero-padded up to the next byte boundary."""
        out = bytes(self._bytes)
        if self._acc_bits:
            out += bytes([(self._acc << (8 - self._acc_bits)) & 0xFF])
        return out


class BitReader:
    """Reads fixed-width unsigned integers back out of a bit stream."""

    def __init__(self, data: bytes, bit_length: int = None):
        """``bit_length`` bounds the readable bits (default: all of
        ``data``); reads past it raise :class:`BitStreamError` instead of
        silently consuming padding."""
        self._data = data
        self._limit = 8 * len(data) if bit_length is None else bit_length
        if self._limit > 8 * len(data):
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
        if self._pos + width > self._limit:
            raise BitStreamError(
                f"truncated stream: need {width} bits, have {self.remaining}"
            )
        value = 0
        pos = self._pos
        need = width
        while need:
            byte = self._data[pos >> 3]
            offset = pos & 7
            take = min(8 - offset, need)
            chunk = (byte >> (8 - offset - take)) & ((1 << take) - 1)
            value = (value << take) | chunk
            pos += take
            need -= take
        self._pos = pos
        return value


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
