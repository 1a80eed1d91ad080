"""Certificate wire codec: bit-level I/O and the versioned label format.

The reproduction's size claims are only as honest as the bytes behind
them.  This package materializes every
:class:`~repro.core.certificates.Theorem1Label` as an actual bit string:

* :mod:`repro.codec.bitio` — MSB-first :class:`BitWriter` /
  :class:`BitReader` primitives;
* :mod:`repro.codec.wire` — the versioned wire format (v1): a shared
  :class:`WireHeader` per labeling plus per-edge encodings, with
  ``decode(encode(label)) == label`` guaranteed by tier-1 property
  tests and the measured bit counts feeding
  :class:`~repro.api.results.CertificationReport`.  It holds the one
  decoder (:meth:`EncodedLabeling.decode`, :func:`decode_label`), which
  interns structure shared across edges, and the per-label reference
  writer (:func:`encode_label`, :func:`encode_labeling`) that tests
  use as the byte-identity oracle;
* :mod:`repro.codec.table` — :class:`RecordTable`, one walk that
  interns every label field once into integer columns; the encoder and
  the vectorized round compiler both read it;
* :mod:`repro.codec.columnar` — :func:`encode_table` behind
  :func:`encode_labeling_columnar`, the one encoder the library runs:
  it packs a table's columns, byte-identical to the reference writer.

The byte-level layout is specified in ``docs/FORMAT.md``; persistence of
encoded labelings lives in :class:`repro.api.store.CertificateStore`.
"""

from repro.codec.bitio import (
    BitReader,
    BitStreamError,
    BitWriter,
    width_for,
    width_for_value,
)
from repro.codec.wire import (
    WIRE_VERSION,
    CodecError,
    EncodedLabel,
    EncodedLabeling,
    WireHeader,
    decode_label,
    decode_labeling_columnar,
    encode_label,
    encode_labeling,
    labeling_digest,
)
from repro.codec.table import RecordTable
from repro.codec.columnar import encode_labeling_columnar, encode_table

__all__ = [
    "BitReader",
    "BitWriter",
    "BitStreamError",
    "width_for",
    "width_for_value",
    "WIRE_VERSION",
    "CodecError",
    "WireHeader",
    "EncodedLabel",
    "EncodedLabeling",
    "encode_label",
    "decode_label",
    "encode_labeling",
    "labeling_digest",
    "RecordTable",
    "decode_labeling_columnar",
    "encode_labeling_columnar",
    "encode_table",
]
