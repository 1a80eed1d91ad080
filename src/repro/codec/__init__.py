"""Certificate wire codec: bit-level I/O and the versioned label format.

The reproduction's size claims are only as honest as the bytes behind
them.  This package materializes every
:class:`~repro.core.certificates.Theorem1Label` as an actual bit string:

* :mod:`repro.codec.bitio` — MSB-first :class:`BitWriter` /
  :class:`BitReader` primitives;
* :mod:`repro.codec.wire` — the versioned wire format (v1): a shared
  :class:`WireHeader` per labeling plus per-edge encodings, and the
  per-label reference writer (:func:`encode_label`,
  :func:`encode_labeling`) that tests use as the byte-identity oracle;
  the measured bit counts feed
  :class:`~repro.api.results.CertificationReport`;
* :mod:`repro.codec.table` — :class:`RecordTable`, every label field
  interned once into integer columns; the prover and the decoder write
  it, a walk fills it from label objects, and the encoder, the
  vectorized round compiler and the size accounting read it, while
  :meth:`RecordTable.materialize` is the one place label objects are
  built from it;
* :mod:`repro.codec.columnar` — :func:`encode_table` behind
  :func:`encode_labeling_columnar`, the one encoder the library runs,
  byte-identical to the reference writer, and
  :func:`decode_labeling_columnar`, the one decoder, which reads an
  encoded labeling straight into a :class:`RecordTable`
  (``decode_labeling_columnar(encode_table(t, h)).materialize()`` is
  ``t.materialize()``, a tier-1 property test).

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
    encode_label,
    encode_labeling,
    labeling_digest,
)
from repro.codec.table import RecordTable
from repro.codec.columnar import (
    decode_labeling_columnar,
    encode_labeling_columnar,
    encode_table,
)

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
    "encode_labeling",
    "labeling_digest",
    "RecordTable",
    "decode_labeling_columnar",
    "encode_labeling_columnar",
    "encode_table",
]
