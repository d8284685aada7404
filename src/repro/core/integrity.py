"""End-to-end integrity primitives (checksums and digests).

Commodity clusters are built from cheap NICs and non-ECC memory whose
signature failure mode is *silent* corruption: a flipped bit in a frame,
a checkpoint image, or a committed page arrives without any error
signal.  The fault-tolerant runtime already knows how to survive *loss*
(sequence numbers, acks, retransmits) — so the integrity layer's whole
job is to convert silent corruption into detected loss:

* :func:`payload_checksum` — a CRC32 over the canonical encoding of an
  envelope (:func:`canonical_encoding`).  Senders stamp it onto every
  :class:`~repro.core.messages.Frame` (``SystemConfig.integrity``);
  receivers verify and *drop* mismatching frames, letting the
  retransmit machinery re-deliver the intact original.
* :func:`page_digest` / :func:`space_digest` — order-independent
  digests of the *present* words of a page / a whole address space.
  Epoch checkpoints and standby folds carry them so corrupted durable
  state is detected before it is ever served; the commit unit's
  page-digest table and the scrub process compare committed memory
  against them periodically.

The encoding is structural (type-tagged bytes, not ``repr``) so the
same logical payload digests identically across processes and runs —
a requirement for the pinned golden digests.  Its wire format:

========================  ==========================================
value                     bytes
========================  ==========================================
``None``                  ``n``
``True`` / ``False``      ``T`` / ``F``
int                       ``i<decimal>;``
float                     ``f<repr>;``
str                       ``s<utf-8 length>:<utf-8 bytes>``
bytes / bytearray         ``b<length>:<bytes>``
tuple / list              ``(`` items ``)`` (NamedTuples included)
dict                      ``{`` key, value in sorted key order ``}``
``Page``                  ``P<number>[`` index, value per present
                          word ``]``
anything else             ``?<class name>;`` (never ``repr``: ids are
                          not stable across processes)
========================  ==========================================

The encoder dispatches on the exact type of the values that dominate
real traffic (ints, strings, tuples, :class:`~repro.memory.page.Page`
words, scanned straight off the present mask) and falls back to
``isinstance`` checks for the rest.  Everything here is pure
computation over plain values: zero-cost when ``integrity`` is off
because nothing calls it.
"""

from __future__ import annotations

import zlib
from typing import Any

from repro.memory.page import Page

__all__ = [
    "CHECKSUM_BYTES",
    "canonical_encoding",
    "payload_checksum",
    "page_digest",
    "space_digest",
]

#: Simulated wire cost of one frame checksum (CRC32: 4 bytes).
CHECKSUM_BYTES = 4


#: Encodings of the small non-negative ints (tids, epochs, counters)
#: that fill envelope headers, so the sequence fast path skips the
#: decimal conversion for them.
_SMALL_INTS = tuple(b"i%d;" % i for i in range(256))


def _encode(obj: Any, parts: list) -> None:
    """Append the canonical encoding of ``obj`` to ``parts``.

    The general case: :func:`_encode_sequence` and :func:`_encode_page`
    handle the common item types inline and come here for the rest.
    """
    if isinstance(obj, (tuple, list)):
        # No tuple or list subclass can also be an int, float, str or
        # bytes, so taking sequences before those checks is exact.
        _encode_sequence(obj, parts)
    elif obj is None:
        parts.append(b"n")
    elif obj is True:
        parts.append(b"T")
    elif obj is False:
        parts.append(b"F")
    elif isinstance(obj, int):
        parts.append(b"i%d;" % obj)
    elif isinstance(obj, float):
        parts.append(b"f" + repr(obj).encode("ascii") + b";")
    elif isinstance(obj, str):
        encoded = obj.encode("utf-8")
        parts.append(b"s%d:" % len(encoded))
        parts.append(encoded)
    elif isinstance(obj, (bytes, bytearray)):
        parts.append(b"b%d:" % len(obj))
        parts.append(bytes(obj))
    elif isinstance(obj, dict):
        parts.append(b"{")
        for key in sorted(obj):
            _encode(key, parts)
            _encode(obj[key], parts)
        parts.append(b"}")
    elif isinstance(obj, Page):
        _encode_page(obj, parts)
    else:
        parts.append(b"?" + type(obj).__name__.encode("ascii") + b";")


def _encode_sequence(items, parts: list) -> None:
    """``(`` items ``)``, with the common item types handled inline."""
    append = parts.append
    append(b"(")
    for item in items:
        kind = type(item)
        if kind is int:
            append(_SMALL_INTS[item] if 0 <= item < 256 else b"i%d;" % item)
        elif kind is str:
            data = item.encode()
            append(b"s%d:%b" % (len(data), data))
        elif kind is tuple:
            _encode_sequence(item, parts)
        elif item is None:
            append(b"n")
        elif kind is Page:
            _encode_page(item, parts)
        else:
            _encode(item, parts)
    append(b")")


def _encode_page(page: Page, parts: list) -> None:
    """A page's identity and present words, scanned off its mask
    (versions are local bookkeeping)."""
    append = parts.append
    append(b"P%d[" % page.number)
    words = page.words
    mask = page.present_mask
    while mask:
        low = mask & -mask
        index = low.bit_length() - 1
        mask ^= low
        value = words[index]
        if type(value) is int:
            append(b"i%d;i%d;" % (index, value))
        else:
            append(b"i%d;" % index)
            _encode(value, parts)
    append(b"]")


def canonical_encoding(payload: Any) -> bytes:
    """The canonical, type-tagged byte encoding of ``payload``."""
    parts: list = []
    if isinstance(payload, tuple):  # every envelope is a NamedTuple
        _encode_sequence(payload, parts)
    else:
        _encode(payload, parts)
    return b"".join(parts)


def payload_checksum(payload: Any) -> int:
    """CRC32 of the canonical encoding of ``payload``."""
    return zlib.crc32(canonical_encoding(payload))


def page_digest(page: Page) -> int:
    """CRC32 over one page's present ``(index, value)`` words."""
    if not page.present_mask:
        # Scrub sweeps audit every master page, most of them empty.
        return zlib.crc32(b"P%d[]" % page.number)
    parts: list = []
    _encode_page(page, parts)
    return zlib.crc32(b"".join(parts))


def space_digest(space: Any) -> int:
    """CRC32 over every present word of ``space``, page-number order.

    Depends only on logical content — page versions, dirty masks, and
    installation history are excluded — so a standby image folded from
    the replication stream digests identically to the primary master it
    mirrors.
    """
    parts: list = []
    for page in space.iter_pages():
        if page.present_mask:
            _encode_page(page, parts)
    return zlib.crc32(b"".join(parts))
