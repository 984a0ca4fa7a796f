"""Bit-level helpers shared by the SRAM functional model and tests.

The bit-serial arrays store integers *vertically*: bit ``b`` of element ``i``
lives at wordline ``base + b`` and bitline ``i``. These helpers convert
between NumPy integer vectors and LSB-first bit matrices (shape
``(nbits, nelems)``, dtype uint8, values 0/1).
"""

from __future__ import annotations

import numpy as np


def int_to_bits(values: np.ndarray, nbits: int) -> np.ndarray:
    """Convert a 1-D vector of non-negative ints to an LSB-first bit matrix.

    Returns an array of shape ``(nbits, len(values))`` where row ``b`` holds
    bit ``b`` (LSB = row 0) of every element. Values are masked to ``nbits``
    (the hardware simply ignores bits that do not fit in the allocated rows).
    """
    values = np.asarray(values, dtype=np.int64)
    if values.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {values.shape}")
    if nbits <= 0:
        raise ValueError(f"nbits must be positive, got {nbits}")
    if np.any(values < 0):
        raise ValueError("int_to_bits only handles non-negative values; "
                         "encode signed data in two's complement first")
    shifts = np.arange(nbits, dtype=np.int64)[:, None]
    return ((values[None, :] >> shifts) & 1).astype(np.uint8)


def bits_to_int(bits: np.ndarray) -> np.ndarray:
    """Convert an LSB-first bit matrix back to a vector of ints (int64)."""
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError(f"expected a 2-D bit matrix, got shape {bits.shape}")
    nbits = bits.shape[0]
    weights = (np.int64(1) << np.arange(nbits, dtype=np.int64))[:, None]
    return (bits.astype(np.int64) * weights).sum(axis=0)


def int_to_bitplanes(values: np.ndarray, nbits: int) -> np.ndarray:
    """Convert an ``(n, cols)`` matrix of non-negative ints to bit planes.

    Returns ``(n, nbits, cols)`` uint8 where ``[:, b, :]`` holds bit ``b``
    (LSB = plane 0) of every element — the fleet-wide analogue of
    :func:`int_to_bits`. Values are masked to ``nbits``.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {values.shape}")
    if nbits <= 0:
        raise ValueError(f"nbits must be positive, got {nbits}")
    if values.dtype == np.uint8 and nbits <= 8:
        # Byte planes straight from uint8 tensors (the bulk-load hot
        # path): no int64 round-trip, no sign scan.
        shifts = np.arange(nbits, dtype=np.uint8)[None, :, None]
        return (values[:, None, :] >> shifts) & np.uint8(1)
    values = values.astype(np.int64, copy=False)
    if np.any(values < 0):
        raise ValueError("int_to_bitplanes only handles non-negative values; "
                         "encode signed data in two's complement first")
    if nbits <= 8:
        # Byte-wide fields (activation/filter planes, the bulk-load hot
        # path): extract bits in uint8 so the (n, nbits, cols)
        # intermediate is 8x smaller than the int64 general case.
        compact = (values & ((1 << nbits) - 1)).astype(np.uint8)
        shifts = np.arange(nbits, dtype=np.uint8)[None, :, None]
        return (compact[:, None, :] >> shifts) & np.uint8(1)
    # Wider fields: unpack the int64 little-endian byte view at C speed
    # instead of materialising an (n, nbits, cols) int64 shift product.
    as_bytes = np.ascontiguousarray(
        values.astype("<i8", copy=False)).view(np.uint8)
    bits = np.unpackbits(as_bytes.reshape(*values.shape, 8), axis=-1,
                         bitorder="little")[..., :nbits]
    if nbits > 64:
        # Planes past the 64-bit host currency are zero, not missing.
        bits = np.concatenate(
            [bits, np.zeros((*values.shape, nbits - 64), dtype=np.uint8)],
            axis=-1)
    return bits.transpose(0, 2, 1)


def bitplanes_to_int(bits: np.ndarray) -> np.ndarray:
    """Convert ``(n, nbits, cols)`` LSB-first bit planes back to ints.

    The bit planes are packed to byte planes at C speed and the (at most
    eight) byte planes combined in int64 — the host unpack boundary for
    fleet read-backs, so it must not materialise an ``(n, nbits, cols)``
    int64 intermediate as the naive weighted sum would.
    """
    bits = np.asarray(bits)
    if bits.ndim != 3:
        raise ValueError(f"expected a 3-D bit tensor, got shape {bits.shape}")
    n, nbits, cols = bits.shape
    if nbits > 64:
        raise ValueError(f"bit planes wider than 64 bits ({nbits}) do not "
                         f"fit the int64 host currency")
    packed = np.packbits(bits, axis=1, bitorder="little")
    out = np.zeros((n, cols), dtype=np.int64)
    for k in range(packed.shape[1]):
        out |= packed[:, k, :].astype(np.int64) << (8 * k)
    return out


#: Bits per machine word of the packed bit-plane store.
WORD_BITS = 64


def packed_words(cols: int) -> int:
    """Words needed to hold ``cols`` bit-columns (``ceil(cols / 64)``)."""
    if cols <= 0:
        raise ValueError(f"cols must be positive, got {cols}")
    return ceil_div(cols, WORD_BITS)


def pack_bit_plane(bits: np.ndarray, n_words: int | None = None) -> np.ndarray:
    """Pack 0/1 bit columns into uint64 words along the last axis.

    ``bits`` is ``(..., cols)`` with values 0/1; the result is
    ``(..., n_words)`` uint64 where column ``c`` lives at bit ``c % 64``
    (LSB-first) of word ``c // 64``. Tail bits beyond ``cols`` are zero.
    This is the host<->packed-store boundary conversion; the packed store
    itself only ever operates on whole words.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    cols = bits.shape[-1]
    if n_words is None:
        n_words = packed_words(cols)
    if n_words * WORD_BITS < cols:
        raise ValueError(
            f"{n_words} words cannot hold {cols} bit columns")
    as_bytes = np.packbits(bits, axis=-1, bitorder="little")
    pad = n_words * (WORD_BITS // 8) - as_bytes.shape[-1]
    if pad:
        as_bytes = np.concatenate(
            [as_bytes, np.zeros((*as_bytes.shape[:-1], pad), dtype=np.uint8)],
            axis=-1)
    # '<u8' reads byte 0 as the least-significant byte on any host, so the
    # LSB-first column order survives regardless of platform endianness.
    words = np.ascontiguousarray(as_bytes).view("<u8")
    return words.astype(np.uint64, copy=False)


def unpack_bit_plane(words: np.ndarray, cols: int) -> np.ndarray:
    """Unpack uint64 words back into ``(..., cols)`` 0/1 uint8 columns.

    Inverse of :func:`pack_bit_plane` for the first ``cols`` bits.
    """
    if cols <= 0:
        raise ValueError(f"cols must be positive, got {cols}")
    words = np.asarray(words)
    if words.shape[-1] * WORD_BITS < cols:
        raise ValueError(
            f"{words.shape[-1]} words hold fewer than {cols} bit columns")
    as_bytes = np.ascontiguousarray(
        words.astype("<u8", copy=False)).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[..., :cols]


#: Delta-swap steps of the 8x8 bit-matrix transpose on one uint64 (byte
#: ``i`` is row ``i``, bit ``j`` of it column ``j``): swap 1x1, then 2x2,
#: then 4x4 blocks across the diagonal.
_TRANSPOSE8_STEPS = tuple(
    (np.uint64(shift), np.uint64(mask)) for shift, mask in (
        (7, 0x00AA00AA00AA00AA),
        (14, 0x0000CCCC0000CCCC),
        (28, 0x00000000F0F0F0F0)))


def transpose8(x: np.ndarray) -> np.ndarray:
    """Transpose the 8x8 bit matrix held in every uint64 of ``x``, in place.

    Byte ``i`` of a word is matrix row ``i`` and bit ``j`` of that byte is
    column ``j``; afterwards bit ``j`` of byte ``i`` holds what bit ``i``
    of byte ``j`` held. Three SWAR delta swaps per word, the software
    analogue of the Transpose Memory Unit turning byte-wide data
    bit-serial. Returns ``x``.
    """
    t = np.empty_like(x)
    for shift, mask in _TRANSPOSE8_STEPS:
        np.right_shift(x, shift, out=t)
        t ^= x
        t &= mask
        x ^= t
        t <<= shift
        x ^= t
    return x


def pack_value_planes(values: np.ndarray, nbits: int,
                      n_words: int) -> np.ndarray:
    """Non-negative ints ``(..., cols)`` -> packed bit planes, word-native.

    Returns ``(..., nbits, n_words)`` uint64 where plane ``b`` holds bit
    ``b`` (LSB = plane 0) of every element, packed as
    :func:`pack_bit_plane` packs columns. Equal to
    ``pack_bit_plane(int_to_bitplanes(values, nbits), n_words)`` without
    the byte-per-bit intermediate: each byte of the field width goes
    through one :func:`transpose8` over groups of eight columns. Values
    are masked to ``nbits``; bits past ``cols`` are zero.
    """
    values = np.asarray(values)
    if nbits <= 0:
        raise ValueError(f"nbits must be positive, got {nbits}")
    cols = values.shape[-1]
    if n_words * WORD_BITS < cols:
        raise ValueError(f"{n_words} words cannot hold {cols} bit columns")
    lead = values.shape[:-1]
    if values.dtype == np.uint8 and nbits <= 8:
        n_bytes = 1
    else:
        values = values.astype(np.int64, copy=False)
        if np.any(values < 0):
            raise ValueError("pack_value_planes only handles non-negative "
                             "values; encode signed data in two's "
                             "complement first")
        n_bytes = min(ceil_div(nbits, 8), 8)
    # Zero-pad to whole words (this also makes the buffer contiguous).
    buf = np.zeros((*lead, n_words * WORD_BITS), dtype=values.dtype)
    buf[..., :cols] = values
    n_groups = n_words * 8
    as_bytes = buf.view(np.uint8).reshape(
        *lead, n_groups, 8, values.dtype.itemsize)[..., :n_bytes]
    # (..., byte k, group g, column-in-group i): word (k, g) is an 8x8
    # matrix whose row i is byte k of column 8g + i.
    grouped = np.ascontiguousarray(np.moveaxis(as_bytes, -1, -3))
    transpose8(grouped.view("<u8"))
    # Row j of the transposed word is plane 8k + j over the eight columns
    # of group g; eight consecutive groups make one packed word.
    planes = np.ascontiguousarray(np.swapaxes(
        grouped.reshape(*lead, n_bytes, n_groups, 8), -1, -2))
    words = planes.view("<u8").reshape(*lead, n_bytes * 8, n_words)
    if nbits <= n_bytes * 8:
        return words[..., :nbits, :].astype(np.uint64, copy=False)
    # Planes past the 64-bit host currency are zero.
    out = np.zeros((*lead, nbits, n_words), dtype=np.uint64)
    out[..., :n_bytes * 8, :] = words
    return out


def unpack_value_planes(words: np.ndarray, cols: int) -> np.ndarray:
    """Packed bit planes ``(..., nbits, n_words)`` -> int64 ``(..., cols)``.

    Inverse of :func:`pack_value_planes`, equal to
    ``bitplanes_to_int(unpack_bit_plane(words, cols))`` without the
    byte-per-bit intermediate.
    """
    words = np.asarray(words)
    if words.ndim < 2:
        raise ValueError(f"expected (..., nbits, n_words) planes, got "
                         f"shape {words.shape}")
    *lead, nbits, n_words = words.shape
    if nbits > 64:
        raise ValueError(f"bit planes wider than 64 bits ({nbits}) do not "
                         f"fit the int64 host currency")
    if cols <= 0 or n_words * WORD_BITS < cols:
        raise ValueError(f"{n_words} words cannot hold {cols} bit columns")
    n_bytes = ceil_div(nbits, 8)
    n_groups = n_words * 8
    planes = np.zeros((*lead, n_bytes * 8, n_words), dtype="<u8")
    planes[..., :nbits, :] = words
    # (..., byte k, plane-in-byte j, group g) -> words (k, g) whose row j
    # is plane 8k + j over the eight columns of group g.
    grouped = np.ascontiguousarray(np.swapaxes(
        planes.view(np.uint8).reshape(*lead, n_bytes, 8, n_groups), -1, -2))
    transpose8(grouped.view("<u8"))
    # Row i of the transposed word is byte k of column 8g + i.
    col_bytes = np.moveaxis(
        grouped.reshape(*lead, n_bytes, n_groups * 8), -2, -1)[..., :cols, :]
    out = np.zeros((*lead, cols, 8), dtype=np.uint8)
    out[..., :n_bytes] = col_bytes
    return out.view("<i8")[..., 0].astype(np.int64, copy=False)


def to_twos_complement(values: np.ndarray, nbits: int) -> np.ndarray:
    """Encode (possibly negative) ints into ``nbits``-wide two's complement."""
    values = np.asarray(values, dtype=np.int64)
    mask = (np.int64(1) << nbits) - 1
    return values & mask


def from_twos_complement(values: np.ndarray, nbits: int) -> np.ndarray:
    """Decode ``nbits``-wide two's complement back into signed ints."""
    values = np.asarray(values, dtype=np.int64)
    sign_bit = np.int64(1) << (nbits - 1)
    mask = (np.int64(1) << nbits) - 1
    values = values & mask
    return np.where(values & sign_bit, values - (np.int64(1) << nbits), values)


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= ``n`` (``n`` must be positive)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return 1 << (n - 1).bit_length()


def is_power_of_two(n: int) -> bool:
    """True when ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division for non-negative ``a`` and positive ``b``."""
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    return -(-a // b)
