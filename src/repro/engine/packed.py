"""Packed-bit plane store: 64 bit-columns per machine word, plane-major.

:class:`ArrayFleet` keeps one uint8 byte per bit — convenient to inspect,
but 8x more memory and 8x less ALU work per NumPy op than the hardware
analogy allows. :class:`PackedArrayFleet` stores the same
``(n_arrays, rows, cols)`` bit tensor as ``(rows, n_arrays, n_words)``
uint64 words (column ``c`` at bit ``c % 64`` of word ``c // 64``,
LSB-first), so every lockstep primitive — two-row sensing as ``a & b`` /
``~a & ~b`` on whole words, tag-gated write-back, column shifts — touches
8x fewer bytes and processes 64 bit-serial lanes per machine word. That is
exactly how bit-level SRAM-compute reproductions get their throughput, and
it drops the resident plane memory 8x for serving-scale fleets.

The word tensor is *plane-major*: one instruction drives the same
wordline in every array of a slice (Sec. III-IV), so wordline ``r`` of the
whole fleet is one contiguous ``(n_arrays, n_words)`` block and
:meth:`PackedArrayFleet.row_plane` is a plain ``_words[r]`` view, not a
strided gather across arrays. Host staging is word-native too:
:meth:`PackedArrayFleet.load_values` / :meth:`~PackedArrayFleet.dump_values`
convert between integers and packed planes with an 8x8 SWAR bit-matrix
transpose (:func:`~repro.common.bits.pack_value_planes`), the software
stand-in for the Transpose Memory Unit, with no byte-per-bit tensor in
between.

The sequencing logic is *not* duplicated here: every primitive lives once
in :class:`~repro.engine.fleet.PlaneStore`, and this module only supplies
the packed storage and the native plane ops (complement, column shift,
host pack/unpack, word-native staging). :class:`PackedFleetPeriphery`
likewise inherits the full-adder logic from
:class:`~repro.engine.fleet.FleetPeriphery` and only re-homes the
carry/tag latches in packed words. Property tests pin the packed store
bit-exact and cycle-exact against the unpacked reference for every
bit-serial sequence, including ragged ``cols % 64 != 0`` geometries where
the tail word is only partially populated.

Invariant: bits at column positions >= ``cols`` (the tail of the last
word) are always zero, in the store, in sensed rails and in the periphery
latches. ``plane_not`` and the rail complements mask the tail,
:meth:`PackedArrayFleet.coerce_plane` rejects externally supplied planes
that violate it, and the staging converters zero-pad the tail.
"""

from __future__ import annotations

import os

import numpy as np

from repro.common.bits import (
    WORD_BITS,
    pack_bit_plane,
    pack_value_planes,
    packed_words,
    unpack_bit_plane,
    unpack_value_planes,
)
from repro.common.errors import ArrayStateError
from repro.engine.fleet import (
    DEFAULT_COLS,
    DEFAULT_ROWS,
    ArrayFleet,
    FleetPeriphery,
    PlaneStore,
)

__all__ = ["PackedArrayFleet", "PackedFleetPeriphery", "make_fleet"]


def _column_mask(cols: int) -> np.ndarray:
    """Per-word active-column mask: all-ones, tail word partially set."""
    n_words = packed_words(cols)
    mask = np.full(n_words, ~np.uint64(0), dtype=np.uint64)
    tail = cols % WORD_BITS
    if tail:
        mask[-1] = np.uint64((1 << tail) - 1)
    mask.flags.writeable = False
    return mask


def _packed_geometry(cols: int) -> tuple[int, np.ndarray, bool]:
    """``(n_words, column mask, has-partial-tail-word)`` for ``cols``."""
    return packed_words(cols), _column_mask(cols), bool(cols % WORD_BITS)


def _coerce_words(owner, plane: np.ndarray, what: str,
                  broadcast: bool = False) -> np.ndarray:
    """Validate a packed plane against ``owner``'s geometry and the
    tail-word invariant. ``owner`` is the fleet or periphery holding
    ``n_arrays``/``n_words``/``_mask``/``_tail_partial`` — the single
    implementation of the invariant check for both."""
    plane = np.asarray(plane)
    if plane.dtype != np.uint64:
        raise ArrayStateError(
            f"{what}s must be uint64 words, got dtype {plane.dtype}")
    if broadcast and plane.shape == (owner.n_words,):
        plane = np.broadcast_to(plane, (owner.n_arrays, owner.n_words))
    if plane.shape != (owner.n_arrays, owner.n_words):
        raise ArrayStateError(
            f"expected ({owner.n_arrays}, {owner.n_words}) packed words, "
            f"got shape {plane.shape}")
    if owner._tail_partial and np.any(plane[..., -1] & ~owner._mask[-1]):
        raise ArrayStateError(f"{what} sets bits beyond the last column")
    return plane


class PackedArrayFleet(PlaneStore):
    """``n_arrays`` lockstep compute arrays on packed uint64 bit planes.

    Same public surface and cycle accounting as :class:`ArrayFleet` (both
    are :class:`PlaneStore` implementations); only the native plane
    currency differs — ``(n_arrays, n_words)`` uint64 words instead of
    ``(n_arrays, cols)`` uint8 bits. The backing tensor is plane-major,
    ``(rows, n_arrays, n_words)``, so each native plane is one contiguous
    block. Host-facing bit methods (``read_row``, ``write_row``,
    ``load_bits``, ``dump_bits``) still speak 0/1 uint8 and convert at the
    boundary; the value staging methods (``load_values``,
    ``dump_values``) convert straight between integers and words.
    """

    def __init__(self, n_arrays: int = 1, rows: int = DEFAULT_ROWS,
                 cols: int = DEFAULT_COLS):
        super().__init__(n_arrays, rows, cols)
        self.n_words, self._mask, self._tail_partial = _packed_geometry(cols)
        self._words = self._alloc_words()

    def _alloc_words(self) -> np.ndarray:
        """The backing ``(rows, n_arrays, n_words)`` word tensor — the
        allocation seam :class:`~repro.engine.shared.SharedPlaneStore`
        re-homes in a shared-memory segment."""
        return np.zeros((self.rows, self.n_arrays, self.n_words),
                        dtype=np.uint64)

    def _row_words(self, top_row: int, n_rows: int) -> np.ndarray:
        """Writable ``(n_rows, n_arrays, n_words)`` view of a row span —
        the one accessor every host-path method goes through."""
        return self._words[top_row:top_row + n_rows]

    # -- plane ops ------------------------------------------------------
    def row_plane(self, row: int) -> np.ndarray:
        return self._words[row]

    def const_plane(self, bit: int):
        # The mask doubles as the all-ones plane (it is read-only).
        return self._mask if bit else np.uint64(0)

    def new_plane(self) -> np.ndarray:
        return np.zeros((self.n_arrays, self.n_words), dtype=np.uint64)

    def plane_not(self, plane: np.ndarray) -> np.ndarray:
        return ~plane & self._mask

    def shift_plane(self, plane: np.ndarray, shift: int) -> np.ndarray:
        """Funnel-shift whole words: column ``c`` receives column
        ``c + shift``, zero-filling past the last populated column."""
        if shift <= 0:
            raise ArrayStateError(f"column shift must be positive, got {shift}")
        q, r = divmod(shift, WORD_BITS)
        out = np.zeros_like(plane)
        n = self.n_words
        if q >= n:
            return out
        if r == 0:
            out[..., :n - q] = plane[..., q:]
        else:
            out[..., :n - q] = plane[..., q:] >> np.uint64(r)
            if q + 1 < n:
                out[..., :n - q - 1] |= (plane[..., q + 1:]
                                         << np.uint64(WORD_BITS - r))
        return out

    def pack_plane(self, bits: np.ndarray) -> np.ndarray:
        return pack_bit_plane(bits, self.n_words)

    def unpack_plane(self, plane: np.ndarray) -> np.ndarray:
        return unpack_bit_plane(plane, self.cols)

    def coerce_plane(self, plane: np.ndarray) -> np.ndarray:
        return _coerce_words(self, plane, "packed plane", broadcast=True)

    def make_periphery(self) -> "PackedFleetPeriphery":
        return PackedFleetPeriphery(self.n_arrays, self.cols)

    def _read_region(self, top_row: int, n_rows: int, col_offset: int,
                     n_cols: int) -> np.ndarray:
        rows = self.unpack_plane(self._row_words(top_row, n_rows))
        return rows.transpose(1, 0, 2)[:, :, col_offset:col_offset + n_cols]

    def _write_region(self, top_row: int, n_rows: int, col_offset: int,
                      bits: np.ndarray) -> None:
        dst = self._row_words(top_row, n_rows)
        bits = bits.transpose(1, 0, 2)
        n_cols = bits.shape[-1]
        if col_offset == 0 and n_cols == self.cols:
            dst[...] = self.pack_plane(bits)
            return
        # Sub-word column range: read-modify-write the affected rows.
        region = self.unpack_plane(dst)
        region[:, :, col_offset:col_offset + n_cols] = bits
        dst[...] = self.pack_plane(region)

    # -- word-native staging (the TMU path) -----------------------------
    def load_values(self, top_row: int, values: np.ndarray,
                    nbits: int) -> None:
        values = self._check_values(top_row, values, nbits)
        planes = pack_value_planes(values, nbits, self.n_words)
        n_rows = values.shape[1] * nbits
        self._row_words(top_row, n_rows)[...] = planes.reshape(
            self.n_arrays, n_rows, self.n_words).transpose(1, 0, 2)

    def dump_values(self, top_row: int, nbits: int) -> np.ndarray:
        self._check_region(top_row, nbits, 0, self.cols)
        return unpack_value_planes(
            self._row_words(top_row, nbits).transpose(1, 0, 2), self.cols)

    @property
    def nbytes(self) -> int:
        return self._words.nbytes


class PackedFleetPeriphery(FleetPeriphery):
    """Column peripherals whose carry/tag latches are packed uint64 words.

    The full-adder/XOR logic is inherited unchanged from
    :class:`~repro.engine.fleet.FleetPeriphery` — bitwise ops are
    representation-agnostic — so only latch storage, the rail complement
    (which must mask the tail word) and plane validation live here.
    """

    def _alloc_latches(self) -> None:
        self.n_words, self._mask, self._tail_partial = _packed_geometry(
            self.cols)
        self.carry = np.zeros((self.n_arrays, self.n_words),
                              dtype=np.uint64)
        self.tag = np.broadcast_to(self._mask,
                                   (self.n_arrays, self.n_words)).copy()

    def set_carry(self) -> None:
        self.carry[:] = self._mask

    def set_tag_all(self) -> None:
        self.tag[:] = self._mask

    def _invert(self, bits: np.ndarray) -> np.ndarray:
        return ~bits & self._mask

    def _coerce(self, bits: np.ndarray) -> np.ndarray:
        return _coerce_words(self, bits, "packed latch plane")


def make_fleet(n_arrays: int = 1, rows: int = DEFAULT_ROWS,
               cols: int = DEFAULT_COLS,
               packed: bool | str = False,
               sanitize: bool | None = None,
               faults=None) -> PlaneStore:
    """Construct a plane store behind the :class:`PlaneStore` seam.

    ``packed`` selects the storage: ``False`` is the unpacked
    byte-per-bit reference, ``True`` the packed uint64 production store,
    and ``"shared"`` the packed store on a shared-memory segment
    (:class:`~repro.engine.shared.SharedPlaneStore`) — what the
    persistent pool workers run on, so a fleet's planes are mappable
    from other processes instead of picklable only.

    ``faults`` wraps the store in a hardware fault injector
    (:class:`repro.faults.hardware.FaultyPlaneStore`) for the given
    :class:`~repro.faults.hardware.HardwareFaultModel`; with the default
    ``None`` the ambient model installed via
    :func:`repro.faults.context.hardware_faults` (if any) applies, which
    is how a model reaches the fleets an executor builds internally.

    ``sanitize`` wraps the result in the shadow-state sanitizer
    (:class:`repro.verify.sanitizer.ShadowPlaneStore`), which tracks
    per-row init state and raises :class:`~repro.common.errors.VerifyError`
    at the exact primitive that reads an uninitialized wordline. ``None``
    (the default) defers to the ``NEURALCACHE_SANITIZE`` environment
    variable, so a whole test run can be sanitized without code changes.
    The sanitizer composes *outside* the fault injector: program
    discipline is checked on the access stream, defects corrupt the
    storage underneath.
    """
    if sanitize is None:
        sanitize = os.environ.get("NEURALCACHE_SANITIZE", "") not in ("", "0")
    if isinstance(packed, str):
        if packed != "shared":
            raise ArrayStateError(
                f"unknown plane store {packed!r}; use False (unpacked), "
                f"True (packed) or 'shared' (packed, shared-memory)")
        from repro.engine.shared import SharedPlaneStore
        store: PlaneStore = SharedPlaneStore(n_arrays, rows, cols)
    else:
        cls = PackedArrayFleet if packed else ArrayFleet
        store = cls(n_arrays, rows, cols)
    from repro.faults.context import wrap_fleet
    store = wrap_fleet(store, faults)
    if sanitize:
        from repro.verify.sanitizer import ShadowPlaneStore
        return ShadowPlaneStore(store)
    return store
