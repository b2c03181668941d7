"""Vectorised GF(2^w) operations on numpy buffers.

These are the hot-path kernels used by erasure encoding/decoding: they
operate element-wise on whole chunk buffers (numpy arrays of ``uint8``
for w <= 8 or ``uint16`` for w == 16).

Two table schemes back the kernels:

- **w <= 8**: one 256-entry product table per constant (``t[x] = c*x``),
  gathered with ``np.take``.  For multi-output kernels up to four
  constants' tables are *packed into one uint32 table* so a single
  gather produces four products at once (the byte lanes of the packed
  accumulator are the output rows).
- **w == 16**: *split low/high-nibble tables* — ``lo[x] = c * x`` for
  the low byte and ``hi[x] = c * (x << 8)`` for the high byte, 256
  entries each (1 KiB per constant instead of the 128 KiB a full
  2^16-entry table would cost).  ``c * v == lo[v & 0xFF] ^ hi[v >> 8]``.

The central batched primitive is :func:`batch_dot`: apply an ``r x n``
coefficient matrix to ``n`` input buffers in one fused pass with
in-place XOR accumulation and reusable scratch buffers (no per-row
temporaries).  :func:`matrix_apply` (the encode/decode kernel) and
:func:`dot_rows` (the paper's Equation-7 partial-decoding primitive)
are thin wrappers over it.

All product-table caches are bounded LRUs (:class:`repro.cache.BoundedCache`).
Scratch buffers are per thread, so kernel calls on different threads
never share scratch space.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.cache import BoundedCache
from repro.errors import FieldError
from repro.gf.field import GaloisField
from repro.obs import metrics as _metrics

__all__ = [
    "buffer_dtype",
    "as_field_buffer",
    "xor_into",
    "mul_scalar",
    "axpy",
    "scale_inplace",
    "dot_rows",
    "matrix_apply",
    "batch_dot",
]

#: Per-(w, c) product tables for w <= 8: 256 entries, 256 B each.
_MUL_TABLE_CACHE = BoundedCache(maxsize=1024, name="gf.mul_table")
#: Per-(w, c) split-nibble table pairs for w == 16: 2 x 256 uint16 = 1 KiB each.
_NIBBLE_TABLE_CACHE = BoundedCache(maxsize=1024, name="gf.nibble_table")
#: Per-(w, c1, c2) fused pair tables for w <= 8: 64 KiB each, so <= 4 MiB total.
_PAIR_TABLE_CACHE = BoundedCache(maxsize=64, name="gf.pair_table")


def _count_kernel(kernel: str, nbytes: int) -> None:
    """Record one kernel dispatch when a telemetry scope is active.

    The disabled path is the caller's ``_metrics.CURRENT is None``
    check — one module-attribute load, bounded <5% on the kernel bench.
    """
    reg = _metrics.CURRENT
    if reg is None:  # pragma: no cover - callers already check
        return
    reg.counter("gf.kernel.dispatches").inc(kernel=kernel)
    reg.counter("gf.kernel.bytes").inc(nbytes, kernel=kernel)

_LITTLE_ENDIAN = bool(np.little_endian)

# Reusable scratch buffers, one pool per thread (kernels run
# concurrently on the executor's decode thread, the service's repair
# thread and its event loop), keyed by (dtype, slot); each holds the
# largest size seen so far.  Bounded by a few chunk-sized arrays per
# thread.
_SCRATCH = threading.local()


def _scratch(dtype: np.dtype, n: int, slot: int = 0) -> np.ndarray:
    try:
        pool = _SCRATCH.pool
    except AttributeError:
        pool = _SCRATCH.pool = {}
    key = (np.dtype(dtype).str, slot)
    buf = pool.get(key)
    if buf is None or buf.size < n:
        buf = np.empty(n, dtype=dtype)
        pool[key] = buf
    return buf[:n]


def buffer_dtype(field: GaloisField) -> np.dtype:
    """Numpy dtype for buffers over ``field``."""
    return field.tables.dtype


def as_field_buffer(
    field: GaloisField,
    data: bytes | bytearray | np.ndarray,
    copy: bool = False,
) -> np.ndarray:
    """View/convert ``data`` as a 1-D numpy buffer of field elements.

    By default bytes-like inputs are reinterpreted **zero-copy** as a
    read-only view — the common case (encode/decode inputs) never
    mutates its buffers.  Pass ``copy=True`` to get a private writable
    copy instead.  For GF(2^16) the byte length must be even.

    Raises:
        FieldError: if an ndarray input has the wrong dtype, or a bytes
            input has odd length for w=16.
    """
    dtype = buffer_dtype(field)
    if isinstance(data, np.ndarray):
        if data.dtype != dtype:
            raise FieldError(
                f"buffer dtype {data.dtype} does not match GF(2^{field.w}) ({dtype})"
            )
        flat = data.reshape(-1)
        return flat.copy() if copy else flat
    raw = np.frombuffer(data, dtype=np.uint8)
    if dtype != np.uint8:
        if raw.size % 2:
            raise FieldError("GF(2^16) buffers require an even number of bytes")
        raw = raw.view(np.uint16)
    if copy:
        return raw.copy()
    view = raw[:]
    view.setflags(write=False)
    return view


def _mul_table(field: GaloisField, c: int) -> np.ndarray:
    """Full product table ``t[x] = c * x`` for w <= 8 constants (cached)."""
    key = (field.w, c)
    table = _MUL_TABLE_CACHE.get(key)
    if table is None:
        t = field.tables
        table = np.zeros(t.order, dtype=t.dtype)
        if c != 0:
            logs = t.log[1:].astype(np.int64) + int(t.log[c])
            table[1:] = t.exp[logs]
        table.setflags(write=False)
        _MUL_TABLE_CACHE.put(key, table)
    return table


def _nibble_tables(field: GaloisField, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Split-nibble tables ``(lo, hi)`` for a GF(2^16) constant (cached).

    ``lo[x] = c * x`` and ``hi[x] = c * (x << 8)`` for ``x`` in 0..255,
    so ``c * v == lo[v & 0xFF] ^ hi[v >> 8]`` by linearity of the field
    multiplication over XOR.  1 KiB per constant instead of the 128 KiB
    a full 2^16-entry table would take.
    """
    key = (field.w, c)
    tables = _NIBBLE_TABLE_CACHE.get(key)
    if tables is None:
        t = field.tables
        lo = np.zeros(256, dtype=t.dtype)
        hi = np.zeros(256, dtype=t.dtype)
        if c != 0:
            log_c = int(t.log[c])
            low_vals = np.arange(1, 256)
            lo[1:] = t.exp[t.log[low_vals] + log_c]
            high_vals = low_vals << 8
            hi[1:] = t.exp[t.log[high_vals] + log_c]
        lo.setflags(write=False)
        hi.setflags(write=False)
        tables = (lo, hi)
        _NIBBLE_TABLE_CACHE.put(key, tables)
    return tables


def _pair_table(field: GaloisField, c1: int, c2: int) -> np.ndarray:
    """Fused table ``P[x1 * 256 + x2] = c1*x1 ^ c2*x2`` for w <= 8 (cached).

    Lets a two-term GF multiply-accumulate run as a *single* gather over
    a combined 16-bit index — the dominant cost of the repair kernel is
    gathers, so halving their count nearly halves its runtime.
    """
    key = (field.w, c1, c2)
    table = _PAIR_TABLE_CACHE.get(key)
    if table is None:
        t1 = _mul_table(field, c1)
        t2 = _mul_table(field, c2)
        table = (t1[:, None] ^ t2[None, :]).reshape(-1)
        table.setflags(write=False)
        _PAIR_TABLE_CACHE.put(key, table)
    return table


def xor_into(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst ^= src`` element-wise (field addition), in place."""
    np.bitwise_xor(dst, src, out=dst)


def mul_scalar(field: GaloisField, c: int, buf: np.ndarray) -> np.ndarray:
    """Return a new buffer equal to ``c * buf`` element-wise."""
    field.check(c)
    if _metrics.CURRENT is not None:
        _count_kernel("mul_scalar", buf.size * buf.itemsize)
    if c == 0:
        return np.zeros_like(buf)
    if c == 1:
        return buf.copy()
    if field.w <= 8:
        return np.take(_mul_table(field, c), buf)
    lo, hi = _nibble_tables(field, c)
    out = lo[buf & 0xFF]
    out ^= hi[buf >> 8]
    return out


def scale_inplace(field: GaloisField, c: int, buf: np.ndarray) -> None:
    """``buf *= c`` element-wise, in place."""
    field.check(c)
    if _metrics.CURRENT is not None:
        _count_kernel("scale_inplace", buf.size * buf.itemsize)
    if c == 1:
        return
    if c == 0:
        buf[:] = 0
        return
    if field.w <= 8:
        np.take(_mul_table(field, c), buf, out=buf)
        return
    lo, hi = _nibble_tables(field, c)
    high = _scratch(buf.dtype, buf.size, slot=1)
    np.right_shift(buf, 8, out=high)
    np.bitwise_and(buf, 0xFF, out=buf)
    np.take(lo, buf, out=buf)
    buf ^= hi[high]


def axpy(field: GaloisField, c: int, x: np.ndarray, y: np.ndarray) -> None:
    """``y ^= c * x`` — the fused multiply-accumulate of GF coding loops."""
    field.check(c)
    if _metrics.CURRENT is not None:
        _count_kernel("axpy", x.size * x.itemsize)
    if c == 0:
        return
    if c == 1:
        np.bitwise_xor(y, x, out=y)
        return
    s = _scratch(y.dtype, y.size)
    if field.w <= 8:
        np.take(_mul_table(field, c), x, out=s)
    else:
        lo, hi = _nibble_tables(field, c)
        np.take(lo, x & 0xFF, out=s)
        s ^= hi[x >> 8]
    np.bitwise_xor(y, s, out=y)


def _unpack_lane(acc: np.ndarray, lane: int, lane_size: int) -> np.ndarray:
    """One output row from a packed accumulator, as a strided view."""
    lanes = acc.itemsize // lane_size
    lane_dtype = np.uint8 if lane_size == 1 else np.uint16
    per_elem = acc.view(lane_dtype).reshape(-1, lanes)
    return per_elem[:, lane if _LITTLE_ENDIAN else lanes - 1 - lane]


def _batch_dot_u8(
    field: GaloisField, rows: np.ndarray, bufs, out: np.ndarray
) -> None:
    """w <= 8 kernel: packed byte lanes for multi-row, pair tables for 1-row."""
    r, n = rows.shape
    size = out.shape[1]
    for g0 in range(0, r, 4):
        lanes = min(4, r - g0)
        if lanes == 1:
            _dot_single_u8(field, rows[g0], bufs, out[g0])
            continue
        pack_dtype = np.uint16 if lanes == 2 else np.uint32
        acc = _scratch(pack_dtype, size, slot=0)
        acc[:] = 0
        gathered = _scratch(pack_dtype, size, slot=1)
        for j in range(n):
            cs = [int(c) for c in rows[g0 : g0 + lanes, j]]
            if not any(cs):
                continue
            packed = np.zeros(field.order, dtype=pack_dtype)
            for lane, c in enumerate(cs):
                if c:
                    packed |= _mul_table(field, c).astype(pack_dtype) << (8 * lane)
            np.take(packed, bufs[j], out=gathered)
            acc ^= gathered
        for lane in range(lanes):
            out[g0 + lane][:] = _unpack_lane(acc, lane, 1)


def _dot_single_u8(
    field: GaloisField, coeffs: np.ndarray, bufs, out_row: np.ndarray
) -> None:
    """Single-output w <= 8 dot: fused pair-table gathers.

    Consecutive nonzero terms are consumed two at a time through
    :func:`_pair_table`, so ``k`` inputs cost ``ceil(k/2)`` gathers
    instead of ``k``.
    """
    size = out_row.shape[0]
    terms = [(int(c), bufs[j]) for j, c in enumerate(coeffs) if c]
    out_row[:] = 0
    idx = _scratch(np.uint16, size, slot=2)
    s = _scratch(np.uint8, size, slot=3)
    i = 0
    stride = np.uint16(field.order)
    while i + 1 < len(terms):
        (c1, x1), (c2, x2) = terms[i], terms[i + 1]
        np.multiply(x1, stride, out=idx)
        np.bitwise_or(idx, x2, out=idx)
        np.take(_pair_table(field, c1, c2), idx, out=s)
        out_row ^= s
        i += 2
    if i < len(terms):
        c, x = terms[i]
        if c == 1:
            out_row ^= x
        else:
            np.take(_mul_table(field, c), x, out=s)
            out_row ^= s


def _batch_dot_u16(
    field: GaloisField, rows: np.ndarray, bufs, out: np.ndarray
) -> None:
    """w == 16 kernel: split-nibble gathers, two rows packed per uint32."""
    r, n = rows.shape
    size = out.shape[1]
    # Low/high byte indices are shared by every output row group.
    lo_idx = [buf & 0xFF for buf in bufs]
    hi_idx = [buf >> 8 for buf in bufs]
    for g0 in range(0, r, 2):
        lanes = min(2, r - g0)
        pack_dtype = np.uint16 if lanes == 1 else np.uint32
        acc = _scratch(pack_dtype, size, slot=0)
        acc[:] = 0
        gathered = _scratch(pack_dtype, size, slot=1)
        for j in range(n):
            cs = [int(c) for c in rows[g0 : g0 + lanes, j]]
            if not any(cs):
                continue
            packed_lo = np.zeros(256, dtype=pack_dtype)
            packed_hi = np.zeros(256, dtype=pack_dtype)
            for lane, c in enumerate(cs):
                if c:
                    lo, hi = _nibble_tables(field, c)
                    packed_lo |= lo.astype(pack_dtype) << (16 * lane)
                    packed_hi |= hi.astype(pack_dtype) << (16 * lane)
            np.take(packed_lo, lo_idx[j], out=gathered)
            acc ^= gathered
            np.take(packed_hi, hi_idx[j], out=gathered)
            acc ^= gathered
        if lanes == 1:
            out[g0][:] = acc
        else:
            for lane in range(lanes):
                out[g0 + lane][:] = _unpack_lane(acc, lane, 2)


def batch_dot(
    field: GaloisField,
    rows: np.ndarray,
    bufs,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply an ``r x n`` coefficient matrix to ``n`` buffers, batched.

    This is the fused coding kernel: all ``r`` linear combinations
    ``out[i] = sum_j rows[i, j] * bufs[j]`` are produced in one pass
    with XOR accumulation into reusable scratch buffers.  ``bufs`` may
    be a list of 1-D buffers or an ``(n, L)`` matrix (its rows are the
    buffers — no copy either way).

    Args:
        field: the coefficient field.
        rows: ``(r, n)`` coefficient matrix.
        bufs: ``n`` equal-length 1-D buffers of the field's dtype.
        out: optional preallocated ``(r, L)`` output (zeroed and filled).

    Returns:
        ``(r, L)`` array; row ``i`` is the ``i``-th combination.

    Raises:
        FieldError: on shape/coefficient-range mismatches.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise FieldError(f"coefficient matrix must be 2-D, got shape {rows.shape}")
    r, n = rows.shape
    if n != len(bufs):
        raise FieldError(
            f"matrix shape {rows.shape} incompatible with {len(bufs)} buffers"
        )
    if n == 0:
        raise FieldError("batch_dot requires at least one buffer")
    if rows.size and (int(rows.min()) < 0 or int(rows.max()) >= field.order):
        raise FieldError(f"coefficients outside GF(2^{field.w})")
    size = bufs[0].shape[0]
    dtype = buffer_dtype(field)
    if out is None:
        out = np.empty((r, size), dtype=dtype)
    elif out.shape != (r, size) or out.dtype != dtype:
        raise FieldError(
            f"out has shape {out.shape}/{out.dtype}, need {(r, size)}/{dtype}"
        )
    if r == 0:
        return out
    if field.w <= 8:
        _batch_dot_u8(field, rows, bufs, out)
    else:
        _batch_dot_u16(field, rows, bufs, out)
    if _metrics.CURRENT is not None:
        kernel = "batch_dot_u8" if field.w <= 8 else "batch_dot_u16"
        _count_kernel(kernel, n * size * out.itemsize)
    return out


def dot_rows(field: GaloisField, coeffs: list[int] | np.ndarray, bufs: list[np.ndarray]) -> np.ndarray:
    """Linear combination ``sum_i coeffs[i] * bufs[i]`` over the field.

    This is exactly the "partial decoding" primitive of the paper
    (Equation 7): a rack-local delegate combines its retrieved chunks
    with the repair-vector coefficients assigned to them.

    Raises:
        FieldError: if lengths mismatch or no buffers are given.
    """
    if len(coeffs) != len(bufs):
        raise FieldError("coefficient/buffer count mismatch")
    if not len(bufs):
        raise FieldError("dot_rows requires at least one buffer")
    return batch_dot(field, np.asarray(coeffs).reshape(1, -1), bufs)[0]


def matrix_apply(field: GaloisField, rows: np.ndarray, bufs: list[np.ndarray]) -> list[np.ndarray]:
    """Apply an ``r x n`` coefficient matrix to ``n`` buffers.

    Returns ``r`` output buffers; row ``i`` of the result is
    ``sum_j rows[i, j] * bufs[j]``.  This is the encode kernel: ``rows``
    is the parity part of the generator matrix.  Delegates to the
    batched :func:`batch_dot` kernel.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != len(bufs):
        raise FieldError(
            f"matrix shape {rows.shape} incompatible with {len(bufs)} buffers"
        )
    result = batch_dot(field, rows, list(bufs))
    return [result[i] for i in range(result.shape[0])]
