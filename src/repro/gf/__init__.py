"""Galois-field arithmetic substrate for GF(2^w), w in {4, 8, 16}.

Public surface:

- :class:`~repro.gf.field.GaloisField` with singletons :data:`GF4`,
  :data:`GF8`, :data:`GF16` and the :func:`gf` factory — scalar ops.
- :mod:`repro.gf.vector` — numpy-vectorised chunk-buffer kernels
  (``mul_scalar``, ``axpy``, ``dot_rows``, ``matrix_apply``).
"""

from repro.gf.field import GF4, GF8, GF16, GaloisField, gf
from repro.gf.tables import FieldTables, get_tables, supported_widths
from repro.gf.vector import (
    as_field_buffer,
    axpy,
    buffer_dtype,
    dot_rows,
    matrix_apply,
    mul_scalar,
    scale_inplace,
    xor_into,
)

__all__ = [
    "GaloisField",
    "GF4",
    "GF8",
    "GF16",
    "gf",
    "FieldTables",
    "get_tables",
    "supported_widths",
    "as_field_buffer",
    "axpy",
    "buffer_dtype",
    "dot_rows",
    "matrix_apply",
    "mul_scalar",
    "scale_inplace",
    "xor_into",
]
