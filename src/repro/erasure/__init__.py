"""Erasure-coding substrate: matrices over GF(2^w), RS codes, repair algebra.

The recovery layer consumes the :class:`~repro.erasure.code.ErasureCode`
interface; :class:`~repro.erasure.rs.RSCode` is the production
implementation (the paper deploys RS codes).
"""

from repro.erasure.code import ErasureCode
from repro.erasure.lrc import LRCCode
from repro.erasure.matrix import GFMatrix
from repro.erasure.repair import (
    AggregationGroup,
    PartialDecodePlan,
    combine_partials,
    execute_partial_decode,
    split_repair_vector,
)
from repro.erasure.piggyback import PiggybackRSCode, balanced_groups
from repro.erasure.regenerating import PMMSRCode, RackAwareMSRCode
from repro.erasure.rs import RSCode, default_width_for

__all__ = [
    "ErasureCode",
    "LRCCode",
    "GFMatrix",
    "RSCode",
    "PMMSRCode",
    "RackAwareMSRCode",
    "PiggybackRSCode",
    "balanced_groups",
    "default_width_for",
    "AggregationGroup",
    "PartialDecodePlan",
    "split_repair_vector",
    "execute_partial_decode",
    "combine_partials",
]
