"""eNetSTL: the in-kernel library for eBPF-based network functions.

One wrapper, three algorithm families, two data structures (§4):

- :mod:`repro.core.memwrap` — memory wrapper (non-contiguous memory),
- :mod:`repro.core.algorithms` — bit manipulation, parallel
  compare/reduce, unified hash + post-hash operations,
- :mod:`repro.core.structures` — list-buckets, random pools,
- :mod:`repro.core.kfunc` — the kfunc metadata surface the verifier
  enforces.
"""

from .algorithms import BitOps, HashAlgos, SimdOps
from .errors import (
    DoubleFreeError,
    ENetStlError,
    InvalidSlotError,
    OwnershipError,
    PoolEmptyError,
    UseAfterFreeError,
)
from .kfunc import enetstl_registry
from .memwrap import EAGER, LAZY, MemoryWrapper, Node, NodeProxy
from .structures import GeoRandomPool, ListBuckets, RandomPool

__all__ = [
    "BitOps",
    "HashAlgos",
    "SimdOps",
    "DoubleFreeError",
    "ENetStlError",
    "InvalidSlotError",
    "OwnershipError",
    "PoolEmptyError",
    "UseAfterFreeError",
    "enetstl_registry",
    "EAGER",
    "LAZY",
    "MemoryWrapper",
    "Node",
    "NodeProxy",
    "GeoRandomPool",
    "ListBuckets",
    "RandomPool",
]
