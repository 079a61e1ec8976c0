"""The evaluated network functions (§6.2), each in up to three variants,
plus extension NFs: the §4.5 future-work structures (LRU cache) and
additional surveyed works (d-ary cuckoo, Bloom, counting Bloom, Maglev,
ElasticSketch, SketchVisor)."""

from .base import BaseNF, UnsupportedVariantError
from .bloom import BloomFilterNF
from .countmin import CountMinNF
from .counting_bloom import CountingBloomNF
from .dary_cuckoo import DaryCuckooNF
from .degrade import ColdStartWarmup, SketchDegradation
from .elastic import ElasticSketchNF
from .flow_table import FlowMonitorNF
from .lru_cache import LruCacheNF
from .maglev import MaglevNF
from .cuckoo_filter import CuckooFilterNF
from .cuckoo_switch import CuckooSwitchNF
from .efd import EfdLoadBalancerNF
from .eiffel import EiffelNF
from .heavykeeper import HeavyKeeperNF
from .hypercuts import HyperCutsNF
from .kv_skiplist import OP_LOOKUP, OP_UPDATE_DELETE, SkipListKV
from .nitrosketch import NitroSketchNF
from .sketchvisor import SketchVisorNF
from .timewheel import TimeWheelNF
from .tss import TssClassifierNF
from .vbf import VbfNF

#: Extensions beyond the paper's 11 evaluated NFs (§4.5 future NFs and
#: additional surveyed works exercising otherwise-uncovered kfuncs).
EXTENSION_NFS = {
    "lru_cache": LruCacheNF,
    "dary_cuckoo": DaryCuckooNF,
    "bloom": BloomFilterNF,
    "maglev": MaglevNF,
    "elastic": ElasticSketchNF,
    "sketchvisor": SketchVisorNF,
    "counting_bloom": CountingBloomNF,
    "hypercuts": HyperCutsNF,
    "flow_monitor": FlowMonitorNF,
}

#: All evaluated NF classes, keyed by a short experiment id.
ALL_NFS = {
    "kv_skiplist": SkipListKV,
    "cuckoo_switch": CuckooSwitchNF,
    "countmin": CountMinNF,
    "nitrosketch": NitroSketchNF,
    "cuckoo_filter": CuckooFilterNF,
    "vbf": VbfNF,
    "timewheel": TimeWheelNF,
    "eiffel": EiffelNF,
    "efd": EfdLoadBalancerNF,
    "tss": TssClassifierNF,
    "heavykeeper": HeavyKeeperNF,
}

__all__ = [
    "BaseNF",
    "UnsupportedVariantError",
    "CountMinNF",
    "CuckooFilterNF",
    "CuckooSwitchNF",
    "EfdLoadBalancerNF",
    "EiffelNF",
    "HeavyKeeperNF",
    "OP_LOOKUP",
    "OP_UPDATE_DELETE",
    "SkipListKV",
    "NitroSketchNF",
    "TimeWheelNF",
    "TssClassifierNF",
    "VbfNF",
    "ALL_NFS",
    "BloomFilterNF",
    "DaryCuckooNF",
    "LruCacheNF",
    "MaglevNF",
    "ElasticSketchNF",
    "SketchVisorNF",
    "CountingBloomNF",
    "FlowMonitorNF",
    "HyperCutsNF",
    "ColdStartWarmup",
    "SketchDegradation",
    "EXTENSION_NFS",
]
