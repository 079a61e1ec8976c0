"""Traffic substrate: packets, flow generators, and the XDP pipeline."""

from .flowgen import DISTRIBUTIONS, FlowGenerator, make_flows, rate_to_inter_arrival_ns
from .irnf import IrChainNf, XDP_RETURN_CODES, encode_packet
from .packet import MIN_FRAME_BYTES, PROTO_TCP, PROTO_UDP, Packet, XdpAction
from .stats import geo_mean, mean, percentile, relative_error, stdev
from .multicore import (
    MulticoreResult,
    RSS_HASH_SEED,
    RssDispatcher,
    merged_bloom_contains,
    merged_bloom_words,
    merged_countmin_estimate,
    merged_countmin_rows,
    shard_trace,
)
from .queueing import (
    ArrivalProcess,
    BurstPhase,
    CoreQueue,
    QueueingConfig,
    latency_summary_us,
)
from .slo import (
    CoreAutoscaler,
    EpochStats,
    SloConfig,
    SloLoop,
    time_to_slo_s,
)
from .steering import (
    POLICIES,
    IndirectionTable,
    NtupleSteering,
    RekeySteering,
    RssSteering,
    SteeringPolicy,
    make_policy,
)
from .trace import (
    dump_trace,
    dumps_trace,
    iter_trace,
    iter_trace_file,
)
from .xdp import (
    BASE_WIRE_LATENCY_NS,
    DEFAULT_BATCH_SIZE,
    PipelineResult,
    ReplaySession,
    XdpPipeline,
    iter_batches,
)

__all__ = [
    "DISTRIBUTIONS",
    "FlowGenerator",
    "make_flows",
    "rate_to_inter_arrival_ns",
    "IrChainNf",
    "XDP_RETURN_CODES",
    "encode_packet",
    "MIN_FRAME_BYTES",
    "PROTO_TCP",
    "PROTO_UDP",
    "Packet",
    "XdpAction",
    "geo_mean",
    "mean",
    "percentile",
    "relative_error",
    "stdev",
    "dump_trace",
    "dumps_trace",
    "iter_trace",
    "iter_trace_file",
    "BASE_WIRE_LATENCY_NS",
    "DEFAULT_BATCH_SIZE",
    "PipelineResult",
    "ReplaySession",
    "XdpPipeline",
    "iter_batches",
    "POLICIES",
    "IndirectionTable",
    "NtupleSteering",
    "RekeySteering",
    "RssSteering",
    "SteeringPolicy",
    "make_policy",
    "MulticoreResult",
    "RSS_HASH_SEED",
    "RssDispatcher",
    "merged_bloom_contains",
    "merged_bloom_words",
    "merged_countmin_estimate",
    "merged_countmin_rows",
    "shard_trace",
    "ArrivalProcess",
    "BurstPhase",
    "CoreQueue",
    "QueueingConfig",
    "latency_summary_us",
    "CoreAutoscaler",
    "EpochStats",
    "SloConfig",
    "SloLoop",
    "time_to_slo_s",
]
