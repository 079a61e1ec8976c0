"""Batch steering: the arrival loops hash a chunk, then place live.

Both fleet loops pull the stream ``STEER_CHUNK`` packets at a time and
hash the chunk's keys in lanes, but each packet's placement is read
when that packet is routed.  A repack that lands in the middle of a
chunk must therefore reach the very next packet, exactly as when every
packet was placed by its own ``queue_of`` call.  The reference here is
that per-packet replay: a policy whose chunks are one packet long and
hashed by the scalar ``fast_hash32``.
"""

import pytest

from repro.core.algorithms.hashing import fast_hash32
from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.faults import FaultPlan
from repro.net.flowgen import FlowGenerator
from repro.net.multicore import RssDispatcher
from repro.net.queueing import ArrivalProcess, BurstPhase, QueueingConfig
from repro.net.replay import main as replay_main
from repro.net.slo import IndirectionTable, SloConfig
from repro.net.steering import STEER_CHUNK, NtupleSteering, RssSteering
from repro.net.trace import dump_trace
from repro.nfs import CountMinNF


def _per_packet(cls):
    """``cls`` placing each packet as its own ``queue_of`` would."""

    class PerPacket(cls):
        def chunks(self, stream):
            for pkt in stream:
                key = pkt.key_int
                yield [pkt], [key], [fast_hash32(key, self.hash_seed)]

    return PerPacket


class _Placements:
    """Counts ``place`` calls on a policy and notes the count at each
    repack, to show where in a chunk the repack landed."""

    def __init__(self, policy):
        self.calls = 0
        self.at_repack = []
        place, repack = policy.place, policy.repack

        def counted_place(key, h):
            self.calls += 1
            return place(key, h)

        def noted_repack(cores):
            self.at_repack.append(self.calls)
            return repack(cores)

        policy.place = counted_place
        policy.repack = noted_repack


class _ServiceLog:
    """``nf_factory`` whose NFs log (core, trace index) of every packet
    they serve, in service order."""

    def __init__(self, trace):
        self.index = {id(pkt): i for i, pkt in enumerate(trace)}
        self.served = []

    def __call__(self, core):
        nf = CountMinNF(BpfRuntime(mode=ExecMode.ENETSTL, seed=core), depth=4)
        process_batch = nf.process_batch

        def logged(packets):
            self.served.extend((core, self.index[id(p)]) for p in packets)
            return process_batch(packets)

        nf.process_batch = logged
        return nf


def _zipf(n, seed=9):
    return FlowGenerator(n_flows=384, distribution="zipf", seed=seed).trace(n)


# -- buffered loop -----------------------------------------------------------


def _buffered_run(policy, trace, crash_at):
    log = _ServiceLog(trace)
    result = RssDispatcher(
        log,
        n_cores=4,
        steering=policy,
        faults=FaultPlan(crash_core=2, crash_at=crash_at),
        repack_on_failure=True,
    ).run(trace)
    return log.served, result


@pytest.mark.parametrize("crash_at", [700, 1333])
def test_buffered_crash_repack_mid_chunk_matches_per_packet(crash_at):
    trace = _zipf(6000)
    policy = NtupleSteering(4, sample_size=1000)
    placements = _Placements(policy)
    served, result = _buffered_run(policy, trace, crash_at)
    ref_served, ref = _buffered_run(
        _per_packet(NtupleSteering)(4, sample_size=1000), trace, crash_at
    )

    # The repack landed inside a chunk, not on its boundary.
    assert len(placements.at_repack) == 1
    assert placements.at_repack[0] % STEER_CHUNK != 0
    assert served == ref_served
    assert result.per_core == ref.per_core
    assert result.accounting() == ref.accounting()
    assert [f.describe() for f in result.failures] == [
        f.describe() for f in ref.failures
    ]
    (failure,) = result.failures
    # Live placement: after the repack no packet is steered to the dead
    # core, so the failover hash never redirects one.
    assert failure.repacked and failure.resteered == 0
    assert sum(core == 2 for core, _ in served) == failure.processed == crash_at


def test_buffered_hash_policy_failover_matches_per_packet():
    # Plain RSS has no table: dead-core traffic takes the failover hash.
    trace = _zipf(3000)
    served, result = _buffered_run(RssSteering(4), trace, 333)
    ref_served, ref = _buffered_run(_per_packet(RssSteering)(4), trace, 333)
    assert served == ref_served
    assert result.failures[0].resteered == ref.failures[0].resteered > 0


# -- timed loop --------------------------------------------------------------


def _slo_trace():
    burst = (BurstPhase(0.0004, 6e6), BurstPhase(0.0004, 2.4e7))
    arrivals = ArrivalProcess(6e6, phases=burst * 3, seed=4)
    gen = FlowGenerator(n_flows=512, distribution="zipf", seed=4)
    return list(gen.iter_trace_bursty(9000, arrivals))


def _slo_run(table, trace):
    log = _ServiceLog(trace)
    disp = RssDispatcher(
        log,
        n_cores=4,
        steering=table,
        queueing=QueueingConfig(),
        faults=FaultPlan(crash_core=1, crash_at=1100),
        # 300 is no multiple of the chunk: epoch repacks land mid-chunk.
        slo=SloConfig(target_p99_us=40.0, epoch_packets=300,
                      autoscale=True, rejoin_epochs=3, initial_cores=2),
    )
    return log.served, disp.run(trace)


def test_slo_autoscale_repacks_mid_chunk_match_per_packet():
    trace = _slo_trace()
    table = IndirectionTable(4)
    placements = _Placements(table)
    served, run = _slo_run(table, trace)
    ref_served, ref = _slo_run(_per_packet(IndirectionTable)(4), trace)

    mid_chunk = [n for n in placements.at_repack if n % STEER_CHUNK]
    assert len(mid_chunk) >= 2
    assert [f.kind for f in run.failures] == ["crash"]
    assert any("scale-up" in " ".join(e.events) for e in run.timeline)
    assert served == ref_served
    assert run.latencies_ns == ref.latencies_ns
    assert run.accounting() == ref.accounting()
    assert [e.describe() for e in run.timeline] == [
        e.describe() for e in ref.timeline
    ]


def test_chunks_hash_like_queue_of():
    trace = _zipf(STEER_CHUNK + 37)
    policy = NtupleSteering(4, sample_size=500)
    policy.prepare(trace[:500])
    got = [
        policy.place(key, h)
        for _, keys, hashes in policy.chunks(iter(trace))
        for key, h in zip(keys, hashes)
    ]
    sizes = [len(c) for c, _, _ in policy.chunks(trace)]
    assert sizes == [STEER_CHUNK, 37]
    assert got == [policy.queue_of(pkt) for pkt in trace]


# -- a stream that fails mid-way -----------------------------------------------


@pytest.mark.parametrize("extra", [[], ["--burst", "4e6"]])
def test_malformed_row_mid_stream_fails_cleanly(tmp_path, capsys, extra):
    path = tmp_path / "bad.csv"
    dump_trace(_zipf(600), path)
    lines = path.read_text().splitlines()
    lines[STEER_CHUNK + 45] = "1,2,3"   # inside the second chunk
    path.write_text("\n".join(lines) + "\n")
    argv = [str(path), "--cores", "4"] + extra
    assert replay_main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: line {STEER_CHUNK + 46}: expected 7 fields\n"
