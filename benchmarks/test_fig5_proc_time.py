"""Fig. 5: per-packet processing time (bpf_ktime_get_ns bracketing)."""

import repro.analysis as a
from repro.ebpf.cost_model import ExecMode


def test_fig5_processing_time(run_once):
    points = run_once(a.fig4_fig5_latency, n_packets=300)
    by_nf = {}
    for p in points:
        by_nf.setdefault(p.nf, {})[p.mode] = p
    for nf, modes in by_nf.items():
        if ExecMode.PURE_EBPF not in modes:
            continue   # skip list: no eBPF variant
        ebpf = modes[ExecMode.PURE_EBPF]
        enet = modes[ExecMode.ENETSTL]
        kern = modes[ExecMode.KERNEL]
        # eNetSTL reduces per-packet processing time vs pure eBPF and
        # sits between the kernel and eBPF builds.
        assert enet.proc_ns < ebpf.proc_ns, nf
        assert kern.proc_ns <= enet.proc_ns, nf
