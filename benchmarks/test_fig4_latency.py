"""Fig. 4: end-to-end latency at low load (1 kpps), heavy configs (§6.3)."""

import repro.analysis as a
from repro.ebpf.cost_model import ExecMode


def test_fig4_latency(run_once):
    points = run_once(a.fig4_fig5_latency, n_packets=300)
    by_nf = {}
    for p in points:
        by_nf.setdefault(p.nf, {})[p.mode] = p
    assert len(by_nf) == 11
    for nf, modes in by_nf.items():
        enet = modes[ExecMode.ENETSTL]
        # eNetSTL does not significantly increase latency vs eBPF...
        if ExecMode.PURE_EBPF in modes:
            ebpf = modes[ExecMode.PURE_EBPF]
            assert enet.avg_latency_us <= ebpf.avg_latency_us + 0.05, nf
        # ...and stays within a hair of the kernel build.
        kern = modes[ExecMode.KERNEL]
        assert enet.avg_latency_us <= kern.avg_latency_us * 1.05, nf
        # Low-load latency is wire-dominated (tens of microseconds).
        assert 20.0 <= enet.avg_latency_us <= 60.0, nf
