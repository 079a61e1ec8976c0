"""Fig. 4 and Fig. 5 from one run of the heavy configs (§6.3).

Fig. 4 is end-to-end latency at low load (1 kpps); Fig. 5 is the
per-packet processing time (bpf_ktime_get_ns bracketing).  Both are
columns of the same ``fig4_fig5_latency`` points.
"""

import repro.analysis as a
from repro.ebpf.cost_model import ExecMode


def test_fig4_fig5_latency(run_once):
    points = run_once(a.fig4_fig5_latency, n_packets=300)
    by_nf = {}
    for p in points:
        by_nf.setdefault(p.nf, {})[p.mode] = p
    assert len(by_nf) == 11
    for nf, modes in by_nf.items():
        enet = modes[ExecMode.ENETSTL]
        kern = modes[ExecMode.KERNEL]
        # Fig. 4: eNetSTL does not significantly increase latency vs
        # eBPF, and stays within a hair of the kernel build.
        # Low-load latency is wire-dominated (tens of microseconds).
        assert enet.avg_latency_us <= kern.avg_latency_us * 1.05, nf
        assert 20.0 <= enet.avg_latency_us <= 60.0, nf
        if ExecMode.PURE_EBPF not in modes:
            continue   # skip list: no eBPF variant
        ebpf = modes[ExecMode.PURE_EBPF]
        assert enet.avg_latency_us <= ebpf.avg_latency_us + 0.05, nf
        # Fig. 5: eNetSTL reduces per-packet processing time vs pure
        # eBPF and sits between the kernel and eBPF builds.
        assert enet.proc_ns < ebpf.proc_ns, nf
        assert kern.proc_ns <= enet.proc_ns, nf
