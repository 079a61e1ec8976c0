"""eNetSTL reproduction: an in-kernel library for high-performance
eBPF-based network functions, as a functional + performance simulation.

Packages:

- :mod:`repro.ebpf` — simulated eBPF substrate (cost model, runtime,
  maps, IR, verifier, VM);
- :mod:`repro.core` — eNetSTL itself (memory wrapper, algorithms,
  data structures, kfunc metadata);
- :mod:`repro.datastructs` — pure algorithm kernels;
- :mod:`repro.nfs` — the 11 evaluated network functions, each in up to
  three execution-mode variants;
- :mod:`repro.net` — packets, traffic generation, XDP pipeline;
- :mod:`repro.apps` — the Fig. 7 real-world integrations, one
  verified-IR chain per app, measured as an origin and an eNetSTL
  build;
- :mod:`repro.analysis` — per-figure experiment harness.
"""

__version__ = "1.0.0"

from .ebpf.cost_model import ExecMode
from .ebpf.runtime import BpfRuntime

__all__ = ["ExecMode", "BpfRuntime", "__version__"]
