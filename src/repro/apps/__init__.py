"""Fig. 7 integrations: real-world eBPF projects with swappable cores.

Each app (Katran, RakeLimit, Polycube's bridge, the eBPF sketch suite)
is one chain of verified IR programs (:mod:`repro.apps.ir`) that runs
on the interpreted or fused fast-path stack.  The fleets run it
uncharged; Fig. 7 runs it twice, as the stock "origin" build and the
eNetSTL build, which differ only in what each kfunc call charges.
"""

from .ir import (
    FIG7_BUILDS,
    IR_APP_NAMES,
    AppState,
    KatranState,
    app_chain,
    app_nf,
    app_nf_factory,
    fig7_charges,
    fig7_nfs,
    ir_registry,
)

__all__ = [
    "FIG7_BUILDS",
    "IR_APP_NAMES",
    "AppState",
    "KatranState",
    "app_chain",
    "app_nf",
    "app_nf_factory",
    "fig7_charges",
    "fig7_nfs",
    "ir_registry",
]
