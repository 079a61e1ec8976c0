"""Common scaffolding for the evaluated network functions.

Every NF from the paper's evaluation (§6.2) is implemented as a class
that processes packets against real state while charging the cycle
costs its execution mode implies.  A *variant* is the same NF built
with a runtime in one of the three modes:

- ``ExecMode.PURE_EBPF`` — maps/helpers/scalar costs (the baseline),
- ``ExecMode.KERNEL``    — the in-kernel ideal,
- ``ExecMode.ENETSTL``   — eNetSTL kfuncs (kernel-speed + small call
  overheads).

The skip-list NF deliberately has no pure-eBPF variant: that is the
paper's P1 ("incomplete functionality").  Constructing one raises
:class:`UnsupportedVariantError`.
"""

from __future__ import annotations

from typing import Tuple

from ..core.kfunc import LibraryPrices
from ..ebpf.cost_model import Category, CostModel, ExecMode
from ..ebpf.runtime import BpfRuntime
from ..net.packet import Packet


class UnsupportedVariantError(NotImplementedError):
    """This NF cannot be implemented in the requested execution mode."""


class BaseNF:
    """Base class: holds the runtime and declares the NF's identity."""

    #: Human-readable NF name (matches the paper's tables).
    name: str = "nf"
    #: One of the seven surveyed categories.
    category: str = "unknown"
    #: Execution modes this NF supports.
    supported_modes: Tuple[ExecMode, ...] = (
        ExecMode.PURE_EBPF,
        ExecMode.KERNEL,
        ExecMode.ENETSTL,
    )

    def __init__(self, rt: BpfRuntime) -> None:
        if rt.mode not in self.supported_modes:
            raise UnsupportedVariantError(
                f"{self.name} cannot be implemented in {rt.mode.label} "
                f"(supported: {[m.label for m in self.supported_modes]})"
            )
        self.rt = rt
        #: The library's price list for this mode (resolved once).
        self.prices = LibraryPrices(rt.mode, rt.costs)

    def process(self, packet: Packet) -> str:
        """Handle one packet; returns an XDP verdict."""
        raise NotImplementedError

    # Convenience used by NF implementations.
    @property
    def costs(self) -> CostModel:
        return self.rt.costs

    @property
    def is_ebpf(self) -> bool:
        return self.rt.mode == ExecMode.PURE_EBPF

    def fetch_state(self, n: int = 1) -> None:
        """Retrieve the NF's state ``n`` times (map value in eBPF/kernel,
        kptr in eNetSTL — which additionally pays the verifier's NULL
        check)."""
        self.rt.charge(self.prices.fetch * n, Category.FRAMEWORK)
