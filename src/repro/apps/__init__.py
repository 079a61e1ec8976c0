"""Fig. 7 integrations: real-world eBPF projects with swappable cores.

Two generations live side by side: the legacy cost-model apps
(``ALL_APPS``) that charge cycle constants per helper call, and the
verified-IR ports (:mod:`repro.apps.ir`) that run the same hot paths
as NF chains on the interpreted or fused fast-path stack.
"""

from .base import BaseApp
from .ir import (
    IR_APP_NAMES,
    AppState,
    KatranState,
    app_chain,
    app_chains,
    app_nf,
    app_nf_factory,
    ir_registry,
    verify_app_chains,
)
from .katran import KatranApp
from .polycube import PolycubeBridgeApp
from .rakelimit import RakeLimitApp
from .sketchsuite import SketchSuiteApp

ALL_APPS = {
    "katran": KatranApp,
    "rakelimit": RakeLimitApp,
    "polycube": PolycubeBridgeApp,
    "sketches": SketchSuiteApp,
}

__all__ = [
    "BaseApp",
    "KatranApp",
    "PolycubeBridgeApp",
    "RakeLimitApp",
    "SketchSuiteApp",
    "ALL_APPS",
    "IR_APP_NAMES",
    "AppState",
    "KatranState",
    "app_chain",
    "app_chains",
    "app_nf",
    "app_nf_factory",
    "ir_registry",
    "verify_app_chains",
]
