"""The library's per-mode prices are written once, in ``LibraryPrices``.

Two consequences are checked here.  The kernel baseline pays no eNetSTL
kfunc crossing anywhere, so a KERNEL replay's charges do not depend on
``CostModel.kfunc_call``.  And no module outside the cost model and the
price list reads a mode-specific cost field: each must go through a
price, where the mode is resolved.
"""

import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core.memwrap import MemoryWrapper
from repro.ebpf.cost_model import CostModel, ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.net.flowgen import FlowGenerator
from repro.net.xdp import XdpPipeline
from repro.nfs import OP_UPDATE_DELETE, LruCacheNF, SkipListKV

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

FG = FlowGenerator(n_flows=256, seed=5)
TRACE = FG.trace(400)
KEYS = [f.key_int for f in FG.flows]


def _skiplist(rt):
    nf = SkipListKV(rt, op_mix=OP_UPDATE_DELETE)
    nf.populate(KEYS[::2])   # updates hit (node_write) and miss (insert)
    return nf


def _replay(build, costs):
    rt = BpfRuntime(mode=ExecMode.KERNEL, costs=costs, seed=5)
    nf = build(rt)
    rt.cycles.reset()
    result = XdpPipeline(nf).run(TRACE)
    return {cat.name: cyc for cat, cyc in result.by_category.items()}


@pytest.mark.parametrize(
    "build",
    [_skiplist, lambda rt: LruCacheNF(rt, capacity=64)],
    ids=["skiplist-update-delete", "lru_cache"],
)
def test_kernel_replay_does_not_pay_kfunc_call(build):
    """Owner, read and write calls in the kernel are plain calls."""
    default = _replay(build, CostModel())
    assert default == _replay(build, CostModel().scaled(kfunc_call=80))


def test_memory_wrapper_refuses_pure_ebpf():
    with pytest.raises(ValueError, match="no eBPF equivalent"):
        MemoryWrapper(BpfRuntime(mode=ExecMode.PURE_EBPF))


#: ``CostModel`` fields that hold one mode's cost of a library operation.
MODE_FIELDS = {
    "kfunc_call", "kernel_call", "kmalloc", "kfree", "bpf_obj_free",
    "get_next_kernel", "get_next_kfunc", "eager_check",
} | {f.name for f in fields(CostModel) if re.fullmatch(r"node_\w+_kernel", f.name)}

#: The modules allowed to read them: the cost model and the price list.
READERS = {"ebpf/cost_model.py", "core/kfunc.py"}


def _attribute_reads(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        (node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in MODE_FIELDS
    }


def test_mode_fields_read_only_by_the_price_list():
    assert MODE_FIELDS <= {f.name for f in fields(CostModel)}
    assert len(MODE_FIELDS) == 11
    readers = {}
    for path in sorted(SRC.rglob("*.py")):
        reads = _attribute_reads(path)
        if reads:
            readers[path.relative_to(SRC).as_posix()] = reads
    assert set(readers) <= READERS, {
        name: sorted(reads) for name, reads in readers.items()
        if name not in READERS
    }
    # The price list reads every one of them, so none is unpriced.
    assert {attr for attr, _ in readers["core/kfunc.py"]} == MODE_FIELDS
