#!/usr/bin/env python3
"""The memory wrapper, step by step (case study 1).

Walks through exactly what Listing 3 of the paper does — allocating
nodes, delegating ownership to the proxy, connecting them, traversing
with zero-check ``get_next`` — and then demonstrates the two headline
safety behaviors:

1. lazy safety checking: freeing a node that others still point at
   nulls those pointers, so no use-after-free is observable;
2. allocation-failure handling: the NULL path the verifier forces.

Finishes with the full skip-list KV store the wrapper enables (the NF
that pure eBPF cannot express at all) and its kernel-gap measurement.

Run:  python examples/skiplist_kv_walkthrough.py
"""

from repro.core.memwrap import MemoryWrapper, NodeProxy
from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime
from repro.net.flowgen import FlowGenerator
from repro.net.xdp import XdpPipeline
from repro.nfs import SkipListKV


def wrapper_walkthrough() -> None:
    print("== the memory wrapper, Listing-3 style ==")
    rt = BpfRuntime(mode=ExecMode.ENETSTL, seed=1)
    w = MemoryWrapper(rt)
    proxy = NodeProxy("list")     # lives in a BPF map

    # list_add: alloc, adopt, connect behind the head.
    head = w.node_alloc(1, 1, 8)
    w.set_owner(proxy, head)
    new_entry = w.node_alloc(1, 1, 16)
    if new_entry is None:          # KF_RET_NULL: mandatory check
        raise SystemExit("allocation failed")
    w.set_owner(proxy, new_entry)
    w.node_connect(head, 0, new_entry, 0)
    w.node_write(new_entry, 0, b"payload")
    w.node_release(new_entry)      # the proxy keeps it alive
    print(f"  proxy owns {len(proxy)} nodes "
          f"(a *variable* number — the thing plain eBPF cannot persist)")

    # Traversal: zero safety checks per get_next.
    nxt = w.get_next(head, 0)
    print(f"  head->next payload: {nxt.read(0, 7)!r}")
    w.node_release(nxt)

    # Lazy safety checking: free new_entry WITHOUT disconnecting it.
    w.unset_owner(proxy, new_entry)
    print(f"  freed head's successor without disconnecting it first...")
    print(f"  get_next(head) now returns: {w.get_next(head, 0)}  (not a dangling pointer)")

    # Allocation failure path.
    w.fail_next_alloc()
    node = w.node_alloc(1, 1, 8)
    print(f"  injected kmalloc failure -> node_alloc returned {node}")
    w.node_release(head)
    proxy.drop_all(w)


def skiplist_measurement() -> None:
    print("\n== skip-list KV on the wrapper (infeasible in pure eBPF) ==")
    flows = FlowGenerator(n_flows=8192, seed=3)
    keys = [f.key_int for f in flows.flows]
    trace = flows.trace(8000)
    results = {}
    for mode in (ExecMode.KERNEL, ExecMode.ENETSTL):
        rt = BpfRuntime(mode=mode, seed=3)
        nf = SkipListKV(rt)
        nf.populate(keys)   # uncharged set-up, as a control plane fills it
        results[mode] = XdpPipeline(nf).run(trace)
        print(f"  {mode.label:8s}: {results[mode].mpps:5.2f} Mpps "
              f"(lookups over {len(keys)} keys)")
    gap = 1 - results[ExecMode.ENETSTL].pps / results[ExecMode.KERNEL].pps
    print(f"  eNetSTL gap to the kernel build: {gap:.2%} "
          f"(paper: 7.33% for lookups)")


def main() -> None:
    wrapper_walkthrough()
    skiplist_measurement()


if __name__ == "__main__":
    main()
