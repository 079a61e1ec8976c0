"""Listing-style programs against the eNetSTL kfunc registry.

Each test writes the case-study usage pattern from §5 as IR and checks
the verifier's verdict: the documented call sequences pass, the
documented misuses fail.  These are the 'user manual' tests — if an
API's metadata changes incompatibly, they break first.
"""

import pytest

from repro.core.kfunc import enetstl_registry
from repro.ebpf.insn import (
    Call,
    Exit,
    Imm,
    Jmp,
    JmpIf,
    Mov,
    Program,
    R0,
    R1,
    R2,
    R3,
    R4,
    R6,
    R10,
)
from repro.ebpf.verifier import Verifier, VerifierError


@pytest.fixture
def verifier():
    return Verifier(enetstl_registry(), prog_type="xdp")


def verify(verifier, *insns):
    return verifier.verify(Program(list(insns), name="cs"))


def reject(verifier, *insns, match):
    with pytest.raises(VerifierError, match=match):
        verify(verifier, *insns)


class TestCaseStudy1MemoryWrapper:
    """Listing 3: list_add with the memory wrapper."""

    def test_listing3_list_add_shape(self, verifier):
        verify(
            verifier,
            # node_alloc(1, 1, 64)
            Mov(R1, Imm(1)),
            Mov(R2, Imm(1)),
            Mov(R3, Imm(64)),
            Call("node_alloc"),
            JmpIf("eq", R0, Imm(0), 17),    # NULL check (verifier-forced)
            Mov(R6, R0),
            # set_owner(proxy, node): proxy is a map value (stack stands in)
            Mov(R1, R10),
            Mov(R2, R6),
            Call("set_owner"),
            # node_write(node, 0, data, 16)
            Mov(R1, R6),
            Mov(R2, Imm(0)),
            Mov(R3, R10),
            Mov(R4, Imm(16)),
            Call("node_write"),
            # node_release(node) — the proxy keeps it alive
            Mov(R1, R6),
            Call("node_release"),
            Mov(R0, Imm(0)),
            Exit(),
        )

    def test_get_next_requires_null_check(self, verifier):
        reject(
            verifier,
            Mov(R1, Imm(1)),
            Mov(R2, Imm(1)),
            Mov(R3, Imm(8)),
            Call("node_alloc"),
            JmpIf("eq", R0, Imm(0), 12),
            Mov(R6, R0),
            Mov(R1, R6),
            Mov(R2, Imm(0)),
            Call("get_next"),
            Mov(R1, R0),                   # maybe-NULL straight into release
            Call("node_release"),
            Jmp(12),
            Mov(R0, Imm(0)),
            Exit(),
            match="may be NULL",
        )

    def test_node_alloc_sizes_must_be_constants(self, verifier):
        reject(
            verifier,
            Call("bpf_get_prandom_u32"),
            Mov(R1, R0),                   # runtime value as n_outs
            Mov(R2, Imm(1)),
            Mov(R3, Imm(8)),
            Call("node_alloc"),
            JmpIf("eq", R0, Imm(0), 8),
            Mov(R1, R0),
            Call("node_release"),
            Mov(R0, Imm(0)),
            Exit(),
            match="known constant",
        )


class TestCaseStudy3ListBuckets:
    """Listing 5: the time wheel over bktlist kfuncs."""

    def test_alloc_insert_destroy(self, verifier):
        verify(
            verifier,
            Mov(R1, Imm(256)),             # n_buckets (constant)
            Call("bktlist_alloc"),
            JmpIf("eq", R0, Imm(0), 12),
            Mov(R6, R0),
            # bktlist_insert_front(bl, i, data, size)
            Mov(R1, R6),
            Mov(R2, Imm(7)),
            Mov(R3, R10),
            Mov(R4, Imm(16)),
            Call("bktlist_insert_front"),
            Mov(R1, R6),
            Call("bktlist_destroy"),
            Jmp(12),
            Mov(R0, Imm(0)),
            Exit(),
        )

    def test_leaked_instance_rejected(self, verifier):
        reject(
            verifier,
            Mov(R1, Imm(256)),
            Call("bktlist_alloc"),
            JmpIf("eq", R0, Imm(0), 4),
            Mov(R0, Imm(0)),               # forgot bktlist_destroy/persist
            Exit(),
            Mov(R0, Imm(0)),
            Exit(),
            match="unreleased reference",
        )

    def test_persist_via_kptr_xchg(self, verifier):
        """Storing the instance in a BPF map is the release path the
        paper's case study actually uses."""
        verify(
            verifier,
            Mov(R1, Imm(256)),
            Call("bktlist_alloc"),
            JmpIf("eq", R0, Imm(0), 12),
            Mov(R2, R0),
            Mov(R1, R10),                  # map-value slot
            Call("bpf_kptr_xchg"),
            JmpIf("eq", R0, Imm(0), 10),
            Mov(R1, R0),                   # previously stored instance
            Call("bktlist_destroy"),
            Jmp(10),
            Mov(R0, Imm(0)),
            Exit(),
            Mov(R0, Imm(0)),
            Exit(),
        )


class TestRandomPoolPrograms:
    def test_geo_pool_lifecycle(self, verifier):
        verify(
            verifier,
            Mov(R1, Imm(2048)),            # capacity
            Mov(R2, Imm(4)),               # p encoded as 1/4
            Call("geo_rpool_alloc"),
            JmpIf("eq", R0, Imm(0), 9),
            Mov(R6, R0),
            Mov(R1, R6),
            Call("geo_rpool_draw"),
            Mov(R1, R6),
            Call("geo_rpool_destroy"),
            Mov(R0, Imm(0)),
            Exit(),
        )

    def test_draw_after_destroy_rejected(self, verifier):
        reject(
            verifier,
            Mov(R1, Imm(2048)),
            Call("rpool_alloc"),
            JmpIf("eq", R0, Imm(0), 9),
            Mov(R6, R0),
            Mov(R1, R6),
            Call("rpool_destroy"),
            Mov(R1, R6),                   # r6 invalidated by the release
            Call("rpool_draw"),
            Mov(R0, Imm(0)),
            Exit(),
            match="uninitialized",
        )


class TestAlgorithmKfuncs:
    def test_ffs_and_hash_calls(self, verifier):
        verify(
            verifier,
            Mov(R1, Imm(0xF0)),
            Call("bpf_ffs64"),
            Mov(R1, R10),
            Mov(R2, Imm(13)),
            Mov(R3, R0),
            Call("hw_hash_crc"),
            Exit(),
        )

    def test_find_simd_takes_len_constant(self, verifier):
        reject(
            verifier,
            Call("bpf_get_prandom_u32"),
            Mov(R1, R10),
            Mov(R2, R0),                  # runtime length
            Mov(R3, Imm(5)),
            Call("find_simd"),
            Exit(),
            match="known constant",
        )
