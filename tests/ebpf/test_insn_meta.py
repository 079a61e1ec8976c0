"""Tests for the IR validation and kfunc metadata rules."""

import pytest

from repro.ebpf.insn import (
    Alu,
    Exit,
    Imm,
    Jmp,
    JmpIf,
    Mov,
    Program,
    R0,
    R10,
)
from repro.ebpf.kfunc_meta import (
    ARG_CONST,
    ARG_KPTR,
    ARG_SCALAR,
    KF_ACQUIRE,
    KF_RELEASE,
    KF_RET_NULL,
    KfuncMeta,
    KfuncRegistry,
    RET_KPTR,
    RET_SCALAR,
    VALID_PROG_TYPES,
    default_registry,
)


class TestInsnValidation:
    def test_invalid_register(self):
        with pytest.raises(ValueError):
            Mov(99, Imm(0))

    def test_r10_not_writable(self):
        with pytest.raises(ValueError):
            Mov(R10, Imm(0))
        with pytest.raises(ValueError):
            Alu("add", R10, Imm(8))

    def test_unknown_alu_op(self):
        with pytest.raises(ValueError):
            Alu("nand", R0, Imm(1))

    def test_unknown_jmp_op(self):
        with pytest.raises(ValueError):
            JmpIf("spaceship", R0, Imm(1), 0)

    def test_program_rejects_invalid_target(self):
        with pytest.raises(ValueError, match="invalid target"):
            Program([Jmp(5), Exit()])

    def test_program_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            Program([])

    def test_program_iteration(self):
        prog = Program([Mov(R0, Imm(0)), Exit()])
        assert len(prog) == 2
        assert isinstance(prog[1], Exit)


class TestKfuncMeta:
    def test_unknown_flag_rejected(self):
        with pytest.raises(ValueError, match="unknown flags"):
            KfuncMeta(name="f", flags=frozenset({"KF_BOGUS"}))

    def test_unknown_arg_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown arg kind"):
            KfuncMeta(name="f", args=("banana",))

    def test_too_many_args_rejected(self):
        with pytest.raises(ValueError, match="at most 5"):
            KfuncMeta(name="f", args=(ARG_SCALAR,) * 6)

    def test_acquire_requires_kptr_return(self):
        with pytest.raises(ValueError, match="kptr return"):
            KfuncMeta(name="f", ret=RET_SCALAR, flags=frozenset({KF_ACQUIRE}))

    def test_release_requires_kptr_release_arg(self):
        with pytest.raises(ValueError, match="kptr release argument"):
            KfuncMeta(name="f", args=(ARG_SCALAR,), flags=frozenset({KF_RELEASE}))
        with pytest.raises(ValueError, match="out of range"):
            KfuncMeta(
                name="f",
                args=(ARG_KPTR,),
                flags=frozenset({KF_RELEASE}),
                release_arg=3,
            )
        # Correct shapes are accepted.
        KfuncMeta(name="f", args=(ARG_KPTR,), flags=frozenset({KF_RELEASE}))
        KfuncMeta(
            name="g",
            args=(ARG_SCALAR, ARG_KPTR),
            flags=frozenset({KF_RELEASE}),
            release_arg=1,
        )

    def test_flag_properties(self):
        meta = KfuncMeta(
            name="f", ret=RET_KPTR, flags=frozenset({KF_ACQUIRE, KF_RET_NULL})
        )
        assert meta.acquires and meta.may_return_null and not meta.releases


class TestRegistry:
    def test_duplicate_registration_rejected(self):
        reg = KfuncRegistry()
        reg.define("f")
        with pytest.raises(ValueError, match="already registered"):
            reg.define("f")

    def test_lookup(self):
        reg = KfuncRegistry()
        meta = reg.define("f", args=(ARG_SCALAR,))
        assert reg.get("f") is meta
        assert "f" in reg
        assert reg.get("g") is None

    def test_default_registry_contents(self):
        reg = default_registry()
        assert "bpf_get_prandom_u32" in reg
        assert "bpf_map_lookup_elem" in reg
        assert reg.get("bpf_map_lookup_elem").may_return_null
        assert reg.get("bpf_obj_new").acquires
        assert reg.get("bpf_obj_drop").releases


class TestEnetstlRegistry:
    def test_full_api_surface_registered(self):
        from repro.core.kfunc import enetstl_registry

        reg = enetstl_registry()
        for name in (
            "node_alloc",
            "set_owner",
            "node_connect",
            "get_next",
            "node_release",
            "bpf_ffs64",
            "find_simd",
            "hw_hash_crc",
            "hash_simd_cnt",
            "bktlist_alloc",
            "bktlist_insert_front",
            "rpool_draw",
            "geo_rpool_alloc",
        ):
            assert name in reg, name

    def test_memory_wrapper_pairing_flags(self):
        from repro.core.kfunc import enetstl_registry

        reg = enetstl_registry()
        assert reg.get("node_alloc").acquires
        assert reg.get("node_alloc").may_return_null
        assert reg.get("get_next").acquires
        assert reg.get("get_next").may_return_null
        assert reg.get("node_release").releases

    def test_prog_type_scoping(self):
        from repro.core.kfunc import enetstl_registry

        reg = enetstl_registry()
        assert reg.get("node_alloc").prog_types == frozenset({"xdp", "tc"})


class TestRegistrationValidation:
    """Metadata constraints enforced when a kfunc is registered —
    malformed metas never reach the verifier."""

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty string"):
            KfuncMeta(name="")

    def test_release_arg_without_release_flag_rejected(self):
        with pytest.raises(ValueError, match="without KF_RELEASE"):
            KfuncMeta(name="f", args=(ARG_SCALAR, ARG_KPTR), release_arg=1)

    def test_size_arg_requires_kptr_return(self):
        with pytest.raises(ValueError, match="kptr return"):
            KfuncMeta(name="f", args=(ARG_CONST,), ret=RET_SCALAR, size_arg=0)

    def test_size_arg_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            KfuncMeta(name="f", args=(ARG_CONST,), ret=RET_KPTR, size_arg=2)

    def test_size_arg_must_be_const(self):
        with pytest.raises(ValueError, match="ARG_CONST"):
            KfuncMeta(name="f", args=(ARG_SCALAR,), ret=RET_KPTR, size_arg=0)

    def test_size_arg_valid_shape_accepted(self):
        meta = KfuncMeta(name="f", args=(ARG_CONST,), ret=RET_KPTR, size_arg=0)
        assert meta.size_arg == 0

    def test_empty_prog_types_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            KfuncMeta(name="f", prog_types=frozenset())

    def test_unknown_prog_type_rejected(self):
        with pytest.raises(ValueError, match="unknown program types"):
            KfuncMeta(name="f", prog_types=frozenset({"quantum_filter"}))

    def test_known_prog_types_accepted(self):
        meta = KfuncMeta(name="f", prog_types=frozenset(VALID_PROG_TYPES))
        assert meta.prog_types == VALID_PROG_TYPES

    def test_non_callable_impl_rejected(self):
        with pytest.raises(ValueError, match="callable"):
            KfuncMeta(name="f", impl=42)

    def test_obj_new_declares_size_arg(self):
        assert default_registry().get("bpf_obj_new").size_arg == 0
