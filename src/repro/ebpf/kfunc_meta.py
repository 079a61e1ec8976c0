"""Kfunc metadata registry.

BPF kernel functions (kfuncs) expose module functionality to eBPF
programs.  Crucially, *the verifier validates usage against developer-
supplied metadata rather than the function bodies* (§4.1).  eNetSTL's
safety-interaction story is built entirely on this mechanism: every
library API is registered here with flags the verifier enforces.

Flags mirror the kernel's:

- ``KF_ACQUIRE``: the call returns a referenced kernel pointer the
  program now owns and must release (or persist) before exiting.
- ``KF_RELEASE``: the call consumes (releases) a referenced pointer
  passed as its first argument.
- ``KF_RET_NULL``: the returned pointer may be NULL; the program must
  null-check it before dereferencing or passing it onward.

Argument specs model the annotation-by-suffix convention (e.g.
``val__k`` forcing a constant): each argument is declared ``scalar``,
``ptr`` (any valid pointer), ``kptr`` (a valid, non-null kfunc
pointer), or ``const`` (a compile-time-constant scalar).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

KF_ACQUIRE = "KF_ACQUIRE"
KF_RELEASE = "KF_RELEASE"
KF_RET_NULL = "KF_RET_NULL"

VALID_FLAGS = frozenset({KF_ACQUIRE, KF_RELEASE, KF_RET_NULL})

ARG_SCALAR = "scalar"
ARG_PTR = "ptr"
ARG_KPTR = "kptr"
ARG_CONST = "const"

VALID_ARG_KINDS = frozenset({ARG_SCALAR, ARG_PTR, ARG_KPTR, ARG_CONST})

RET_SCALAR = "scalar"
RET_KPTR = "kptr"
RET_VOID = "void"

#: Program types a kfunc may restrict itself to (``prog_types=None``
#: means callable from any type).
VALID_PROG_TYPES = frozenset(
    {"xdp", "tc", "socket_filter", "tracing", "cgroup_skb"}
)


@dataclass(frozen=True)
class KfuncMeta:
    """Metadata the verifier enforces for one kfunc.

    ``release_arg`` selects which argument a ``KF_RELEASE`` call
    consumes (0-based; defaults to the first).  ``bpf_kptr_xchg`` uses
    this: it releases its *second* argument (the kptr being persisted
    into the map) while returning the previously stored one.

    ``size_arg`` names the ``ARG_CONST`` argument holding the byte size
    of the returned kernel region (the ``size__k`` convention, as in
    ``bpf_obj_new``).  The verifier bounds accesses through the
    returned kptr by that constant instead of the default
    ``KPTR_REGION_SIZE``; implementations must allocate exactly the
    declared size (capped at ``KPTR_REGION_SIZE``).

    Every constraint is validated *at registration time* — a bad meta
    never reaches the verifier, mirroring how the kernel rejects
    malformed kfunc ID sets at module load, not at program load.
    """

    name: str
    args: Tuple[str, ...] = ()
    ret: str = RET_SCALAR
    flags: frozenset = frozenset()
    prog_types: Optional[frozenset] = None  # None = any program type
    impl: Optional[Callable] = None
    release_arg: int = 0
    size_arg: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"kfunc name must be a non-empty string: {self.name!r}")
        bad = set(self.flags) - VALID_FLAGS
        if bad:
            raise ValueError(f"{self.name}: unknown flags {sorted(bad)}")
        for a in self.args:
            if a not in VALID_ARG_KINDS:
                raise ValueError(f"{self.name}: unknown arg kind {a!r}")
        if len(self.args) > 5:
            raise ValueError(f"{self.name}: kfuncs take at most 5 args (r1-r5)")
        if self.ret not in (RET_SCALAR, RET_KPTR, RET_VOID):
            raise ValueError(f"{self.name}: unknown return kind {self.ret!r}")
        if KF_ACQUIRE in self.flags and self.ret != RET_KPTR:
            raise ValueError(f"{self.name}: KF_ACQUIRE requires a kptr return")
        if KF_RELEASE in self.flags:
            if not 0 <= self.release_arg < len(self.args):
                raise ValueError(
                    f"{self.name}: release_arg {self.release_arg} out of range"
                )
            if self.args[self.release_arg] != ARG_KPTR:
                raise ValueError(
                    f"{self.name}: KF_RELEASE requires a kptr release argument"
                )
        elif self.release_arg != 0:
            raise ValueError(
                f"{self.name}: release_arg without KF_RELEASE has no effect"
            )
        if self.size_arg is not None:
            if self.ret != RET_KPTR:
                raise ValueError(
                    f"{self.name}: size_arg requires a kptr return"
                )
            if not 0 <= self.size_arg < len(self.args):
                raise ValueError(
                    f"{self.name}: size_arg {self.size_arg} out of range"
                )
            if self.args[self.size_arg] != ARG_CONST:
                raise ValueError(
                    f"{self.name}: size_arg must name an ARG_CONST argument"
                )
        if self.prog_types is not None:
            if not self.prog_types:
                raise ValueError(
                    f"{self.name}: prog_types must be None (any) or non-empty"
                )
            unknown = set(self.prog_types) - VALID_PROG_TYPES
            if unknown:
                raise ValueError(
                    f"{self.name}: unknown program types {sorted(unknown)}"
                )
        if self.impl is not None and not callable(self.impl):
            raise ValueError(f"{self.name}: impl must be callable")

    @property
    def acquires(self) -> bool:
        return KF_ACQUIRE in self.flags

    @property
    def releases(self) -> bool:
        return KF_RELEASE in self.flags

    @property
    def may_return_null(self) -> bool:
        return KF_RET_NULL in self.flags


class KfuncRegistry:
    """Name -> metadata registry shared by the verifier and the VM."""

    def __init__(self) -> None:
        self._by_name: Dict[str, KfuncMeta] = {}

    def register(self, meta: KfuncMeta) -> KfuncMeta:
        if meta.name in self._by_name:
            raise ValueError(f"kfunc {meta.name!r} already registered")
        self._by_name[meta.name] = meta
        return meta

    def define(
        self,
        name: str,
        args: Iterable[str] = (),
        ret: str = RET_SCALAR,
        flags: Iterable[str] = (),
        prog_types: Optional[Iterable[str]] = None,
        impl: Optional[Callable] = None,
        release_arg: int = 0,
        size_arg: Optional[int] = None,
    ) -> KfuncMeta:
        """Convenience constructor + register."""
        return self.register(
            KfuncMeta(
                name=name,
                args=tuple(args),
                ret=ret,
                flags=frozenset(flags),
                prog_types=frozenset(prog_types) if prog_types is not None else None,
                impl=impl,
                release_arg=release_arg,
                size_arg=size_arg,
            )
        )

    def get(self, name: str) -> Optional[KfuncMeta]:
        return self._by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)


def default_registry() -> KfuncRegistry:
    """A registry preloaded with the baseline helpers programs expect."""
    reg = KfuncRegistry()
    reg.define("bpf_get_prandom_u32", args=(), ret=RET_SCALAR)
    reg.define("bpf_ktime_get_ns", args=(), ret=RET_SCALAR)
    reg.define(
        "bpf_map_lookup_elem",
        args=(ARG_SCALAR, ARG_PTR),
        ret=RET_KPTR,
        flags=(KF_RET_NULL,),
    )
    reg.define("bpf_map_update_elem", args=(ARG_SCALAR, ARG_PTR, ARG_PTR))
    reg.define(
        "bpf_obj_new",
        args=(ARG_CONST,),
        ret=RET_KPTR,
        flags=(KF_ACQUIRE, KF_RET_NULL),
        size_arg=0,
    )
    reg.define("bpf_obj_drop", args=(ARG_KPTR,), ret=RET_VOID, flags=(KF_RELEASE,))
    # Persist an acquired kptr into a map slot, getting the previously
    # stored pointer back: releases arg 2, returns an acquired
    # maybe-null kptr (the verifier's third rule for kptrs).
    reg.define(
        "bpf_kptr_xchg",
        args=(ARG_PTR, ARG_KPTR),
        ret=RET_KPTR,
        flags=(KF_ACQUIRE, KF_RELEASE, KF_RET_NULL),
        release_arg=1,
    )
    # eNetSTL library kfuncs (§4): per-packet data-structure work —
    # sketch maintenance, consistent-hash backend selection — lives in
    # native library code behind a kfunc, not in interpreted BPF.
    reg.define(
        "enetstl_cm_update",
        args=(ARG_SCALAR,),
        ret=RET_SCALAR,
        prog_types=("xdp", "tc"),
    )
    reg.define(
        "enetstl_maglev_pick",
        args=(ARG_SCALAR,),
        ret=RET_SCALAR,
        prog_types=("xdp", "tc"),
    )
    return reg
