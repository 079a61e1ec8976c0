"""Exception types raised by the eNetSTL library simulation.

In the real system most of these conditions are *prevented statically*
by the eBPF verifier (guided by kfunc metadata) or dynamically by the
memory wrapper's bookkeeping; here they surface as exceptions so tests
can assert exactly which misuses are caught.
"""


class ENetStlError(Exception):
    """Base class for all eNetSTL errors."""


class OwnershipError(ENetStlError):
    """Proxy-ownership protocol violated (double adopt, foreign disown...)."""


class UseAfterFreeError(ENetStlError):
    """An operation touched memory that has already been freed."""


class InvalidSlotError(ENetStlError):
    """A connect/disconnect/get_next used an out- or in-slot index that
    the node was not allocated with."""


class DoubleFreeError(ENetStlError):
    """A node was released more times than it was referenced."""


class PoolEmptyError(ENetStlError):
    """A random pool was drained faster than reinjection could refill it."""
