"""``repro.xp`` -- the array-op seam of the hot path.

The physics modules call a fixed surface of data-parallel primitives
(:data:`~repro.xp.base.OP_NAMES`) as ``xp.zeros`` / ``xp.segment_sum``
/ ``xp.einsum``; each call resolves against the active backend at call
time.  There is one runtime, ``numpy``
(:class:`~repro.xp.base.ArrayBackend`, the literal NumPy calls), and it
is always the default: nothing outside the process selects a backend.

The indirection is kept as a substitution point for instrumentation:
``bench/layers.py`` registers a backend that times every op and
delegates to the one it replaced, and tests count ops the same way.

>>> from repro import xp
>>> @xp.register_backend
... class Counting(xp.ArrayBackend):
...     name = "counting"
>>> backend = xp.set_backend("counting")

A runtime that beats ``numpy`` on a ``BENCHMARK.json`` workload would
plug into the same three steps (subclass, name, register).
"""

from __future__ import annotations

from repro.xp.base import OP_NAMES, ArrayBackend

__all__ = [
    "ArrayBackend",
    "OP_NAMES",
    "UnknownBackendError",
    "get_backend",
    "register_backend",
    "registered_backends",
    "set_backend",
    *OP_NAMES,
]


class UnknownBackendError(RuntimeError):
    """The requested backend name is not registered."""


#: name -> instance; the reference runtime is always present
_REGISTRY: dict[str, ArrayBackend] = {ArrayBackend.name: ArrayBackend()}
_active: ArrayBackend = _REGISTRY[ArrayBackend.name]


def register_backend(cls: type[ArrayBackend]) -> type[ArrayBackend]:
    """Register a backend class under its ``name`` (usable as a
    decorator), making it selectable by :func:`set_backend`.  The class
    must subclass :class:`ArrayBackend` and set a ``name`` of its own."""
    if not issubclass(cls, ArrayBackend):
        raise TypeError(f"{cls!r} does not subclass ArrayBackend")
    if not cls.name or cls.name == ArrayBackend.name:
        raise ValueError("backend classes must define a distinct 'name'")
    _REGISTRY[cls.name] = cls()
    return cls


def registered_backends() -> list[str]:
    """Every registered backend name."""
    return sorted(_REGISTRY)


def _instance(name: str) -> ArrayBackend:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(
            f"unknown backend {name!r}; registered: {', '.join(registered_backends())}"
        ) from None


def set_backend(name: str) -> ArrayBackend:
    """Make the named backend the process-wide active one."""
    global _active
    _active = _instance(name)
    return _active


def get_backend() -> ArrayBackend:
    """The active backend (``numpy`` unless one was set)."""
    return _active


def __getattr__(op: str):
    """Module-level op dispatch: ``xp.zeros(...)`` resolves against the
    active backend at call time, so a ``set_backend`` switch reroutes
    every subsequent hot-path primitive without re-imports."""
    if op in OP_NAMES:
        return getattr(_active, op)
    raise AttributeError(f"module 'repro.xp' has no attribute {op!r}")
