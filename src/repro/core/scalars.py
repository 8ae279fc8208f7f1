"""Scalar model objects: integers, reals, and strings (paper section 2.1).

Scalars hold a single Python value in a VT-sorted
:class:`~repro.core.history.ValueHistory`.  ``get``/``set`` inside a
transaction record read times and register writes for propagation; ``get``
outside a transaction returns the current (optimistic) value, which is what
controllers and ad-hoc readers see.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple, Type

from repro.core.history import ValueHistory
from repro.core.messages import OpPayload
from repro.core.model import ModelObject
from repro.errors import ReproError
from repro.vtime import VirtualTime


class ScalarObject(ModelObject):
    """Common machinery for single-valued model objects."""

    kind = "scalar"
    value_types: Tuple[Type, ...] = (object,)

    def __init__(
        self,
        site: "Any",
        name: str,
        initial: Any,
        parent: Optional[ModelObject] = None,
        embed_vt: Optional[VirtualTime] = None,
        key: Any = None,
    ) -> None:
        super().__init__(site, name, parent=parent, embed_vt=embed_vt, key=key)
        self._validate(initial)
        self.history: ValueHistory = ValueHistory(initial)

    def _validate(self, value: Any) -> None:
        if not isinstance(value, self.value_types):
            allowed = "/".join(t.__name__ for t in self.value_types)
            raise TypeError(f"{type(self).__name__} holds {allowed}, got {type(value).__name__}")

    # ------------------------------------------------------------------
    # User-facing reads and writes
    # ------------------------------------------------------------------

    def get(self) -> Any:
        """Read the value.

        Inside a transaction this records the read time (for the RL guess)
        and any RC dependency on an uncommitted writer; outside it returns
        the current optimistic value.
        """
        ctx = self.site.current_txn
        if ctx is not None:
            return ctx.read(self)
        return self.history.current().value

    def set(self, value: Any) -> None:
        """Write the value; must be called inside a transaction."""
        self._validate(value)
        ctx = self.site.require_txn("set")
        ctx.write(self, OpPayload(kind="set", args=(value,)))

    def committed_value(self) -> Any:
        """The latest committed value (what a pessimistic view would show)."""
        return self.history.committed_current().value

    # ------------------------------------------------------------------
    # Snapshot interface
    # ------------------------------------------------------------------

    def value_at(self, vt: VirtualTime, committed_only: bool = False) -> Any:
        if committed_only:
            return self.history.committed_read_at(vt).value
        return self.history.read_at(vt).value

    def current_value_vt(self) -> VirtualTime:
        return self.history.current().vt


class DInt(ScalarObject):
    """A replicated integer model object."""

    kind = "int"
    value_types = (int,)

    def _validate(self, value: Any) -> None:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"DInt holds int, got {type(value).__name__}")

    def add(self, delta: int) -> int:
        """Read-modify-write convenience: ``self = self + delta``."""
        new = self.get() + delta
        self.set(new)
        return new


class DFloat(ScalarObject):
    """A replicated real-number model object."""

    kind = "float"
    value_types = (int, float)

    def set(self, value: Any) -> None:
        super().set(float(value))

    def add(self, delta: float) -> float:
        new = float(self.get()) + delta
        self.set(new)
        return new


class DString(ScalarObject):
    """A replicated string model object."""

    kind = "string"
    value_types = (str,)

    def append(self, suffix: str) -> str:
        """Read-modify-write convenience: ``self = self + suffix``."""
        new = self.get() + suffix
        self.set(new)
        return new


#: Registry used by composite child construction and remote apply.
SCALAR_KINDS = {"int": DInt, "float": DFloat, "string": DString}


def scalar_class_for(kind: str) -> Type[ScalarObject]:
    try:
        return SCALAR_KINDS[kind]
    except KeyError:
        raise ReproError(f"unknown scalar kind {kind!r}")
