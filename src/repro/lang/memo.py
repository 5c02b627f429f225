"""Per-object memo tables for immutable AST nodes.

AST nodes are frozen, so anything computed from one node object alone
(its printed lines, its complexity tally, the environment it was
type-checked under) can be computed once and reused for as long as the
object exists.  The memo lives in a side table, not on the node:

* a frozen dataclass hashes and compares deeply, so the table is keyed
  by ``id()`` and guarded by a weak reference (a ``WeakKeyDictionary``
  would hash every key in full);
* nothing is attached to the node, so pickling a package is
  byte-identical before and after it has been analyzed, printed,
  fingerprinted or measured.

An entry is dropped when its node is collected.  A value must not refer
back to its own node, or the node would never be collected.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Tuple

__all__ = ["ObjectMemo"]


class _Ref(weakref.ref):
    """A weak reference that remembers the table key it guards."""

    __slots__ = ("key",)

    def __new__(cls, obj, callback, key):
        self = super().__new__(cls, obj, callback)
        self.key = key
        return self

    def __init__(self, obj, callback, key):
        super().__init__(obj, callback)


class ObjectMemo:
    """``obj -> value`` for live objects, keyed by identity."""

    __slots__ = ("_table", "_drop")

    def __init__(self):
        table: Dict[int, Tuple[_Ref, Any]] = {}

        def drop(ref):
            entry = table.get(ref.key)
            if entry is not None and entry[0] is ref:
                del table[ref.key]

        self._table = table
        self._drop = drop

    def get(self, obj, default=None):
        entry = self._table.get(id(obj))
        if entry is not None and entry[0]() is obj:
            return entry[1]
        return default

    def put(self, obj, value):
        key = id(obj)
        self._table[key] = (_Ref(obj, self._drop, key), value)
        return value

    def __len__(self) -> int:
        return len(self._table)
