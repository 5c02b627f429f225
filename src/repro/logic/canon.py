"""Deterministic canonical serialization of terms.

Cache keys for proof obligations (:mod:`repro.exec.cache`) must be stable
across processes, and -- since the process backend promises verdicts
bit-identical to the serial backend (DESIGN.md §11) -- so must the
in-memory canonical form of every term.  The smart constructors
(:func:`repro.logic.builders._sorted_args`) order commutative arguments
by the :func:`fingerprint` defined here, which is independent of
construction order and process history.  Python hash randomization never
leaks into terms either (argument tuples, not sets, everywhere).

Two canonical views:

``fingerprint``     a Merkle-style SHA-256 digest computed bottom-up over
                    the DAG.  Commutative operators hash the *sorted*
                    tuple of child digests, and quantifier binder lists
                    are sorted, so the digest is independent of
                    construction order and process history.  Linear in
                    DAG size; this is what cache keys use.

``canonical_text``  a human-readable canonical rendering with the same
                    sorting rules and normalized single-space layout.
                    Tree-sized (shared subterms are printed at every
                    occurrence), so intended for the small terms that
                    survive simplification -- tests, debugging, and
                    golden output.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from .terms import COMMUTATIVE_OPS, Term
from .traversal import postorder_missing

__all__ = ["fingerprint", "canonical_text"]

#: Digest cache, keyed by interning id.  Terms are immutable and live for
#: the process lifetime (the interning table never evicts), so entries
#: never go stale.  Concurrent writes race benignly: every thread computes
#: the same digest for the same term.
_digest_cache: Dict[int, str] = {}


def _value_token(value) -> str:
    """A stable token for a node payload (int, bool, str, tuple of names,
    or None)."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ",".join(sorted(value))
    return repr(value)


def fingerprint(term: Term) -> str:
    """SHA-256 hex digest of the canonical form of ``term``.

    Stable across processes, interning order, and hash randomization:
    structurally equal terms (modulo commutative argument order and binder
    list order) always produce the same digest.
    """
    cache = _digest_cache
    hit = cache.get(term._id)
    if hit is not None:
        return hit
    # Post-order over the DAG so children are hashed before parents; the
    # walk prunes at already-digested subterms, so re-fingerprinting after
    # the DAG grows costs only the new nodes.
    for node in postorder_missing(term, cache):
        child = [cache[a._id] for a in node.args]
        if node.op in COMMUTATIVE_OPS:
            child = sorted(child)
        payload = "\x1f".join([node.op, _value_token(node.value)] + child)
        cache[node._id] = hashlib.sha256(payload.encode()).hexdigest()
    return cache[term._id]


_INFIX = {
    "and": "and", "or": "or", "implies": "->", "iff": "<->",
    "eq": "=", "lt": "<", "le": "<=",
    "add": "+", "mul": "*", "div": "div", "mod": "mod",
    "xor": "xor", "band": "&", "bor": "|",
    "shl": "<<", "shr": ">>", "sub": "-",
}


def canonical_text(term: Term, max_chars: int = 1_000_000) -> str:
    """Render ``term`` in a canonical, whitespace-normalized form.

    Commutative arguments and quantifier binder lists are sorted by their
    rendered text, so the output -- unlike :func:`repro.logic.printer.render`
    -- does not depend on interning order.  The result is truncated with an
    ellipsis at ``max_chars`` (canonical text is tree-sized; use
    :func:`fingerprint` for large or heavily shared terms).
    """
    memo: Dict[int, str] = {}
    for node in postorder_missing(term, memo):
        args = [memo[a._id] for a in node.args]
        if node.op in COMMUTATIVE_OPS:
            args = sorted(args)
        op = node.op
        if op == "int":
            text = str(node.value)
        elif op == "bool":
            text = "true" if node.value else "false"
        elif op == "var":
            text = str(node.value)
        elif op == "not":
            text = f"not({args[0]})"
        elif op == "bnot":
            text = f"bnot{node.value}({args[0]})"
        elif op == "neg":
            text = f"-({args[0]})"
        elif op == "ite":
            text = f"(if {args[0]} then {args[1]} else {args[2]})"
        elif op == "select":
            text = f"{args[0]}[{args[1]}]"
        elif op == "store":
            text = f"store({args[0]}, {args[1]}, {args[2]})"
        elif op == "apply":
            text = f"{node.value}({', '.join(args)})"
        elif op in ("forall", "exists"):
            names = ", ".join(sorted(node.value))
            text = f"({op} {names}: {args[0]})"
        elif op in _INFIX:
            text = "(" + f" {_INFIX[op]} ".join(args) + ")"
        else:
            text = f"{op}({', '.join(args)})"
        memo[node._id] = text
    out = memo[term._id]
    if len(out) > max_chars:
        return out[:max_chars] + "…"
    return out
