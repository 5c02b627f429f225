"""Edit-aware cone fingerprints over a typed MiniAda package.

A subprogram's proof outcome depends on more than its own text: the
simplifier's :class:`~repro.vcgen.simplifier.TypeBoundHook` reads every
declared type range, constant, and subprogram signature, and the prover
instantiates proof rules and the contracts of referenced subprograms.
The *cone fingerprint* built here is therefore deliberately
conservative -- a Merkle-style SHA-256 over

* the **package context**: every declaration (types, constants, proof
  functions, proof rules) plus the signature line of every subprogram
  (the type-bound hook reads return types package-wide), and
* the **reference closure**: the printed text (header, annotations,
  body) of the subprogram and of every subprogram it transitively
  references by name.

Conservative is the operative word: a changed cone forces a re-check
even when the change could not actually alter the verdict (soundness is
free, precision costs only re-proving), while an unchanged cone
guarantees the previous run's verdicts still apply.  Like
:func:`~repro.exec.cache.package_fingerprint`, the per-package result is
memoized on the typed object -- packages are immutable after analysis.
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, FrozenSet

from ..lang.memo import ObjectMemo
from ..lang.printer import print_subprogram
from ..lang.typecheck import TypedPackage

__all__ = [
    "package_context_fingerprint", "subprogram_fingerprints",
    "reference_closure", "cone_fingerprints",
]

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _subprogram_text(sp) -> str:
    return "\n".join(print_subprogram(sp))


#: subprogram -> (digest of its printed text, identifiers in that text).
_TEXT_FACTS = ObjectMemo()


def _text_facts(sp):
    facts = _TEXT_FACTS.get(sp)
    if facts is None:
        text = _subprogram_text(sp)
        facts = _TEXT_FACTS.put(
            sp, (_sha(text), frozenset(_IDENT_RE.findall(text))))
    return facts


def _signature_line(sp) -> str:
    """The header of a subprogram's printed form: name, parameter modes
    and types, return type -- everything the package-wide type-bound
    hook can observe without looking at the body."""
    return print_subprogram(sp)[0]


def package_context_fingerprint(typed: TypedPackage) -> str:
    """Digest of everything *outside* subprogram bodies that can shape a
    discharge: the printed declarations and every subprogram's signature
    line."""
    from ..lang.printer import print_package
    import dataclasses
    pkg = typed.package
    decls_only = print_package(dataclasses.replace(pkg, subprograms=()))
    headers = "\n".join(_signature_line(sp) for sp in pkg.subprograms)
    return _sha(decls_only + "\x1f" + headers)


def subprogram_fingerprints(typed: TypedPackage) -> Dict[str, str]:
    """name -> digest of the subprogram's full printed text (header,
    ``--#`` annotations, body)."""
    return {sp.name: _text_facts(sp)[0] for sp in typed.package.subprograms}


def reference_closure(typed: TypedPackage) -> Dict[str, FrozenSet[str]]:
    """name -> the set of subprogram names its text transitively
    references (always including itself).

    References are found by scanning the printed text for identifiers
    that coincide with subprogram names -- an over-approximation (a
    comment or shadowing local would count), which errs exactly the safe
    way: a spurious edge only widens the cone.
    """
    names = {sp.name for sp in typed.package.subprograms}
    direct: Dict[str, FrozenSet[str]] = {}
    for sp in typed.package.subprograms:
        direct[sp.name] = (_text_facts(sp)[1] & names) | {sp.name}
    closure: Dict[str, FrozenSet[str]] = {}
    for name in direct:
        seen = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(direct.get(current, ()))
        closure[name] = frozenset(seen)
    return closure


def cone_fingerprints(typed: TypedPackage) -> Dict[str, str]:
    """name -> the cone fingerprint: SHA-256 over the package context
    digest plus the sorted ``(name, text-digest)`` pairs of the
    subprogram's reference closure.  Memoized on the typed object."""
    cached = getattr(typed, "_incr_cones", None)
    if cached is not None:
        return cached
    context = package_context_fingerprint(typed)
    texts = subprogram_fingerprints(typed)
    closure = reference_closure(typed)
    cones = {}
    for name, members in closure.items():
        parts = [context]
        for member in sorted(members):
            parts.append(member)
            parts.append(texts[member])
        cones[name] = _sha("\x1f".join(parts))
    try:
        typed._incr_cones = cones
    except AttributeError:   # __slots__-restricted object: recompute
        pass
    return cones
