"""Differential tests for the MiniAda AST traversal kernel.

The kernel (``repro.lang.ast``) reads each node class's fields from a
per-class table instead of calling ``dataclasses.fields`` per node, and
``complexity_metrics`` tallies each subprogram in one walk instead of
four.  The pre-kernel algorithms are kept verbatim below as references
(confined to this file) and run against the kernel on the three AES
packages, on every applicable candidate of one planner expansion of the
optimized AES, and on the generated programs of ``test_properties``.
Walks must yield the very same objects, rebuilds must keep identity
when nothing changes, and every metric and fingerprint must be equal.
"""

import dataclasses
import hashlib
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from repro.exec import package_fingerprint
from repro.lang import analyze, ast, parse_package, print_package
from repro.lang.errors import MiniAdaError
from repro.metrics import complexity_metrics, element_metrics
from repro.metrics.complexity import (
    ComplexityMetrics, SubprogramComplexity, _loop_nesting, mccabe,
)
from repro.metrics.elements import count_statements
from repro.spec import ast as spec_ast

from .test_properties import small_programs


# ---------------------------------------------------------------------------
# Reference implementations (the pre-kernel algorithms).
# ---------------------------------------------------------------------------

def _ref_children(node):
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if isinstance(value, ast.Node):
            yield value
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, ast.Node):
                    yield item
                elif isinstance(item, tuple):
                    for sub in item:
                        if isinstance(sub, ast.Node):
                            yield sub
                        elif isinstance(sub, tuple):
                            for s in sub:
                                if isinstance(s, ast.Node):
                                    yield s


def _ref_walk(node):
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(list(_ref_children(current))))


def _ref_count_nodes(node):
    return sum(1 for _ in _ref_walk(node))


def _ref_rebuild_value(value, fn):
    if isinstance(value, ast.Node):
        return _ref_transform_bottom_up(value, fn)
    if isinstance(value, tuple):
        return tuple(_ref_rebuild_value(item, fn) for item in value)
    return value


def _ref_transform_bottom_up(node, fn):
    updates = {}
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        new_value = _ref_rebuild_value(value, fn)
        if new_value != value:
            updates[field.name] = new_value
    if updates:
        node = dataclasses.replace(node, **updates)
    result = fn(node)
    return node if result is None else result


def _ref_decision_points(node):
    count = 0
    for n in _ref_walk(node):
        if isinstance(n, ast.If):
            count += len(n.branches)
        elif isinstance(n, (ast.For, ast.While)):
            count += 1
        elif isinstance(n, ast.BinOp) and n.op in ("and_then", "or_else"):
            count += 1
    return count


def _ref_mccabe(sp):
    return 1 + sum(_ref_decision_points(s) for s in sp.body)


def _ref_essential(sp):
    returns = [n for n in _ref_walk(sp) if isinstance(n, ast.Return)]
    extra_exits = max(0, len(returns) - (1 if sp.is_function else 0))
    return 1 + extra_exits


def _ref_short_circuit(sp):
    return sum(1 for n in _ref_walk(sp)
               if isinstance(n, ast.BinOp) and n.op in ("and_then", "or_else"))


def _ref_statement_complexity(sp):
    statements = count_statements(sp.body)
    if statements == 0:
        return 0.0
    nodes = sum(_ref_count_nodes(s) for s in sp.body
                if not isinstance(s, ast.Assert))
    return nodes / statements


def _ref_complexity_metrics(pkg):
    per = {}
    for sp in pkg.subprograms:
        per[sp.name] = SubprogramComplexity(
            name=sp.name,
            mccabe=_ref_mccabe(sp),
            essential=_ref_essential(sp),
            statement_complexity=_ref_statement_complexity(sp),
            short_circuit=_ref_short_circuit(sp),
            loop_nesting=_loop_nesting(sp.body),
        )
    return ComplexityMetrics(per_subprogram=per)


def _ref_walk_spec(node):
    yield node
    if dataclasses.is_dataclass(node):
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            if isinstance(value, spec_ast.SNode):
                yield from _ref_walk_spec(value)
            elif isinstance(value, tuple):
                for item in value:
                    if isinstance(item, spec_ast.SNode):
                        yield from _ref_walk_spec(item)
                    elif isinstance(item, tuple):
                        for sub in item:
                            if isinstance(sub, spec_ast.SNode):
                                yield from _ref_walk_spec(sub)


# ---------------------------------------------------------------------------
# The differential check
# ---------------------------------------------------------------------------

def _rename(node):
    if isinstance(node, ast.Name):
        return ast.Name(id=node.id + "_r")
    return None


def _assert_kernel_matches_reference(typed):
    pkg = typed.package
    walked = list(ast.walk(pkg))
    reference = list(_ref_walk(pkg))
    assert len(walked) == len(reference)
    assert all(a is b for a, b in zip(walked, reference))
    for node in walked:
        kids, ref_kids = list(ast.children(node)), list(_ref_children(node))
        assert len(kids) == len(ref_kids)
        assert all(a is b for a, b in zip(kids, ref_kids))
    for sp in pkg.subprograms:
        assert ast.count_nodes(sp) == _ref_count_nodes(sp)
        assert mccabe(sp) == _ref_mccabe(sp)

    assert ast.transform_bottom_up(pkg, lambda n: n) is pkg
    assert _ref_transform_bottom_up(pkg, lambda n: n) is pkg
    renamed = ast.transform_bottom_up(pkg, _rename)
    assert renamed == _ref_transform_bottom_up(pkg, _rename)

    assert complexity_metrics(pkg) == _ref_complexity_metrics(pkg)
    source = print_package(pkg)
    assert element_metrics(pkg, source=source) == element_metrics(pkg)
    digest = hashlib.sha256(source.encode()).hexdigest()
    # Fresh holders: the fingerprint is memoized on the typed object.
    assert package_fingerprint(SimpleNamespace(package=pkg),
                               source=source) == digest
    assert package_fingerprint(SimpleNamespace(package=pkg)) == digest


@pytest.mark.parametrize("which", ["optimized", "annotated", "refactored"])
def test_kernel_on_aes_packages(which):
    from repro import aes
    typed = getattr(aes, f"{which}_package")()
    _assert_kernel_matches_reference(typed)


def test_kernel_on_every_candidate_of_one_expansion():
    """The planner's static tier sees these states: every applicable
    candidate of the optimized AES root."""
    from repro.aes.fips197 import fips197_theory
    from repro.aes.optimized import optimized_package
    from repro.extract import match_ratio
    from repro.extract.skeleton import extract_skeleton
    from repro.plan.candidates import enumerate_candidates
    from repro.plan.catalog import aes_catalog
    from repro.refactor.engine import TransformationError

    root = optimized_package()
    reference = fips197_theory()
    match = match_ratio(reference, extract_skeleton(root)).ratio
    candidates = enumerate_candidates(
        root, match, aes_catalog(), frozenset(), reference,
        observables=("Cipher", "Inv_Cipher"))
    applied = 0
    for candidate in candidates:
        try:
            child = analyze(candidate.transformation.apply(root))
        except (TransformationError, MiniAdaError):
            continue
        _assert_kernel_matches_reference(child)
        applied += 1
    assert applied >= 10


@given(small_programs())
@settings(max_examples=30, deadline=None)
def test_kernel_on_generated_programs(source):
    _assert_kernel_matches_reference(analyze(parse_package(source)))


def test_transform_keeps_fn_call_order():
    """``fn`` sees the same nodes in the same order as the reference."""
    from repro.aes import refactored_package
    pkg = refactored_package().package
    seen, ref_seen = [], []
    ast.transform_bottom_up(pkg, lambda n: seen.append(n))
    _ref_transform_bottom_up(pkg, lambda n: ref_seen.append(n))
    assert len(seen) == len(ref_seen)
    assert all(a is b for a, b in zip(seen, ref_seen))


def test_walk_spec_matches_recursive_reference():
    from repro.aes.fips197 import fips197_theory
    theory = fips197_theory()
    walked = list(spec_ast.walk_spec(theory))
    reference = list(_ref_walk_spec(theory))
    assert len(walked) == len(reference) > 100
    assert all(a is b for a, b in zip(walked, reference))


def test_field_tables():
    assert ast.field_names(ast.For) == ("var", "lo", "hi", "body", "reverse")
    assert ast.child_fields(ast.For) == ("lo", "hi", "body")
    assert ast.child_fields(ast.Name) == ()
    assert ast.child_fields(spec_ast.FunDef) == (
        "params", "return_type", "body", "measure")
