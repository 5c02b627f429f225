"""The Echo verifier: the paper's end-to-end process (section 3).

``EchoVerifier`` binds the pieces together for an arbitrary MiniAda
program + MiniPVS specification pair:

1. apply verification-refactoring transformations (each checked by a
   semantics-preservation theorem over the observable interface);
2. attach the low-level specification (annotations) and run the
   implementation proof;
3. extract the high-level specification (reverse synthesis);
4. prove the implication theorem against the original specification.

``verify_aes()`` instantiates the whole thing for the AES case study.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..exec.config import ExecConfig, coerce_exec_config
from ..extract import extract_specification, match_ratio
from ..implication import prove_implication
from ..lang import TypedPackage, analyze, ast, print_package
from ..prover import ImplementationProof, ProofScript
from ..refactor import RefactoringEngine, Transformation
from ..spec import ast as sast
from ..spec import spec_line_count
from .results import EchoResult

__all__ = ["EchoVerifier", "verify_aes"]


class EchoVerifier:
    """Drives the Echo process for one program against one specification."""

    def __init__(self, package: ast.Package, specification: sast.Theory,
                 observables: Sequence[str],
                 samplers: Optional[dict] = None,
                 check: str = "full", trials: int = 24,
                 exec: Optional["ExecConfig"] = None):
        """``exec`` configures the obligation execution layer
        (:mod:`repro.exec`) -- backend, job count, cache, telemetry,
        timeouts -- for all three proof legs (the PR-3 era bare
        ``jobs``/``cache``/``telemetry`` shims are gone and raise
        ``TypeError``).  By default each verifier gets its own
        :class:`Telemetry`, whose aggregate statistics land on the
        resulting :class:`~repro.core.results.EchoResult`."""
        from ..exec import Telemetry
        config = coerce_exec_config(exec, owner="EchoVerifier")
        if config.telemetry is None:
            config = config.with_telemetry(Telemetry())
        self.exec = config
        self.telemetry = config.telemetry
        self.engine = RefactoringEngine(package, observables=observables,
                                        check=check, trials=trials,
                                        samplers=samplers, exec=config)
        self.specification = specification
        self.applications = []

    def refactor(self, transformations: Sequence[Transformation]):
        """Apply a series of transformations (the figure-1 loop body)."""
        for transformation in transformations:
            self.applications.append(self.engine.apply(transformation))
        return self.applications

    def verify(self,
               annotate: Optional[Callable[[str], TypedPackage]] = None,
               scripts: Optional[Dict[str, Sequence[ProofScript]]] = None,
               ) -> EchoResult:
        """Run the two Echo proofs on the current (refactored) program.

        ``annotate`` maps the refactored source text to an annotated
        TypedPackage (the developer writing the low-level specification);
        without it the program is verified with its in-source annotations
        only."""
        source = print_package(self.engine.package)
        typed = annotate(source) if annotate is not None \
            else self.engine.typed

        implementation = ImplementationProof(
            typed, scripts=scripts, exec=self.exec).run()

        extraction = extract_specification(typed)
        match = match_ratio(self.specification, extraction.theory)
        implication = prove_implication(self.specification,
                                        extraction.theory, exec=self.exec)

        from ..metrics import element_metrics
        return EchoResult(
            applications=list(self.applications),
            implementation=implementation,
            implication=implication,
            match=match,
            extracted_lines=spec_line_count(extraction.theory),
            refactored_lines=element_metrics(typed.package).lines_of_code,
            exec_stats=self.telemetry.stats(),
        )


def verify_aes(check: str = "differential", trials: int = 6,
               exec: Optional["ExecConfig"] = None) -> EchoResult:
    """The complete AES verification: optimized implementation, 14
    transformation blocks, annotation, implementation proof, extraction,
    implication against FIPS-197.

    ``exec=ExecConfig(jobs=N, backend='process')`` fans proof obligations
    out over worker processes; the default is the guaranteed-deterministic
    serial path.  An ``ExecConfig`` carrying a shared
    :class:`~repro.exec.ResultCache` across calls makes repeat
    verification incremental (unchanged obligations replay from cache).
    ``exec=ExecConfig(backend='remote', remote_workers=(...,))`` shards
    them across worker hosts (DESIGN.md §16)."""
    from ..aes.annotations import build_annotated
    from ..aes.blocks import AESPipeline, transformation_blocks, \
        cipher_sampler
    from ..aes.fips197 import fips197_theory
    from ..aes.optimized import optimized_source
    from ..aes.proof_scripts import aes_proof_scripts
    from ..lang import parse_package

    config = coerce_exec_config(exec, owner="verify_aes")
    verifier = EchoVerifier(
        parse_package(optimized_source()),
        fips197_theory(),
        observables=["Cipher", "Inv_Cipher"],
        samplers={"Cipher": cipher_sampler, "Inv_Cipher": cipher_sampler},
        check=check, trials=trials, exec=config,
    )
    for _, transformations in transformation_blocks():
        verifier.refactor(transformations)
    return verifier.verify(
        annotate=lambda source: build_annotated(source),
        scripts=aes_proof_scripts(),
    )
