"""ExecConfig API tests: the finalized ``exec=`` parameter, the plain
``TypeError`` on the removed legacy keywords, the JSON wire form (which
rejects removed fields by name), and the stable top-level public
surface."""

import warnings

import pytest

from repro.exec import (
    ExecConfig, ObligationScheduler, RetryPolicy, Telemetry,
    coerce_exec_config,
)
from repro.lang import analyze, parse_package

from tests.test_exec_scheduler import SRC


class TestExecConfig:
    def test_defaults_match_historical_behaviour(self):
        config = ExecConfig()
        assert config.jobs == 1
        assert config.backend == "serial"
        assert config.cache is None
        assert config.telemetry is None
        assert config.timeout_seconds is None
        # a plain-int retry count is coerced to the equivalent policy
        assert config.retries == RetryPolicy(retries=0)
        assert config.retries.retries == 0
        assert config.on_error == "raise"
        assert config.on_backend_failure == "raise"

    def test_scheduler_derivation(self):
        telemetry = Telemetry()
        scheduler = ExecConfig(jobs=3, backend="process", cache=False,
                               telemetry=telemetry, timeout_seconds=2.0,
                               retries=1, on_error="record").scheduler()
        assert isinstance(scheduler, ObligationScheduler)
        assert scheduler.jobs == 3
        assert scheduler.backend == "process"
        assert scheduler.cache is None            # cache=False disables
        assert scheduler.telemetry is telemetry
        assert scheduler.timeout_seconds == 2.0
        assert scheduler.retry_policy.retries == 1
        assert scheduler.on_error == "record"

    def test_validation(self):
        with pytest.raises(ValueError, match="backend"):
            ExecConfig(backend="rocket")
        with pytest.raises(ValueError, match="backend"):
            ExecConfig(backend="thread")       # removed backend
        with pytest.raises(ValueError, match="backend"):
            ExecConfig(backend="remote")       # removed backend
        with pytest.raises(ValueError, match="jobs"):
            ExecConfig(jobs=0)
        with pytest.raises(ValueError, match="on_error"):
            ExecConfig(on_error="ignore")
        with pytest.raises(ValueError, match="retries"):
            ExecConfig(retries=-1)
        with pytest.raises(ValueError, match="on_backend_failure"):
            ExecConfig(on_backend_failure="panic")

    def test_non_positive_timeout_rejected(self):
        """Regression: ``timeout_seconds=0`` used to pass validation but
        silently disable the worker-side alarm (``setitimer(..., 0)``
        cancels the timer), turning the 'timeout' into 'no timeout'."""
        with pytest.raises(ValueError, match="timeout_seconds"):
            ExecConfig(timeout_seconds=0)
        with pytest.raises(ValueError, match="timeout_seconds"):
            ExecConfig(timeout_seconds=-1.5)
        assert ExecConfig(timeout_seconds=0.5).timeout_seconds == 0.5

    def test_counts_must_be_integers(self):
        """Regression: a float ``jobs`` reached the process pool (which
        failed, or degraded to serial), ``jobs=True`` ran serial, and a
        bool timeout or a float retry count was accepted."""
        for kwargs in (dict(jobs=2.5, backend="process"), dict(jobs=True),
                       dict(jobs=2.5, backend="process",
                            on_backend_failure="degrade"),
                       dict(batch_size=2.0)):
            with pytest.raises(ValueError, match="must be an integer"):
                ExecConfig(**kwargs)
        with pytest.raises(ValueError, match="timeout_seconds"):
            ExecConfig(timeout_seconds=True)
        for retries in (2.5, True):
            with pytest.raises(ValueError, match="retries must be an "
                                                 "integer"):
                RetryPolicy(retries=retries)
        assert ExecConfig(jobs=None).jobs is None   # os.cpu_count()

    def test_retry_policy_accepted_and_preserved(self):
        policy = RetryPolicy(retries=3, base_delay=0.01, max_delay=0.2)
        config = ExecConfig(retries=policy)
        assert config.retries is policy
        scheduler = ExecConfig(jobs=2, retries=policy, cache=False,
                               telemetry=Telemetry()).scheduler()
        assert scheduler.retry_policy is policy

    def test_hashable_and_frozen(self):
        config = ExecConfig(jobs=2)
        assert hash(config) == hash(ExecConfig(jobs=2))
        with pytest.raises(Exception):
            config.jobs = 4

    def test_with_telemetry(self):
        telemetry = Telemetry()
        config = ExecConfig(jobs=2).with_telemetry(telemetry)
        assert config.telemetry is telemetry
        assert config.jobs == 2


class TestJsonWireForm:
    def test_round_trip_every_field(self):
        config = ExecConfig(
            jobs=6, backend="process", timeout_seconds=4.5,
            retries=RetryPolicy(retries=2, base_delay=0.01),
            on_error="record", on_backend_failure="degrade", batch_size=3)
        data = config.to_json()
        assert sorted(data) == sorted(ExecConfig.JSON_FIELDS)
        assert ExecConfig.from_json(data) == config

    def test_round_trip_defaults(self):
        config = ExecConfig()
        assert ExecConfig.from_json(config.to_json()) == config

    def test_cache_and_telemetry_never_travel(self):
        data = ExecConfig(cache=False, telemetry=Telemetry()).to_json()
        assert "cache" not in data
        assert "telemetry" not in data
        with pytest.raises(ValueError, match="unknown exec config keys"):
            ExecConfig.from_json({"jobs": 2, "cache": "/tmp/evil"})
        with pytest.raises(ValueError, match="unknown exec config keys"):
            ExecConfig.from_json({"telemetry": {}})

    def test_from_json_validates_like_the_constructor(self):
        with pytest.raises(ValueError, match="JSON object"):
            ExecConfig.from_json([1, 2])
        with pytest.raises(ValueError, match="bad retries policy"):
            ExecConfig.from_json({"retries": {"bogus": 1}})
        # The remote backend's fields and name are gone: each is named.
        for key, value in (("remote_workers", ["farm1:9000"]),
                           ("remote_listen", "127.0.0.1:0")):
            with pytest.raises(ValueError, match=f"unknown exec config "
                                                 f"keys: \\['{key}'\\]"):
                ExecConfig.from_json({key: value})
        with pytest.raises(ValueError, match="backend must be one of "
                                             ".*got 'remote'"):
            ExecConfig.from_json({"backend": "remote"})
        for data in ({"jobs": 2.5}, {"jobs": True},
                     {"timeout_seconds": True},
                     {"retries": {"retries": 2.5}},
                     {"retries": {"retries": True}}):
            with pytest.raises(ValueError):
                ExecConfig.from_json(data)


class TestCoercion:
    def test_no_arguments_is_default(self):
        assert coerce_exec_config(None, owner="t") == ExecConfig()

    def test_explicit_exec_passes_through(self):
        config = ExecConfig(jobs=5, backend="process")
        assert coerce_exec_config(config, owner="t") is config

    def test_non_config_exec_rejected(self):
        with pytest.raises(TypeError, match="ExecConfig"):
            coerce_exec_config(4, owner="t")


class TestLegacyKwargsRemoved:
    """The removed ``jobs=``/``cache=``/``telemetry=``/``timeout_seconds=``/
    ``obligation_timeout=`` keywords are ordinary unknown keywords now:
    every entry point rejects them with Python's own ``TypeError``."""

    LEGACY = ("jobs", "cache", "telemetry", "timeout_seconds",
              "obligation_timeout")

    def test_reject_helper_spells_out_the_migration(self):
        """The custom migration message is gone with its helper: the
        entry point's own signature rejects the first legacy keyword."""
        from repro.core import verify_aes

        with pytest.raises(TypeError) as exc:
            verify_aes(jobs=4, cache=False)
        assert "unexpected keyword argument 'jobs'" in str(exc.value)

    def test_obligation_timeout_maps_to_timeout_seconds(self):
        """``obligation_timeout=`` gets no special mapping any more: it is
        an unknown keyword like any other."""
        from repro.implication import prove_implication

        with pytest.raises(TypeError,
                           match="unexpected keyword argument "
                                 "'obligation_timeout'"):
            prove_implication(None, None, obligation_timeout=30.0)

    def test_unknown_keyword_gets_the_stock_message(self):
        from repro.core import verify_aes

        with pytest.raises(TypeError, match="unexpected keyword"):
            verify_aes(jorbs=4)

    @pytest.mark.parametrize("name", LEGACY)
    def test_every_legacy_name_is_caught(self, name):
        from repro.implication import prove_implication

        with pytest.raises(TypeError, match=name):
            prove_implication(None, None, **{name: 1})

    def test_implementation_proof_rejects_legacy(self):
        from repro.prover import ImplementationProof

        typed = analyze(parse_package(SRC))
        with pytest.raises(TypeError, match="unexpected keyword"):
            ImplementationProof(typed, jobs=2, cache=False)

    def test_prove_implication_rejects_legacy(self):
        from repro.implication import prove_implication

        with pytest.raises(TypeError, match="unexpected keyword"):
            prove_implication(None, None, jobs=2)

    def test_refactoring_engine_rejects_legacy(self):
        from repro.refactor import RefactoringEngine

        with pytest.raises(TypeError, match="unexpected keyword"):
            RefactoringEngine(None, observables=[], jobs=2)

    def test_echo_verifier_rejects_legacy(self):
        from repro.core import EchoVerifier

        with pytest.raises(TypeError, match="unexpected keyword"):
            EchoVerifier(None, None, observables=[], telemetry=Telemetry())

    def test_verify_aes_rejects_legacy(self):
        from repro.core import verify_aes

        with pytest.raises(TypeError, match="unexpected keyword"):
            verify_aes(jobs=8)

    def test_harness_tables_reject_legacy(self):
        from repro.harness.tables import (
            implementation_proof_stats, implication_proof_stats,
        )

        with pytest.raises(TypeError, match="implementation_proof_stats"):
            implementation_proof_stats(jobs=2)
        with pytest.raises(TypeError, match="implication_proof_stats"):
            implication_proof_stats(obligation_timeout=5.0)

    def test_signatures_expose_exec_not_the_legacy_names(self):
        import inspect

        from repro.core import verify_aes

        parameters = inspect.signature(verify_aes).parameters
        assert "exec" in parameters
        for name in ("jobs", "cache", "telemetry", "obligation_timeout"):
            assert name not in parameters

    def test_no_warning_on_modern_path(self):
        from repro.prover import ImplementationProof

        typed = analyze(parse_package(SRC))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ImplementationProof(
                typed, exec=ExecConfig(jobs=2, cache=False)).run()


class TestPublicSurface:
    def test_top_level_exports(self):
        import repro

        for name in ("EchoVerifier", "verify_aes", "ExecConfig",
                     "ResultCache", "Telemetry", "EchoResult"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_quickstart_imports(self):
        from repro import (     # noqa: F401
            EchoResult, EchoVerifier, ExecConfig, ResultCache, Telemetry,
            verify_aes,
        )


class _Planned(Exception):
    """Raised by the stub planner with the ExecConfig it was handed."""


def _runner_exec(argv):
    from repro.exec.cli import exec_config
    from repro.harness import runner
    parser = runner.build_parser()
    return exec_config(parser, parser.parse_args(argv))


def _plan_exec(argv):
    from repro.plan import cli
    with pytest.raises(_Planned) as planned:
        cli.main(argv)
    return planned.value.args[0]


def _serve_exec(argv):
    from repro.serve.cli import build_config
    return build_config(argv).default_exec


class TestExecFlags:
    """The one execution flag set (:mod:`repro.exec.cli`), on each of
    the three command lines that take it."""

    @pytest.fixture(params=["runner", "plan", "serve"])
    def cli(self, request, monkeypatch):
        def stub_plan(**kwargs):
            raise _Planned(kwargs["exec"])
        monkeypatch.setattr("repro.plan.plan_aes", stub_plan)
        return {"runner": _runner_exec, "plan": _plan_exec,
                "serve": _serve_exec}[request.param]

    def _usage_error(self, cli, argv, capsys) -> str:
        with pytest.raises(SystemExit) as err:
            cli(argv)
        assert err.value.code == 2
        return capsys.readouterr().err

    def test_misspelled_flag_is_rejected(self, cli, capsys):
        # argparse's prefix matching would have read --job as --jobs;
        # the other flags name removed ExecConfig fields (the remote
        # backend's among them), the removed planner store (the
        # planner's records live in the result cache) and the daemon's
        # removed TCP transport.
        for argv in (["--job", "4"], ["--lease-timeout", "1"],
                     ["--no-remote-shared-cache"],
                     ["--batch-bytes-cap", "1"],
                     ["--plan-cache", "plan.json"],
                     ["--remote-worker", "127.0.0.1:9000"],
                     ["--remote-listen", "127.0.0.1:0"],
                     ["--port", "0"], ["--host", "127.0.0.1"],
                     ["--stdio"]):
            assert f"unrecognized arguments: {argv[0]}" in \
                self._usage_error(cli, argv, capsys)

    def test_repeated_flag_takes_its_last_value(self, cli):
        assert cli(["--jobs", "2", "--jobs=3"]).jobs == 3

    def test_removed_backend_is_a_usage_error(self, cli, capsys):
        assert "invalid choice: 'remote'" in \
            self._usage_error(cli, ["--backend", "remote"], capsys)

    def test_defaults_are_exec_config_defaults(self, cli):
        assert cli([]) == ExecConfig()

    def test_bounds_name_the_value(self, cli, capsys):
        assert "timeout_seconds must be positive, got -1.0" in \
            self._usage_error(cli, ["--timeout", "-1"], capsys)

    def test_help_lists_the_flag_set(self, cli, capsys):
        with pytest.raises(SystemExit) as err:
            cli(["--help"])
        assert err.value.code == 0
        assert "--batch-size" in capsys.readouterr().out
