"""ExecConfig API tests: the finalized ``exec=`` parameter, the plain
``TypeError`` on the removed legacy keywords, remote-backend field
validation, the JSON wire form, and the stable top-level public surface."""

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
        assert config.remote_workers == ()
        assert config.remote_listen is None
        assert config.lease_timeout_seconds is None
        assert config.remote_shared_cache is True

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

    def test_scheduler_derivation_remote_fields(self):
        config = ExecConfig(
            backend="remote", jobs=4, cache=False, telemetry=Telemetry(),
            remote_workers=("farm1:9000", "farm2:9000"),
            lease_timeout_seconds=30.0,
            remote_shared_cache=False)
        scheduler = config.scheduler()
        assert scheduler.backend == "remote"
        assert scheduler.config is config

    def test_validation(self):
        with pytest.raises(ValueError, match="backend"):
            ExecConfig(backend="rocket")
        with pytest.raises(ValueError, match="backend"):
            ExecConfig(backend="thread")       # removed backend
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


class TestRemoteFields:
    def test_remote_backend_requires_worker_source(self):
        with pytest.raises(ValueError, match="worker source"):
            ExecConfig(backend="remote")
        # either source alone satisfies the check
        ExecConfig(backend="remote", remote_workers=("h:1",))
        ExecConfig(backend="remote", remote_listen="127.0.0.1:0")

    def test_address_validation(self):
        with pytest.raises(ValueError, match="host:port"):
            ExecConfig(remote_workers=("nocolon",))
        with pytest.raises(ValueError, match="not an integer"):
            ExecConfig(remote_workers=("host:http",))
        with pytest.raises(ValueError, match="out of range"):
            ExecConfig(remote_workers=("host:70000",))
        with pytest.raises(ValueError, match="host:port"):
            ExecConfig(remote_listen=9000)
        # hostless ":0" binds all interfaces on an ephemeral port
        assert ExecConfig(remote_listen=":0").remote_listen == ":0"

    def test_worker_list_coerced_to_tuple(self):
        config = ExecConfig(remote_workers=["a:1", "b:2"])
        assert config.remote_workers == ("a:1", "b:2")
        assert hash(config)                       # stays hashable
        with pytest.raises(ValueError, match="remote_workers"):
            ExecConfig(remote_workers="host:1")   # a bare string is a bug

    def test_lease_timeout_and_shared_cache_validation(self):
        with pytest.raises(ValueError, match="lease_timeout_seconds"):
            ExecConfig(lease_timeout_seconds=0)
        with pytest.raises(ValueError, match="remote_shared_cache"):
            ExecConfig(remote_shared_cache="yes")

    def test_remote_is_never_effectively_serial(self, monkeypatch):
        """Even ``jobs=1`` ships to the farm: with no worker joining, the
        run fails as an unusable farm instead of running inline."""
        from repro.exec import BackendUnusableError, CallPayload, Obligation

        monkeypatch.setattr(ObligationScheduler, "REMOTE_WORKER_GRACE", 0.2)
        config = ExecConfig(backend="remote", jobs=1, cache=False,
                            remote_listen="127.0.0.1:0",
                            telemetry=Telemetry())
        with pytest.raises(BackendUnusableError, match="no workers"):
            config.scheduler().run([Obligation(
                kind="t", label="x", thunk=lambda: 1,
                payload=CallPayload(abs, (-1,)))])


class TestJsonWireForm:
    def test_round_trip_including_remote_fields(self):
        config = ExecConfig(
            jobs=6, backend="remote", timeout_seconds=4.5,
            retries=RetryPolicy(retries=2, base_delay=0.01),
            on_error="record", on_backend_failure="degrade",
            cache_memory_entries=128,
            remote_workers=("farm1:9000", "farm2:9000"),
            lease_timeout_seconds=20.0, remote_shared_cache=False)
        data = config.to_json()
        assert data["remote_workers"] == ["farm1:9000", "farm2:9000"]
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
        with pytest.raises(ValueError, match="remote_workers"):
            ExecConfig.from_json({"remote_workers": "farm1:9000"})
        with pytest.raises(ValueError, match="out of range"):
            ExecConfig.from_json({"remote_workers": ["farm1:99999"]})
        with pytest.raises(ValueError, match="worker source"):
            ExecConfig.from_json({"backend": "remote"})


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
        # argparse's prefix matching would have read --job as --jobs
        assert "unrecognized arguments: --job" in \
            self._usage_error(cli, ["--job", "4"], capsys)

    def test_repeated_flag_takes_its_last_value(self, cli):
        assert cli(["--jobs", "2", "--jobs=3"]).jobs == 3

    def test_remote_without_a_worker_is_a_usage_error(self, cli, capsys):
        assert "needs a worker source" in \
            self._usage_error(cli, ["--backend", "remote"], capsys)

    def test_remote_workers_are_named(self, cli):
        config = cli(["--backend", "remote", "--remote-worker", "h:1",
                      "--remote-worker", "h:2", "--lease-timeout", "9",
                      "--no-remote-shared-cache"])
        assert config.remote_workers == ("h:1", "h:2")
        assert config.lease_timeout_seconds == 9.0
        assert config.remote_shared_cache is False

    def test_defaults_are_exec_config_defaults(self, cli):
        assert cli([]) == ExecConfig()

    def test_bounds_name_the_value(self, cli, capsys):
        assert "timeout_seconds must be positive, got -1.0" in \
            self._usage_error(cli, ["--timeout", "-1"], capsys)

    def test_help_lists_the_flag_set(self, cli, capsys):
        with pytest.raises(SystemExit) as err:
            cli(["--help"])
        assert err.value.code == 0
        assert "--remote-worker" in capsys.readouterr().out
