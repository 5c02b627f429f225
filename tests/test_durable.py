"""The durable-file matrix: the three stores that persist across
processes -- the result cache's disk tier, the incremental manifests
and the serve journal's result store -- share one rule
(:mod:`repro.exec.durable`), so each is checked here the same way:
torn and truncated files, the previous version's layout, a foreign
scope, orphaned temp files of every age (including across a clock
step), and a writer killed between ``mkstemp`` and ``os.replace``.

The journal's ``results/<id>.json`` files are plain JSON, not records,
so the schema and scope cases cover the other two stores only.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.exec import ResultCache, make_key
from repro.exec.cache import CACHE_SCHEMA
from repro.exec.durable import (
    STALE_TMP_SECONDS, load_record, read_json, write_record,
)
from repro.incr import MANIFEST_SCHEMA, ManifestStore
from repro.serve.journal import Journal

_SUBPROGRAMS = {"Sub": {"cone_fp": "cone", "vcs": []}}


class _CacheStore:
    schema = CACHE_SCHEMA
    scope = make_key("durable", "entry")

    def open(self, root):
        return ResultCache(disk_dir=root)

    def write(self, store):
        store.put(self.scope, {"v": 1}, encode=lambda value: value)

    def hit(self, store):
        return store.get(self.scope, decode=lambda payload: payload)[0]

    def path(self, root):
        return root / self.scope[:2] / f"{self.scope}.json"

    def previous(self):
        """The untagged layout before records."""
        return {"key": self.scope, "value": {"v": 1}}


class _ManifestStore:
    schema = MANIFEST_SCHEMA
    scope = "config-digest"

    def open(self, root):
        return ManifestStore(root)

    def write(self, store):
        store.save("P", "package-fp", self.scope, _SUBPROGRAMS)

    def hit(self, store):
        return store.load("P", self.scope) is not None

    def path(self, root):
        return root / "P.json"

    def previous(self):
        return {"schema": "repro-incr/v1", "package": "P",
                "package_fp": "package-fp", "config_digest": self.scope,
                "subprograms": _SUBPROGRAMS}


class _JournalStore:
    def open(self, root):
        return Journal(root)

    def write(self, store):
        store.write_result("r1", {"reply": "result", "id": "r1"})

    def hit(self, store):
        return store.load_result("r1") is not None

    def path(self, root):
        return root / "results" / "r1.json"


RECORD_STORES = {"result_cache": _CacheStore(), "manifest": _ManifestStore()}
STORES = {**RECORD_STORES, "journal": _JournalStore()}

every_store = pytest.mark.parametrize(
    "store", list(STORES.values()), ids=list(STORES))
record_stores = pytest.mark.parametrize(
    "store", list(RECORD_STORES.values()), ids=list(RECORD_STORES))

#: Publishes through one store in a fresh interpreter whose
#: ``os.replace`` kills it: the writer dies between ``mkstemp`` and the
#: rename.  Exit status 0 means it died there.
_KILLED_WRITER = """
import os, sys
from pathlib import Path
from tests.test_durable import STORES
store = STORES[sys.argv[1]]
os.replace = lambda src, dst: os._exit(0)
store.write(store.open(Path(sys.argv[2])))
sys.exit(1)
"""


def _written(store, root):
    store.write(store.open(root))
    return store.path(root)


def _orphan(store, root, tag, age):
    """A temp file in the store's own naming, ``age`` seconds old."""
    target = store.path(root)
    target.parent.mkdir(parents=True, exist_ok=True)
    orphan = target.with_name(f"{target.name}.{tag}.tmp")
    orphan.write_text("{half-written")
    stamp = time.time() - age
    os.utime(orphan, (stamp, stamp))
    return orphan


class TestRecordRule:
    def test_reasons(self, tmp_path):
        path = tmp_path / "r.json"
        assert load_record(path, "s/v1", "a") == (None, "absent")
        path.write_text('{"schema": "s/v1", "sco')
        assert load_record(path, "s/v1", "a") == (None, "torn")
        path.write_text("[1, 2]")
        assert load_record(path, "s/v1", "a") == (None, "schema")
        write_record(path, "s/v1", "a", {"body": 1})
        assert load_record(path, "s/v2", "a") == (None, "schema")
        assert load_record(path, "s/v1", "b") == (None, "scope")
        assert load_record(path, "s/v1", "a") == (
            {"schema": "s/v1", "scope": "a", "body": 1}, "")

    def test_publish_leaves_no_temp_files(self, tmp_path):
        write_record(tmp_path / "r.json", "s/v1", "a", {}, fsync=False)
        write_record(tmp_path / "r.json", "s/v1", "b", {})
        assert os.listdir(tmp_path) == ["r.json"]
        assert read_json(tmp_path / "r.json")[0]["scope"] == "b"


class TestMatrix:
    @every_store
    def test_round_trip(self, store, tmp_path):
        _written(store, tmp_path)
        assert store.hit(store.open(tmp_path))

    @every_store
    @pytest.mark.parametrize("keep", [0.5, 0.0], ids=["torn", "truncated"])
    def test_torn_file_misses(self, store, tmp_path, keep):
        path = _written(store, tmp_path)
        raw = path.read_text()
        path.write_text(raw[:int(len(raw) * keep)])
        assert not store.hit(store.open(tmp_path))
        assert read_json(path) == (None, "torn")

    @record_stores
    def test_previous_version_is_a_schema_miss(self, store, tmp_path):
        path = store.path(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(store.previous()))
        assert not store.hit(store.open(tmp_path))
        assert load_record(path, store.schema, store.scope) == \
            (None, "schema")

    @record_stores
    def test_foreign_scope_is_a_scope_miss(self, store, tmp_path):
        path = _written(store, tmp_path)
        record = json.loads(path.read_text())
        record["scope"] = "another-scope"
        path.write_text(json.dumps(record))
        assert not store.hit(store.open(tmp_path))
        assert load_record(path, store.schema, store.scope) == \
            (None, "scope")

    @every_store
    @pytest.mark.parametrize("age,swept", [
        (STALE_TMP_SECONDS + 3600, True),    # a dead writer's orphan
        (0.0, False),                        # a live concurrent writer
        (-3600.0, False),                    # live, seen across a step
    ], ids=["old", "young", "future-dated"])
    def test_open_sweeps_only_stale_orphans(self, store, tmp_path, age,
                                            swept):
        orphan = _orphan(store, tmp_path, "orphan", age)
        store.open(tmp_path)
        assert orphan.exists() is not swept

    @every_store
    def test_clock_step_doubles_the_grace_period(self, store, tmp_path):
        mid = _orphan(store, tmp_path, "mid", 1.5 * STALE_TMP_SECONDS)
        future = _orphan(store, tmp_path, "future", -3600.0)
        store.open(tmp_path)
        assert mid.exists()          # every age is suspect after a step
        future.unlink()
        store.open(tmp_path)
        assert not mid.exists()

    @every_store
    def test_sweep_leaves_other_temp_files(self, store, tmp_path):
        tmp_path.mkdir(exist_ok=True)
        foreign = tmp_path / "foreign.tmp"
        foreign.write_text("")
        old = time.time() - 2 * STALE_TMP_SECONDS
        os.utime(foreign, (old, old))
        store.open(tmp_path)
        assert foreign.exists()

    @pytest.mark.parametrize("name", list(STORES))
    def test_killed_writer(self, name, tmp_path):
        """A writer killed between ``mkstemp`` and ``os.replace`` leaves
        no file behind, only its temp file: the load misses and, once
        the orphan is stale, the next open sweeps it."""
        store = STORES[name]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", _KILLED_WRITER, name,
                        str(tmp_path)], env=env, check=True, timeout=120)
        target = store.path(tmp_path)
        orphans = list(target.parent.glob(f"{target.name}.*.tmp"))
        assert len(orphans) == 1 and not target.exists()
        old = time.time() - 2 * STALE_TMP_SECONDS
        os.utime(orphans[0], (old, old))
        assert not store.hit(store.open(tmp_path))
        assert not orphans[0].exists()


class TestJournalCompaction:
    def test_compaction_orphan_swept(self, tmp_path):
        Journal(tmp_path)
        orphan = tmp_path / "journal.jsonl.orphan.tmp"
        orphan.write_text("")
        old = time.time() - 2 * STALE_TMP_SECONDS
        os.utime(orphan, (old, old))
        Journal(tmp_path)
        assert not orphan.exists()
