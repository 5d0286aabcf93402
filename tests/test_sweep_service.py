"""Tests for the sweep service (repro.service): stable content digests, the
content-addressed result store, and incremental checkpoints and resume.

The load-bearing invariant throughout: a report produced *any* service way
-- resumed after a kill, served from the cache -- renders bit-identically
(``to_json``, ``rows``) to a plain single-shot serial run of the same sweep.
"""

import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from repro.api import Sweep, SweepConfigError
from repro.api.spec import ProgramSpec, stable_digest
from repro.engine import BoundedProcessors, SelfTimedUnbounded
from repro.service import (
    CheckpointMismatchError,
    ResultStore,
    SweepCheckpoint,
    point_key,
    point_keys,
)


def _square_point(n):
    """Module-level runner: stable identity for content addressing."""
    return {"value": n * n}


def _quick_sweep(**kwargs):
    return (
        Sweep("producer_consumer", duration=Fraction(2), **kwargs)
        .add_axis("scheduler", [BoundedProcessors(1), BoundedProcessors(2), None])
    )


def _keep_journal_prefix(path, rows):
    """Cut a serial run's checkpoint back to its header and first *rows*
    point lines: the journal a run killed after those points leaves."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[: 1 + rows]))


# ---------------------------------------------------------------------------
# stable digests
# ---------------------------------------------------------------------------


class TestStableDigest:
    def test_equal_values_digest_equal(self):
        assert stable_digest({"a": 1, "b": [2, 3]}) == stable_digest(
            {"b": [2, 3], "a": 1}
        )
        assert stable_digest((1, 2)) == stable_digest([1, 2])

    def test_distinct_values_digest_distinct(self):
        samples = [
            None, True, False, 0, 1, "1", 1.0, Fraction(1, 3),
            {"a": 1}, {"a": 2}, [1], {1}, b"\x01",
            BoundedProcessors(2), BoundedProcessors(3), SelfTimedUnbounded(),
        ]
        digests = [stable_digest(value) for value in samples]
        assert len(set(digests)) == len(samples)

    def test_set_digest_ignores_insertion_and_hash_order(self):
        assert stable_digest({"x", "y", "zz", "q"}) == stable_digest(
            {"q", "zz", "y", "x"}
        )

    def test_digest_stable_across_hash_seeds(self):
        # The very property pickle bytes lack: the digest of a set-bearing
        # value must not depend on PYTHONHASHSEED.  Compute it under two
        # explicitly different seeds in fresh interpreters.
        script = textwrap.dedent(
            """
            from fractions import Fraction
            from repro.api.spec import stable_digest
            from repro.engine import BoundedProcessors
            value = {
                "axes": {"s", "set", "ordering", "probe"},
                "sched": BoundedProcessors(3),
                "d": Fraction(1, 7),
            }
            print(stable_digest(value))
            """
        )
        digests = set()
        for seed in ("0", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONPATH": "src", "PYTHONHASHSEED": seed},
                cwd=str(Path(__file__).resolve().parent.parent),
            )
            digests.add(result.stdout.strip())
        assert len(digests) == 1

    def test_program_spec_digest_without_pickle(self):
        spec = ProgramSpec.from_app("quickstart", utilisation=0.3)
        same = ProgramSpec.from_app("quickstart", utilisation=0.3)
        other = ProgramSpec.from_app("quickstart", utilisation=0.5)
        assert spec.digest() == same.digest() != other.digest()


class TestPointKeys:
    def test_overlapping_grids_share_keys(self):
        a = Sweep("quickstart").add_axis("scheduler", [BoundedProcessors(1), None])
        b = Sweep("quickstart").add_axis(
            "scheduler", [None, BoundedProcessors(1), BoundedProcessors(4)]
        )
        keys_a = point_keys(a, a.points())
        keys_b = point_keys(b, b.points())
        assert keys_a[0] == keys_b[1]  # BoundedProcessors(1)
        assert keys_a[1] == keys_b[0]  # None
        assert len(set(keys_a + keys_b)) == 3

    def test_duration_is_part_of_the_key(self):
        a = Sweep("quickstart", duration=Fraction(1))
        b = Sweep("quickstart", duration=Fraction(2))
        assert point_key(a, a.points()[0]) != point_key(b, b.points()[0])

    def test_local_runner_has_no_stable_identity(self):
        sweep = Sweep.from_callable(lambda n: {"v": n}).add_axis("n", [1])
        with pytest.raises(SweepConfigError, match="stable identity"):
            point_keys(sweep, sweep.points())

    def test_module_level_runner_is_addressable(self):
        sweep = Sweep.from_callable(_square_point).add_axis("n", [1, 2])
        assert len(set(point_keys(sweep, sweep.points()))) == 2


# ---------------------------------------------------------------------------
# result store
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_put_get_and_counters(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            assert store.get("k1") is None
            assert store.put("k1", {"metrics": {"x": 1}})
            assert not store.put("k1", {"metrics": {"x": 999}})  # first wins
            assert store.get("k1") == {"metrics": {"x": 1}}
            assert (store.hits, store.misses, store.writes) == (1, 1, 1)

    def test_reopen_reads_back_through_the_index(self, tmp_path):
        root = tmp_path / "store"
        with ResultStore(root) as store:
            for i in range(20):
                store.put(f"key-{i}", {"metrics": {"i": i}})
        reopened = ResultStore(root)
        assert len(reopened) == 20
        assert reopened.get("key-7") == {"metrics": {"i": 7}}
        # the returned payload is a copy: mutating it cannot poison the cache
        payload = reopened.get("key-7")
        payload["metrics"]["i"] = -1
        assert reopened.get("key-7") == {"metrics": {"i": 7}}

    def test_missing_index_rebuilds_from_segments(self, tmp_path):
        root = tmp_path / "store"
        with ResultStore(root) as store:
            store.put("a", {"metrics": {"v": 1}})
        (root / "index.json").unlink()
        assert ResultStore(root).get("a") == {"metrics": {"v": 1}}

    def test_torn_segment_tail_is_skipped(self, tmp_path):
        root = tmp_path / "store"
        with ResultStore(root) as store:
            store.put("a", {"metrics": {"v": 1}})
            segment = store.segments_dir / store._segment_name
        (root / "index.json").unlink()
        with open(segment, "ab") as handle:
            handle.write(b'{"schema": 1, "key": "b", "payload"')  # SIGKILL here
        reopened = ResultStore(root)
        assert reopened.get("a") == {"metrics": {"v": 1}}
        assert reopened.get("b") is None

    def test_writers_get_distinct_segments(self, tmp_path):
        root = tmp_path / "store"
        with ResultStore(root) as first:
            first.put("a", {"metrics": {}})
        with ResultStore(root) as second:
            second.put("b", {"metrics": {}})
        assert len(list((root / "segments").glob("segment-*.jsonl"))) == 2
        third = ResultStore(root)
        assert "a" in third and "b" in third


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


class TestCheckpoint:
    def test_fresh_then_resume_roundtrip(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with SweepCheckpoint(path, name="s", grid="g", points=3) as journal:
            journal.record({"point": 1, "ok": True, "error": None,
                            "params": {}, "metrics": {"v": 1}})
        with SweepCheckpoint(path, name="s", grid="g", points=3) as journal:
            assert set(journal.completed) == {1}
            journal.record({"point": 1, "ok": True, "error": None,
                            "params": {}, "metrics": {"v": 999}})  # no-op
            journal.record({"point": 0, "ok": False, "error": "boom",
                            "params": {}, "metrics": {}})
        with SweepCheckpoint(path, name="s", grid="g", points=3) as journal:
            assert journal.completed[1]["metrics"] == {"v": 1}
            assert journal.completed[0]["error"] == "boom"

    def test_grid_mismatch_refused(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        SweepCheckpoint(path, name="s", grid="g1", points=3).close()
        with pytest.raises(CheckpointMismatchError, match="different sweep"):
            SweepCheckpoint(path, name="s", grid="g2", points=3)
        with pytest.raises(CheckpointMismatchError, match="different sweep"):
            SweepCheckpoint(path, name="s", grid="g1", points=4)

    def test_header_with_extra_fields_resumes(self, tmp_path):
        # journals written when the header still carried a "shard" field
        path = tmp_path / "ckpt.jsonl"
        with SweepCheckpoint(path, name="s", grid="g", points=3) as journal:
            journal.record({"point": 1, "ok": True, "error": None,
                            "params": {}, "metrics": {"v": 1}})
        header, *rows = path.read_text().splitlines(keepends=True)
        path.write_text(json.dumps({**json.loads(header), "shard": None}) + "\n"
                        + "".join(rows))
        with SweepCheckpoint(path, name="s", grid="g", points=3) as journal:
            assert journal.completed[1]["metrics"] == {"v": 1}

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with SweepCheckpoint(path, name="s", grid="g", points=3) as journal:
            journal.record({"point": 2, "ok": True, "error": None,
                            "params": {}, "metrics": {}})
        with open(path, "ab") as handle:
            handle.write(b'{"point": 0, "ok": tr')  # killed mid-append
        with SweepCheckpoint(path, name="s", grid="g", points=3) as journal:
            assert set(journal.completed) == {2}

    def test_non_checkpoint_file_refused(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        path.write_text('{"something": "else"}\n')
        with pytest.raises(CheckpointMismatchError, match="header"):
            SweepCheckpoint(path, name="s", grid="g", points=1)


# ---------------------------------------------------------------------------
# the service runner: cache hits, resume, bit-identity
# ---------------------------------------------------------------------------


class TestServiceSweep:
    def test_warm_store_executes_and_compiles_nothing(self, tmp_path, monkeypatch):
        store = tmp_path / "store"
        cold = _quick_sweep().run(store=store)
        assert cold.service_stats == {
            "points": 3, "executed": 3, "store_hits": 0, "resumed": 0,
        }

        import repro.api.sweep as sweep_module

        compiles = []
        original = sweep_module.Program.from_app.__func__

        def counting(cls, app, **params):
            compiles.append(app)
            return original(cls, app, **params)

        monkeypatch.setattr(sweep_module.Program, "from_app", classmethod(counting))
        warm = _quick_sweep().run(store=store)
        assert warm.service_stats == {
            "points": 3, "executed": 0, "store_hits": 3, "resumed": 0,
        }
        assert compiles == []  # cache hits never touch the compiler
        assert warm.to_json() == cold.to_json()

    def test_overlapping_grid_pays_only_for_new_points(self, tmp_path):
        store = tmp_path / "store"
        _quick_sweep().run(store=store)
        widened = (
            Sweep("producer_consumer", duration=Fraction(2))
            .add_axis(
                "scheduler",
                [BoundedProcessors(1), BoundedProcessors(4), BoundedProcessors(2)],
            )
            .run(store=store)
        )
        assert widened.service_stats["store_hits"] == 2
        assert widened.service_stats["executed"] == 1

    def test_checkpoint_resume_is_bit_identical(self, tmp_path):
        clean = _quick_sweep().run(executor="serial").to_json()
        path = tmp_path / "ckpt.jsonl"
        # journal only a prefix of the grid, as an interrupted run would have
        _quick_sweep().run(checkpoint=path)
        _keep_journal_prefix(path, 2)
        resumed = _quick_sweep().run(checkpoint=path)
        assert resumed.service_stats == {
            "points": 3, "executed": 1, "store_hits": 0, "resumed": 2,
        }
        assert resumed.to_json() == clean

    def test_failed_points_checkpoint_but_never_store(self, tmp_path):
        def build():
            # an int on the scheduler axis fails that point only
            return (
                Sweep("quickstart", duration=Fraction(1, 100))
                .add_axis("scheduler", [None, 42])
            )

        store = tmp_path / "store"
        path = tmp_path / "ckpt.jsonl"
        first = build().run(store=store, checkpoint=path)
        assert [result.ok for result in first.results] == [True, False]
        again = build().run(store=store, checkpoint=path)
        # the ok point came back from the journal; the failure was journaled
        # too (resume must not flip the report), but the store kept only ok
        assert again.service_stats["resumed"] == 2
        assert len(ResultStore(store)) == 1
        assert again.to_json() == first.to_json()
        # a fresh run against the store alone retries the failed point
        retry = build().run(store=tmp_path / "store")
        assert retry.service_stats == {
            "points": 2, "executed": 1, "store_hits": 1, "resumed": 0,
        }

    def test_store_and_checkpoint_compose(self, tmp_path):
        clean = _quick_sweep().run(executor="serial").to_json()
        report = _quick_sweep().run(
            store=tmp_path / "store", checkpoint=tmp_path / "ckpt.jsonl"
        )
        assert report.to_json() == clean
        # a different checkpoint, same store: all hits, journaled afresh
        second = _quick_sweep().run(
            store=tmp_path / "store", checkpoint=tmp_path / "ckpt2.jsonl"
        )
        assert second.service_stats["store_hits"] == 3
        assert second.to_json() == clean

    def test_process_backend_checkpoints_from_the_parent(self, tmp_path):
        sweep = Sweep.from_callable(_square_point).add_axis("n", [1, 2, 3, 4])
        clean = (
            Sweep.from_callable(_square_point).add_axis("n", [1, 2, 3, 4]).run()
        ).to_json()
        report = sweep.run(
            executor="process", workers=2, checkpoint=tmp_path / "ckpt.jsonl"
        )
        assert report.to_json() == clean
        resumed = (
            Sweep.from_callable(_square_point)
            .add_axis("n", [1, 2, 3, 4])
            .run(checkpoint=tmp_path / "ckpt.jsonl")
        )
        assert resumed.service_stats["resumed"] == 4
        assert resumed.to_json() == clean


class TestKillAndResume:
    """A sweep SIGKILLed mid-run resumes bit-identically from its journal."""

    SCRIPT = textwrap.dedent(
        """
        import json, os, signal, sys
        from repro.api.sweep import Sweep

        def point(n):
            if n == 3 and os.environ.get("REPRO_TEST_KILL") == "1":
                os.kill(os.getpid(), signal.SIGKILL)
            return {"value": n * n, "shifted": n + 7}

        sweep = Sweep.from_callable(point, name="killable").add_axis(
            "n", [1, 2, 3, 4, 5]
        )
        mode = sys.argv[1]
        if mode == "clean":
            print(sweep.run(executor="serial").to_json(indent=None))
        else:
            report = sweep.run(executor="serial", checkpoint=sys.argv[2])
            print(json.dumps(report.service_stats))
            print(report.to_json(indent=None))
        """
    )

    def _run(self, *argv, kill=False, cwd):
        env = {**os.environ, "PYTHONPATH": "src"}
        env.pop("REPRO_TEST_KILL", None)
        if kill:
            env["REPRO_TEST_KILL"] = "1"
        return subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *map(str, argv)],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
        )

    def test_sigkill_resume_byte_equal(self, tmp_path):
        repo = str(Path(__file__).resolve().parent.parent)
        checkpoint = tmp_path / "ckpt.jsonl"

        clean = self._run("clean", cwd=repo)
        assert clean.returncode == 0, clean.stderr

        killed = self._run("checkpoint", checkpoint, kill=True, cwd=repo)
        assert killed.returncode == -9  # died by SIGKILL mid-grid
        journaled = checkpoint.read_text().count('"point"')
        assert 0 < journaled < 5  # some rows survived, not all

        resumed = self._run("checkpoint", checkpoint, cwd=repo)
        assert resumed.returncode == 0, resumed.stderr
        stats_line, report_line = resumed.stdout.strip().splitlines()
        stats = json.loads(stats_line)
        assert stats["resumed"] == journaled
        assert stats["executed"] == 5 - journaled
        assert report_line == clean.stdout.strip()


# ---------------------------------------------------------------------------
# the PAL grid: the paper's experiment, end to end through every service path
# ---------------------------------------------------------------------------


class TestPalGridIdentity:
    """Acceptance: resumed and cache-served PAL reports are bit-identical to
    a single-shot serial run, and full-cache re-runs execute zero points."""

    @staticmethod
    def _pal():
        return Sweep("pal_decoder", duration=Fraction(1, 2)).add_axis(
            "scheduler", [BoundedProcessors(1), BoundedProcessors(2)]
        )

    def test_every_service_path_matches_serial(self, tmp_path):
        clean = self._pal().run(executor="serial", keep_runs=False).to_json()

        # cache-served
        store = tmp_path / "store"
        cold = self._pal().run(store=store, keep_runs=False)
        warm = self._pal().run(store=store, keep_runs=False)
        assert cold.to_json() == clean
        assert warm.to_json() == clean
        assert warm.service_stats["executed"] == 0

        # resumed (prefix journaled, rest executed on resume)
        checkpoint = tmp_path / "ckpt.jsonl"
        self._pal().run(checkpoint=checkpoint, keep_runs=False)
        _keep_journal_prefix(checkpoint, 1)
        resumed = self._pal().run(checkpoint=checkpoint, keep_runs=False)
        assert resumed.service_stats["resumed"] == 1
        assert resumed.to_json() == clean
