"""Tests for the sweep service (repro.service): stable content digests and
the content-addressed result store, which is also how a killed sweep
resumes.

The load-bearing invariant throughout: a report produced *any* service way
-- resumed after a kill, served from the cache -- renders bit-identically
(``to_json``, ``rows``) to a plain single-shot serial run of the same sweep.
"""

import functools
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from repro.api import Program, Sweep, SweepConfigError
from repro.api.spec import ProgramSpec, stable_digest
from repro.apps.producer_consumer import (
    QUICKSTART_OIL_SOURCE,
    quickstart_registry,
    quickstart_wcets,
)
from repro.dsp.mixer import Mixer
from repro.engine import BoundedProcessors, SelfTimedUnbounded
from repro.runtime.sources import ConstantStimulus, RampStimulus
from repro.service import STORE_SCHEMA, ResultStore, point_key, point_keys


def _square_point(n):
    """Module-level runner: stable identity for content addressing."""
    return {"value": n * n}


# Two module-level lambdas share the qualname ``<lambda>``.
_constant_signals = lambda: {"samples": ConstantStimulus(1.0)}  # noqa: E731
_ramp_signals = lambda: {"samples": RampStimulus(0.0, 1.0)}  # noqa: E731


def _constant_samples():
    return {"samples": ConstantStimulus(1.0)}


def _ramp_samples():
    return {"samples": RampStimulus(0.0, 1.0)}


def _quickstart_with(signals):
    return Program.from_source(
        QUICKSTART_OIL_SOURCE,
        name="inline-quickstart",
        function_wcets=quickstart_wcets(),
        registry=quickstart_registry,
        signals=signals,
    )


def _quick_sweep(**kwargs):
    return (
        Sweep("producer_consumer", duration=Fraction(2), **kwargs)
        .add_axis("scheduler", [BoundedProcessors(1), BoundedProcessors(2), None])
    )


def _keep_store_prefix(root, rows):
    """Cut the store of one serial run back to its first *rows* rows and no
    index: the store a run killed after those points leaves."""
    (root / "index.json").unlink()
    [segment] = (root / "segments").glob("segment-*.jsonl")
    lines = segment.read_text().splitlines(keepends=True)
    segment.write_text("".join(lines[:rows]))


def _stored_rows(root):
    """The complete row lines in the segments of the store at *root*."""
    return sum(
        line.endswith("\n") and '"key"' in line
        for segment in (root / "segments").glob("segment-*.jsonl")
        for line in segment.read_text().splitlines(keepends=True)
    )


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

    def test_module_level_lambdas_have_no_stable_identity(self):
        for signals in (_constant_signals, _ramp_signals):
            with pytest.raises(SweepConfigError, match="stable identity"):
                stable_digest(signals)

    def test_closures_have_no_stable_identity(self):
        def level(value):
            def signals():
                return {"samples": ConstantStimulus(value)}

            return signals

        for closure in (level(1.0), level(2.0), lambda: 0):
            with pytest.raises(SweepConfigError, match="stable identity"):
                stable_digest(closure)

    def test_partials_digest_their_arguments(self):
        two = functools.partial(_square_point, 2)
        assert stable_digest(two) == stable_digest(functools.partial(_square_point, 2))
        assert stable_digest(two) != stable_digest(functools.partial(_square_point, 3))
        assert stable_digest(functools.partial(_square_point, n=2)) != stable_digest(
            functools.partial(_square_point, n=3)
        )

    def test_bound_methods_digest_their_instance(self):
        assert stable_digest(Mixer(0.1).mix) == stable_digest(Mixer(0.1).mix)
        assert stable_digest(Mixer(0.1).mix) != stable_digest(Mixer(0.3).mix)
        assert stable_digest(Mixer(0.1).mix) != stable_digest(Mixer(0.1).reset)

    def test_arrays_digest_every_element(self):
        numpy = pytest.importorskip("numpy")
        a = numpy.zeros(5000)
        b = numpy.zeros(5000)
        b[2500] = 1.0
        assert repr(a) == repr(b)  # the premise: the repr is truncated
        assert stable_digest(a) != stable_digest(b)
        assert stable_digest(a) == stable_digest(numpy.zeros(5000))


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

    def test_index_keeps_rows_another_writer_appended(self, tmp_path):
        root = tmp_path / "store"
        first, second = ResultStore(root), ResultStore(root)
        second.put("kb", {"metrics": {}})
        second.close()
        first.put("ka", {"metrics": {}})
        first.close()  # its index must not claim the other segment as read
        fresh = ResultStore(root)
        assert len(fresh) == 2
        assert fresh.get("kb") == {"metrics": {}}

    def test_row_still_being_appended_is_read_by_the_next_open(self, tmp_path):
        root = tmp_path / "store"
        with ResultStore(root) as writer:
            writer.put("a", {"metrics": {}})
            segment = writer.segments_dir / writer._segment_name
        line = json.dumps(
            {"schema": STORE_SCHEMA, "key": "b", "payload": {"metrics": {}}}
        ).encode("utf-8") + b"\n"
        with open(segment, "ab") as handle:
            handle.write(line[:20])  # another writer is mid-append
        reader = ResultStore(root)
        assert "b" not in reader
        with open(segment, "ab") as handle:
            handle.write(line[20:])
        reader.put("c", {"metrics": {}})
        reader.close()
        assert ResultStore(root).get("b") == {"metrics": {}}


# ---------------------------------------------------------------------------
# Sweep.run(store=...): cache hits, resume, bit-identity
# ---------------------------------------------------------------------------


class TestServiceSweep:
    def test_warm_store_executes_and_compiles_nothing(self, tmp_path, monkeypatch):
        store = tmp_path / "store"
        cold = _quick_sweep().run(store=store)
        assert cold.service_stats == {"points": 3, "executed": 3, "store_hits": 0}

        import repro.api.sweep as sweep_module

        compiles = []
        original = sweep_module.Program.from_app.__func__

        def counting(cls, app, **params):
            compiles.append(app)
            return original(cls, app, **params)

        monkeypatch.setattr(sweep_module.Program, "from_app", classmethod(counting))
        warm = _quick_sweep().run(store=store)
        assert warm.service_stats == {"points": 3, "executed": 0, "store_hits": 3}
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
        store = tmp_path / "store"
        # store only a prefix of the grid, as an interrupted run would have
        _quick_sweep().run(store=store)
        _keep_store_prefix(store, 2)
        resumed = _quick_sweep().run(store=store)
        assert resumed.service_stats == {"points": 3, "executed": 1, "store_hits": 2}
        assert resumed.to_json() == clean

    def test_failed_points_checkpoint_but_never_store(self, tmp_path):
        def build():
            # an int on the scheduler axis fails that point only
            return (
                Sweep("quickstart", duration=Fraction(1, 100))
                .add_axis("scheduler", [None, 42])
            )

        store = tmp_path / "store"
        first = build().run(store=store)
        assert [result.ok for result in first.results] == [True, False]
        assert len(ResultStore(store)) == 1  # the store kept only the ok row
        for _ in range(2):
            # every re-run retries the failure and renders it identically
            again = build().run(store=store)
            assert again.service_stats == {"points": 2, "executed": 1, "store_hits": 1}
            assert again.to_json() == first.to_json()
        assert len(ResultStore(store)) == 1

    def test_process_backend_checkpoints_from_the_parent(self, tmp_path):
        def sweep():
            return Sweep.from_callable(_square_point).add_axis("n", [1, 2, 3, 4])

        clean = sweep().run().to_json()
        store = tmp_path / "store"
        report = sweep().run(executor="process", workers=2, store=store)
        assert report.to_json() == clean
        # the parent wrote every row: one segment, named by the parent's pid
        [segment] = (store / "segments").glob("segment-*.jsonl")
        assert segment.name.endswith(f"-{os.getpid()}.jsonl")
        assert _stored_rows(store) == 4
        served = sweep().run(store=store)
        assert served.service_stats == {"points": 4, "executed": 0, "store_hits": 4}
        assert served.to_json() == clean

    def test_program_with_other_signals_is_never_served_its_row(self, tmp_path):
        store = tmp_path / "store"
        # one module-level lambda cannot be told from another: no key
        for signals in (_constant_signals, _ramp_signals):
            with pytest.raises(SweepConfigError, match="stable identity"):
                Sweep(program=_quickstart_with(signals), duration=2).run(store=store)
        # module-level functions are keyed apart: the ramp runs on its own
        constant = Sweep(program=_quickstart_with(_constant_samples), duration=2)
        assert constant.run(store=store).column("fast_forwarded") == [True]
        ramp = Sweep(program=_quickstart_with(_ramp_samples), duration=2).run(store=store)
        assert ramp.service_stats["store_hits"] == 0
        assert ramp.column("fast_forwarded") == [False]


class TestKillAndResume:
    """A sweep SIGKILLed mid-run resumes bit-identically from its store."""

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
            report = sweep.run(executor="serial", store=sys.argv[2])
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
        store = tmp_path / "store"

        clean = self._run("clean", cwd=repo)
        assert clean.returncode == 0, clean.stderr

        killed = self._run("store", store, kill=True, cwd=repo)
        assert killed.returncode == -9  # died by SIGKILL mid-grid
        stored = _stored_rows(store)
        assert 0 < stored < 5  # some rows survived, not all

        resumed = self._run("store", store, cwd=repo)
        assert resumed.returncode == 0, resumed.stderr
        stats_line, report_line = resumed.stdout.strip().splitlines()
        stats = json.loads(stats_line)
        assert stats["store_hits"] == stored
        assert stats["executed"] == 5 - stored
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

        # resumed (prefix stored, rest executed on resume)
        _keep_store_prefix(store, 1)
        resumed = self._pal().run(store=store, keep_runs=False)
        assert resumed.service_stats["store_hits"] == 1
        assert resumed.service_stats["executed"] == 1
        assert resumed.to_json() == clean
