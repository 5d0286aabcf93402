"""The incrementally maintained steady-state key and its from-scratch oracle.

The detector's ``state_key()`` combines digests pushed by mutation sites
(per-slot buffer digests, stimulus tokens, version-gated function-state
digests) instead of re-walking the world per anchor sample.
``state_key_slow()`` recomputes the identical key from scratch, and the
contract is *equality*, not mere collision-freedom: any write path that
bypasses the digest maintenance must show up as a key mismatch.  The tests
here cross-check that equality at every sample point of real runs, pin the
write-time digest invariant under randomized buffer operation sequences,
and cover the satellite pieces: ``EventQueue.prune_cancelled``, the
``generator-advance`` run warning and the ``runtime.generator-source``
pre-flight rule.
"""

import itertools
import random
from fractions import Fraction

import pytest

import repro.engine.steady_state as steady_state_module
from repro.api import Program
from repro.engine.steady_state import SteadyState
from repro.graph.circular_buffer import CircularBuffer
from repro.dsp.filters import StreamingFIR, design_lowpass
from repro.dsp.mixer import Mixer
from repro.dsp.resample import Decimator, RationalResampler
from repro.runtime.events import EventQueue
from repro.runtime.sources import (
    ConstantStimulus,
    GeneratorStimulus,
    PeriodicStimulus,
    RampStimulus,
    Stimulus,
)
from repro.util.digests import value_digest
from repro.util.runwarnings import warning_code

VALUE_EXACT_APPS = ["quickstart", "pal_decoder", "modal_mute", "modal_two_mode"]


def _constant_signals(app):
    names = list(Program.from_app(app).analyze().compilation.source_ports)
    return {name: ConstantStimulus(1.0) for name in names}


def _install_oracle_crosscheck(monkeypatch):
    """Make every ``state_key()`` call also run the from-scratch oracle and
    assert bit-identity.  Returns the list of per-sample check counts."""
    checks = []

    def checked(self):
        fast = self._state_key(incremental=True)
        slow = self._state_key(incremental=False)
        assert fast == slow, "incremental state key diverged from the oracle"
        checks.append(1)
        return fast

    monkeypatch.setattr(SteadyState, "state_key", checked)
    return checks


class TestOracleEquality:
    @pytest.mark.parametrize("app", VALUE_EXACT_APPS)
    def test_incremental_key_equals_oracle_at_every_sample(self, app, monkeypatch):
        checks = _install_oracle_crosscheck(monkeypatch)
        result = Program.from_app(app).analyze().run(
            Fraction(1, 2), signals=_constant_signals(app)
        )
        steady = result.simulation.engine.steady_state
        assert result.fast_forwarded and steady.jumps >= 1
        # The cross-check ran at every anchor sample, spanning the jump.
        assert len(checks) >= len(steady._seen) > 0

    def test_pal_decoder_default_signals_key_equals_oracle(self, monkeypatch):
        # The acceptance app with its real (declared-periodic composite RF)
        # stimulus and every stateful DSP function declaring state_version.
        checks = _install_oracle_crosscheck(monkeypatch)
        result = Program.from_app("pal_decoder").analyze().run(
            Fraction(4), trace="off"
        )
        steady = result.simulation.engine.steady_state
        assert result.fast_forwarded and steady.jumps >= 1
        assert len(checks) >= len(steady._seen) > 0


class TestBufferDigests:
    VALUES = [0.0, 1.5, -3.25, "token", (1, 2), None, 7]

    def test_randomized_op_sequences_keep_slot_digests_exact(self):
        rng = random.Random(20260807)
        for _trial in range(25):
            capacity = rng.randint(1, 8)
            initial = [rng.choice(self.VALUES) for _ in range(rng.randint(0, capacity))]
            buffer = CircularBuffer("b", capacity, initial_values=initial)
            buffer.register_producer("p")
            buffer.register_consumer("c")
            buffer.enable_value_digests()
            for _step in range(120):
                roll = rng.random()
                if roll < 0.45 and buffer.can_produce("p", 1):
                    buffer.produce("p", [rng.choice(self.VALUES)], 1)
                elif roll < 0.55 and buffer.can_produce("p", 1):
                    buffer.produce("p", None, 1)  # release-without-write
                elif roll < 0.85 and buffer.can_consume("c", 1):
                    buffer.consume("c", 1)
                else:
                    buffer.rotate_storage(rng.randrange(0, 2 * capacity))
                assert buffer._slot_digests == [
                    value_digest(value) for value in buffer._storage
                ], "slot digests diverged from storage"

    def test_produce_window_fast_path_maintains_digests(self):
        buffer = CircularBuffer("b", 4)
        buffer.register_producer("p")
        buffer.register_consumer("c")
        buffer.enable_value_digests()
        window = buffer.window_of_producer("p")
        buffer.produce_window(window, [1.0, 2.0], 2)
        assert buffer._slot_digests == [value_digest(v) for v in buffer._storage]

    def test_mutations_bump_version_rotation_does_not(self):
        buffer = CircularBuffer("b", 4)
        buffer.register_producer("p")
        buffer.register_consumer("c")
        version = buffer.mutation_version
        buffer.produce("p", [1.0], 1)
        assert buffer.mutation_version > version
        version = buffer.mutation_version
        buffer.consume("c", 1)
        assert buffer.mutation_version > version
        version = buffer.mutation_version
        # The jump's realignment primitive deliberately leaves the version
        # alone: the rotation-anchored fold is invariant under it.
        buffer.rotate_storage(3)
        assert buffer.mutation_version == version

    def test_enable_value_digests_covers_initial_values(self):
        buffer = CircularBuffer("b", 3, initial_values=[5.0, 6.0])
        buffer.enable_value_digests()
        assert buffer._slot_digests == [value_digest(v) for v in buffer._storage]


class TestPruneCancelled:
    def test_prune_drops_every_cancelled_entry_and_keeps_order(self):
        queue = EventQueue()
        events = [
            queue.schedule(Fraction(i, 10), lambda: None, label=f"e{i}")
            for i in range(10)
        ]
        for event in events[::2]:
            queue.cancel(event)
        assert queue.cancelled_pending == 5
        queue.prune_cancelled()
        assert queue.cancelled_pending == 0
        assert all(not event.cancelled for event in queue._heap)
        assert sorted(event.label for event in queue._heap) == [
            f"e{i}" for i in range(1, 10, 2)
        ]
        # Heap invariant intact: events drain in time order.
        import heapq

        times = []
        while queue._heap:
            times.append(heapq.heappop(queue._heap).time)
        assert times == sorted(times) == [Fraction(i, 10) for i in range(1, 10, 2)]

    def test_prune_without_debt_is_a_no_op(self):
        queue = EventQueue()
        queue.schedule(Fraction(1, 10), lambda: None)
        heap_before = list(queue._heap)
        queue.prune_cancelled()
        assert queue._heap == heap_before


class TestStimulusTokens:
    def test_closed_form_stimuli_declare_o1_advance(self):
        assert ConstantStimulus(1.0).advance_linear is False
        assert PeriodicStimulus([1, 2]).advance_linear is False
        assert RampStimulus(0, 1).advance_linear is False
        assert Stimulus.advance_linear is True
        assert GeneratorStimulus(lambda: itertools.count()).advance_linear is True

    def test_state_token_tracks_state(self):
        for stimulus in (
            ConstantStimulus(2.5),
            PeriodicStimulus([1, 2, 3]),
            RampStimulus(0.0, 1.0),
            GeneratorStimulus(lambda: itertools.count()),
        ):
            assert stimulus.state_token() == stimulus.state()
            stimulus.next()
            assert stimulus.state_token() == stimulus.state()


class TestFunctionStateVersions:
    def _assert_version_moves(self, obj, mutate):
        before_version = obj.state_version()
        before_state = obj.get_state()
        assert obj.state_version() == before_version  # reading is free
        mutate()
        assert obj.state_version() != before_version or obj.get_state() == before_state

    def test_streaming_fir_version_moves_with_state(self):
        fir = StreamingFIR(design_lowpass(0.2, 7))
        self._assert_version_moves(fir, lambda: fir.process([1.0, 2.0]))
        self._assert_version_moves(fir, fir.reset)
        state = fir.get_state()
        self._assert_version_moves(fir, lambda: fir.set_state(state))

    def test_mixer_token_is_its_position(self):
        mixer = Mixer(0.25)
        assert mixer.state_version() == mixer.get_state()
        mixer.process([1.0])
        assert mixer.state_version() == mixer.get_state()

    def test_resampler_and_decimator_versions_move_with_state(self):
        resampler = RationalResampler(2, 3)
        self._assert_version_moves(resampler, lambda: resampler.process([1.0, 2.0, 3.0]))
        decimator = Decimator(4)
        self._assert_version_moves(decimator, lambda: decimator.process([1.0] * 4))


class TestSamplingCost:
    def test_sampling_does_not_redigest_unchanged_state(self, monkeypatch):
        # Structural regression guard (no wall clocks): the number of value
        # digests computed *inside the key fold* must scale with what changed
        # per sample (a few in-flight values and function states), not with
        # samples x total buffer capacity as a from-scratch rebuild would.
        calls = {"n": 0}
        real = steady_state_module.value_digest

        def counting(value):
            calls["n"] += 1
            return real(value)

        monkeypatch.setattr(steady_state_module, "value_digest", counting)
        result = Program.from_app("pal_decoder").analyze().run(Fraction(1), trace="off")
        steady = result.simulation.engine.steady_state
        assert steady is not None
        samples = len(steady._seen)
        total_capacity = sum(buffer.capacity for buffer in steady._buffers)
        assert samples > 1000
        assert total_capacity > 10
        # From-scratch would pay >= samples * total_capacity slot digests on
        # top of the per-sample tail; the incremental fold stays within a
        # small constant per sample.
        assert calls["n"] <= samples * 16
        assert calls["n"] < samples * total_capacity / 4


class _PeriodicGenerator(GeneratorStimulus):
    """A generator-backed stream that *declares* an exact value period, so
    the value-exact detector qualifies it -- but whose ``advance()`` still
    replays draws one by one (``advance_linear`` stays True)."""

    value_periodic = True

    def __init__(self, values):
        self._values = list(values)
        super().__init__(lambda: itertools.cycle(self._values))
        self.period = len(self._values)

    def state(self):
        return self.draws % self.period

    def fresh(self):
        return _PeriodicGenerator(self._values)


class TestGeneratorAdvanceWarning:
    def test_jump_through_generator_stimulus_warns_past_threshold(self, monkeypatch):
        monkeypatch.setattr(steady_state_module, "GENERATOR_ADVANCE_THRESHOLD", 0)
        result = Program.from_app("quickstart").analyze().run(
            Fraction(1, 2), signals={"samples": _PeriodicGenerator([0.5, -0.25])}
        )
        steady = result.simulation.engine.steady_state
        assert result.fast_forwarded and steady.jumps >= 1
        codes = [warning_code(w) for w in result.warnings]
        assert "generator-advance" in codes

    def test_no_warning_below_threshold_or_for_closed_form(self):
        generator = Program.from_app("quickstart").analyze().run(
            Fraction(1, 2), signals={"samples": _PeriodicGenerator([0.5, -0.25])}
        )
        assert generator.fast_forwarded
        constant = Program.from_app("quickstart").analyze().run(
            Fraction(1, 2), signals={"samples": ConstantStimulus(1.0)}
        )
        assert constant.fast_forwarded
        for result in (generator, constant):
            assert "generator-advance" not in [
                warning_code(w) for w in result.warnings
            ]


class TestGeneratorSourceRule:
    def test_rule_flags_generator_backed_stimuli_only(self):
        flagged = Program.from_app(
            "quickstart", signal=GeneratorStimulus(lambda: itertools.count())
        ).check(select=["runtime.generator-source"])
        assert [v.rule_id for v in flagged.violations] == ["runtime.generator-source"]
        violation = flagged.violations[0]
        assert violation.severity == "info"
        assert violation.extra.get("warning_code") == "generator-advance"

        closed_form = Program.from_app(
            "quickstart", signal=ConstantStimulus(1.0)
        ).check(select=["runtime.generator-source"])
        assert closed_form.violations == []

        default = Program.from_app("quickstart").check(
            select=["runtime.generator-source"]
        )
        assert default.violations == []  # the counting default is a ramp
