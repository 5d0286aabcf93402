"""Semantics of the declared stimulus model (:mod:`repro.runtime.sources`).

The fast-forwarder's value-exactness proof rests on two laws every
:class:`~repro.runtime.sources.Stimulus` must obey:

* ``advance(k)`` leaves the stream in exactly the state ``k`` sequential
  ``next()`` calls would -- bit-identical values afterwards, even for float
  arithmetic (ramps compute ``start + n * step`` by multiplication), and
* ``state()`` / ``restore()`` round-trip the stream position through a
  serialisable value, mid-stream, with no value drift.

Both are property-tested here over randomized positions and seeds, together
with the :func:`~repro.runtime.sources.as_stimulus` resolution table the
drivers rely on.
"""

import itertools
import pickle
import random
import warnings

import pytest

from repro.api.program import FixedSignals
from repro.runtime.sources import (
    ConstantStimulus,
    GeneratorStimulus,
    PeriodicStimulus,
    RampStimulus,
    Stimulus,
    as_stimulus,
)


def make_stimuli():
    """One representative of every stimulus class (fresh instances)."""
    return [
        ConstantStimulus(7.25),
        PeriodicStimulus([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]),
        RampStimulus(0, 1),
        RampStimulus(0.1, 0.3),  # float step: multiplication, not summation
        GeneratorStimulus(lambda: (i * i for i in itertools.count())),
    ]


STIMULUS_IDS = ["constant", "periodic", "ramp-int", "ramp-float", "generator"]


def drain(stimulus, n):
    return [stimulus.next() for _ in range(n)]


class TestAdvanceLaw:
    @pytest.mark.parametrize("make", range(len(STIMULUS_IDS)), ids=STIMULUS_IDS)
    def test_advance_equals_sequential_draws(self, make):
        rng = random.Random(make * 7919 + 17)
        for _ in range(25):
            k = rng.randrange(0, 200)
            a, b = make_stimuli()[make], make_stimuli()[make]
            prefix = rng.randrange(0, 30)
            drain(a, prefix)
            drain(b, prefix)
            a.advance(k)
            drained = drain(b, k)
            assert len(drained) == k
            # advance(k) then next() == the (k+1)-th sequential next()
            assert a.next() == b.next()
            assert drain(a, 5) == drain(b, 5)

    def test_ramp_float_advance_is_bit_identical(self):
        # start + n * step by multiplication: no accumulated float error,
        # so a jump of a million draws is bit-identical to stepping.
        jumped = RampStimulus(0.1, 0.3)
        jumped.advance(1_000_000)
        stepped = RampStimulus(0.1, 0.3)
        stepped.restore(1_000_000)
        assert jumped.next() == stepped.next() == 0.1 + 1_000_000 * 0.3

    def test_legacy_count_reproduced(self):
        ramp = RampStimulus(0, 1)
        count = itertools.count()
        assert drain(ramp, 50) == list(itertools.islice(count, 50))


class TestStateRestore:
    @pytest.mark.parametrize("make", range(len(STIMULUS_IDS)), ids=STIMULUS_IDS)
    def test_state_restore_round_trips_mid_stream(self, make):
        rng = random.Random(make * 104729 + 3)
        for _ in range(15):
            stimulus = make_stimuli()[make]
            drain(stimulus, rng.randrange(0, 120))
            saved = stimulus.state()
            expected = drain(stimulus, 10)
            stimulus.restore(saved)
            assert drain(stimulus, 10) == expected

    def test_restore_onto_fresh_instance(self):
        a = make_stimuli()[1]
        drain(a, 11)
        b = make_stimuli()[1]
        b.restore(a.state())
        assert drain(a, 10) == drain(b, 10)

    def test_generator_factory_restore_rederives_position(self):
        stimulus = GeneratorStimulus(lambda: iter(range(1000)))
        drain(stimulus, 42)
        saved = stimulus.state()
        assert saved == 42
        stimulus.restore(saved)
        assert stimulus.next() == 42

    def test_bare_iterator_state_raises(self):
        stimulus = GeneratorStimulus(iter(range(10)))
        with pytest.raises(ValueError, match="bare iterator"):
            stimulus.state()
        with pytest.raises(ValueError, match="bare iterator"):
            stimulus.restore(0)
        # draining still works: the legacy semantics are preserved
        assert drain(stimulus, 3) == [0, 1, 2]


class TestFreshAndPeriodicity:
    def test_fresh_is_rewound_and_independent(self):
        for stimulus, ident in zip(make_stimuli(), STIMULUS_IDS):
            expected = drain(stimulus, 20)
            clone = stimulus.fresh()
            assert drain(clone, 20) == expected, ident

    def test_fresh_of_bare_iterator_shares_stream(self):
        # Bare iterators cannot rewind: fresh() keeps the legacy
        # shared-iterator semantics instead of silently restarting.
        stimulus = GeneratorStimulus(iter(range(10)))
        assert stimulus.fresh() is stimulus

    def test_value_periodic_declarations(self):
        assert ConstantStimulus(1).value_periodic
        assert PeriodicStimulus([1, 2]).value_periodic
        assert not RampStimulus().value_periodic
        assert not GeneratorStimulus(lambda: iter(range(3))).value_periodic

    def test_closed_form_stimuli_declare_o1_advance(self):
        assert ConstantStimulus(1.0).advance_linear is False
        assert PeriodicStimulus([1, 2]).advance_linear is False
        assert RampStimulus(0, 1).advance_linear is False
        assert Stimulus.advance_linear is True
        assert GeneratorStimulus(lambda: itertools.count()).advance_linear is True

    def test_finite_stream_raises_stop_iteration(self):
        stimulus = GeneratorStimulus(lambda: iter([1, 2]))
        assert drain(stimulus, 2) == [1, 2]
        with pytest.raises(StopIteration):
            stimulus.next()


class TestAsStimulusResolution:
    def test_none_is_counting_ramp(self):
        stimulus = as_stimulus(None)
        assert isinstance(stimulus, RampStimulus)
        assert drain(stimulus, 4) == [0, 1, 2, 3]

    def test_stimulus_passes_through(self):
        stimulus = ConstantStimulus(2)
        assert as_stimulus(stimulus) is stimulus

    def test_factory_keeps_state_protocol(self):
        stimulus = as_stimulus(lambda: iter(range(100)))
        assert isinstance(stimulus, GeneratorStimulus)
        drain(stimulus, 5)
        assert stimulus.state() == 5  # the factory was kept

    def test_factory_returning_stimulus_unwraps(self):
        inner = PeriodicStimulus([1, 2, 3])
        assert as_stimulus(lambda: inner) is inner

    def test_list_wraps_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stimulus = as_stimulus([1.0, 2.0])
        assert isinstance(stimulus, GeneratorStimulus)

    def test_bare_iterator_raises_type_error(self):
        with pytest.raises(TypeError, match="Stimulus or a zero-argument factory"):
            as_stimulus(iter([1.0, 2.0]))
        with pytest.raises(TypeError, match="generator"):
            as_stimulus(float(i) for i in range(3))
        # built explicitly, the adapter is a Stimulus and passes through
        explicit = GeneratorStimulus(iter([1.0, 2.0]))
        assert as_stimulus(explicit) is explicit


class TestFixedSignalsRoundTrip:
    def test_pickle_round_trip_preserves_stimuli(self):
        fixed = FixedSignals(
            {"a": PeriodicStimulus([1.0, 2.0]), "b": RampStimulus(0, 2), "c": [5, 6]}
        )
        clone = pickle.loads(pickle.dumps(fixed))
        signals = clone()
        assert isinstance(signals["a"], PeriodicStimulus)
        assert drain(signals["a"], 3) == [1.0, 2.0, 1.0]
        assert isinstance(signals["b"], RampStimulus)
        assert signals["c"] == [5, 6]

    def test_call_returns_fresh_copies(self):
        fixed = FixedSignals({"a": PeriodicStimulus([1.0, 2.0, 3.0])})
        first = fixed()["a"]
        drain(first, 2)  # mutate the first run's copy
        second = fixed()["a"]
        assert drain(second, 3) == [1.0, 2.0, 3.0]
