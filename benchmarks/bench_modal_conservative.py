"""E10 -- Conservativeness of the analysis under modal behaviour.

Simulates the modal applications (if/else mute mode; two-while-loop mode
switching) under a range of mode sequences and input signals and verifies the
central guarantee of the approach: with the buffer capacities computed from
the CTA model, the periodic sources and sinks never miss a deadline and the
observed buffer occupancies never exceed the computed capacities -- whatever
the modes do.
"""

from fractions import Fraction

from _reporting import print_table

from repro.api import Analysis
from repro.apps.modal_audio import (
    compile_mute,
    compile_two_mode,
    mute_program,
    two_mode_program,
)


def test_mute_modes_never_violate_deadlines(benchmark):
    result = compile_mute()
    sizing = result.size_buffers()

    signals = {
        "always good": [1.0] * 4000,
        "always bad": [-1.0] * 4000,
        "alternating blocks": ([1.0] * 32 + [-1.0] * 32) * 80,
        "random-ish": [((i * 37) % 11) - 5.0 for i in range(4000)],
    }

    def run_all():
        outcomes = []
        for name, signal in signals.items():
            run = Analysis(mute_program(signal=signal), result, sizing=sizing).run(Fraction(1, 5))
            simulation, trace = run.simulation, run.trace
            muted = sum(1 for v in simulation.sinks["speaker"].consumed if v == 0.0)
            outcomes.append(
                (name, trace.deadline_miss_count(), float(trace.measured_rate("speaker") or 0), muted)
            )
        return outcomes

    outcomes = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "Mute pipeline under different reception patterns",
        ["signal", "deadline misses", "speaker rate [Hz]", "muted samples"],
        [list(o) for o in outcomes],
    )
    assert all(misses == 0 for _, misses, _, _ in outcomes)


def test_two_mode_schedules_never_violate_capacities(benchmark):
    result = compile_two_mode()
    sizing = result.size_buffers()
    schedules = [
        (("loop0", 1), ("loop1", 1)),
        (("loop0", 2), ("loop1", 7)),
        (("loop0", 9), ("loop1", 1)),
        (("loop0", 4), ("loop1", 4)),
    ]

    def run_all():
        outcomes = []
        for schedule in schedules:
            run = Analysis(
                two_mode_program(mode_schedule=schedule), result, sizing=sizing
            ).run(Fraction(1, 20))
            simulation, trace = run.simulation, run.trace
            max_util = max(
                (
                    trace.buffer_high_water.get(name, 0) / buffer.capacity
                    for name, buffer in simulation.buffers.items()
                ),
                default=0.0,
            )
            outcomes.append(
                (str(schedule), trace.deadline_miss_count(), float(trace.measured_rate("dac") or 0), f"{max_util:.2f}")
            )
        return outcomes

    outcomes = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "Two-mode pipeline under adversarial mode schedules",
        ["mode schedule", "deadline misses", "dac rate [Hz]", "max buffer utilisation"],
        [list(o) for o in outcomes],
    )
    assert all(misses == 0 for _, misses, _, _ in outcomes)
    assert all(float(util) <= 1.0 for *_, util in outcomes)
