#!/usr/bin/env python3
"""Modal multi-rate applications, through the repro.api facade.

Two applications demonstrate the paper's central point -- that modes
(data-dependent control behaviour) can be expressed in the sequential part of
an OIL program while the derived CTA model remains analysable:

1. the *mute* pipeline: an ``if``/``else`` inside the streaming loop decides
   per block whether to emit the processed value or silence (the Fig. 4
   pattern: guarded statements become unconditionally executing tasks),
2. the *two-mode* pipeline: a calibration loop and a processing loop in
   sequence (the Fig. 3 / Fig. 9 pattern: each while-loop becomes its own CTA
   component, so the periodic constraints hold regardless of the mode
   sequence).

For both, the example derives the analysis once and runs adversarial mode
sequences -- the two-mode schedules as a mode-schedule Sweep -- showing that
the analysis results (rates, buffer capacities) are never violated no matter
which mode is active.

Run with:  python examples/modal_modes.py
"""

from fractions import Fraction

from repro.api import Program, Sweep


def run_mute() -> None:
    print("=== Mute pipeline (if/else mode inside one loop) ===")
    program = Program.from_app(
        "modal_mute", signal=([1.0] * 160 + [-1.0] * 160) * 50
    )
    print(program.source.strip())
    analysis = program.analyze()
    print(analysis.report())

    run = analysis.run(Fraction(1, 5))
    speaker = run.sink("speaker")
    muted = sum(1 for v in speaker if v == 0.0)
    print(f"deadline violations: {run.deadline_misses}")
    print(f"speaker rate: {float(run.measured_rates['speaker']):.1f} Hz (declared 2000 Hz)")
    print(f"speaker samples: {len(speaker)} ({muted} muted, {len(speaker) - muted} active)\n")


def run_two_mode() -> None:
    print("=== Two-mode pipeline (two while-loops) ===")
    program = Program.from_app("modal_two_mode")
    print(program.source.strip())
    analysis = program.analyze()
    print(analysis.report())

    schedules = [
        (("loop0", 1), ("loop1", 1)),
        (("loop0", 3), ("loop1", 5)),
        (("loop0", 7), ("loop1", 2)),
    ]
    report = (
        Sweep(program=program, duration=Fraction(1, 10), name="two-mode schedules")
        .add_axis("mode_schedules", [{"TwoMode": list(s)} for s in schedules])
        .run()
    )
    print(report.table(columns=[
        "mode_schedules", "deadline_misses", "rate[dac]", "occupancy_ok",
    ]))
    for result in report:
        dac = result.run.sink("dac")
        calibration = sum(1 for v in dac if v >= 50.0)
        print(f"  {result.params['mode_schedules']['TwoMode']}: "
              f"{calibration}/{len(dac)} calibration-mode samples")


def main() -> None:
    run_mute()
    run_two_mode()


if __name__ == "__main__":
    main()
