#!/usr/bin/env python3
"""The sweep service: cached, resumable parameter grids.

The paper's experiments are all parameter sweeps, and real use re-runs
them constantly -- the same grid after a code tweak elsewhere, a widened
axis, a run that a timeout killed at point 70k of 100k.  The sweep
service (``repro.service``, engaged through ``Sweep.run(store=...)``)
makes each of those cheap:

1. **content-addressed store** -- every point's metric row is persisted
   under a stable content digest, so a repeated run executes nothing and
   an overlapping grid pays only for the new points;
2. **resume** -- each row is stored the moment its point completes, so a
   killed run, re-run on the same store, executes only the points it had
   not finished, into a bit-identical report.

Run with:  python examples/sweep_service.py
"""

import tempfile
from fractions import Fraction
from pathlib import Path

from repro.api import Sweep
from repro.engine import BoundedProcessors


def build_sweep() -> Sweep:
    """The Fig. 4 shape: throughput of the pipeline vs processor count."""
    return Sweep("producer_consumer", duration=Fraction(2)).add_axis(
        "scheduler", [BoundedProcessors(1), BoundedProcessors(2), None]
    )


def demo_store(root: Path) -> str:
    print("=== Content-addressed store: pay for each point once ===")
    store = root / "store"
    cold = build_sweep().run(store=store)
    print(f"cold run : {cold.service_stats}")
    warm = build_sweep().run(store=store)
    print(f"warm run : {warm.service_stats}  (no compilation, no execution)")
    widened = (
        Sweep("producer_consumer", duration=Fraction(2))
        .add_axis(
            "scheduler",
            [BoundedProcessors(1), BoundedProcessors(2), BoundedProcessors(4), None],
        )
        .run(store=store)
    )
    print(f"widened  : {widened.service_stats}  (only the new point ran)")
    assert warm.to_json() == cold.to_json()
    assert warm.service_stats["executed"] == 0
    print()
    return cold.to_json()


def demo_resume(root: Path, clean_json: str) -> None:
    print("=== Resume: a killed sweep picks up where it died ===")
    store = root / "interrupted"
    # Simulate the interruption: a run killed after the grid's first two
    # points leaves a store holding just their rows, as running those two
    # alone does (tests/test_sweep_service.py kills a real subprocess with
    # SIGKILL to prove the same thing end-to-end).
    Sweep("producer_consumer", duration=Fraction(2)).add_axis(
        "scheduler", [BoundedProcessors(1), BoundedProcessors(2)]
    ).run(store=store)
    resumed = build_sweep().run(store=store)
    print(f"resumed  : {resumed.service_stats}")
    assert resumed.service_stats["store_hits"] == 2
    assert resumed.to_json() == clean_json, "resume must be bit-identical"
    print("resumed report is bit-identical to an uninterrupted run")
    print()


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-sweep-service-") as tmp:
        root = Path(tmp)
        clean_json = demo_store(root)
        demo_resume(root, clean_json)
    print("sweep service demo OK")


if __name__ == "__main__":
    main()
