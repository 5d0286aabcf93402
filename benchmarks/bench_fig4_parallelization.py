"""E3 / Fig. 4 -- Parallelization of a sequential modal module.

The module of Fig. 4a assigns ``y`` in either branch of an ``if`` and then
calls ``k(y, out x:2)``.  The extraction creates one task per statement; the
guarded statements become unconditionally executing tasks whose bodies stay
guarded, and the variable ``y`` becomes a circular buffer with two producers
and one consumer (Fig. 4b).

The second experiment quantifies what the parallelization is *for*: the
extracted parallelism executed on a bounded number of processors.  An OIL
fork/join program (``tests/oil_fleets.py``: a split, eight calls of one
``Work`` module, a join) runs under the scheduler engine's
``BoundedProcessors(n)`` policy, which list-schedules its extracted tasks on
n processors.  The processor-count grid runs through the facade's sweep
machinery (``repro.api.Sweep.from_callable``: the capacities of a fork/join
are given, not sized) and the firings each point completes over a fixed
horizon yield the speedup-vs-cores curve of the Fig. 4 scenario axis.
"""

import os
import sys

from _reporting import print_table

from repro.api import Sweep
from repro.engine import BoundedProcessors
from repro.graph import extract_task_graph, task_graph_to_sdf, static_order_schedule
from repro.lang import parse_module

sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
import oil_fleets  # noqa: E402  (the printed engine fleets)

FIG4_SOURCE = """
mod seq M(out int x, int s){
  int y;
  loop{
    if (s > 0) { y = g(); } else { y = h(); }
    k(y, out x:2);
  } while(1);
}
"""


def test_fig4_task_graph_extraction(benchmark):
    module = parse_module(FIG4_SOURCE)
    graph = benchmark(extract_task_graph, module)

    rows = []
    for task in sorted(graph.tasks.values(), key=lambda t: t.order):
        rows.append(
            [
                task.name,
                "guarded" if task.guard is not None else "unconditional",
                ", ".join(f"{a.buffer}:{a.count}" for a in task.reads),
                ", ".join(f"{a.buffer}:{a.count}" for a in task.writes),
            ]
        )
    print_table("Fig. 4: tasks extracted from the modal module", ["task", "execution", "reads", "writes"], rows)

    buffer_rows = [
        [b.name, b.kind, len(b.producers), len(b.consumers)] for b in graph.buffers.values()
    ]
    print_table("Fig. 4: circular buffers", ["buffer", "kind", "producers", "consumers"], buffer_rows)

    assert len(graph.tasks) == 3
    assert sum(1 for t in graph.tasks.values() if t.guard is not None) == 2
    assert len(graph.buffers["y"].producers) == 2
    assert graph.streams["x"].per_loop_counts == {"loop0": 2}

    sdf = task_graph_to_sdf(graph)
    schedule = static_order_schedule(sdf)
    print(f"\nvalid static-order schedule of the extracted task graph: {schedule}")


def test_fig4_bounded_processor_speedup(benchmark):
    """Speedup of the extracted parallelism on n processors (n = 1, 2, 4, 8),
    swept over the processor grid through the facade's sweep machinery."""
    width = 8
    rounds = 25
    # one processor needs a worker second per worker and round
    horizon = rounds * width + 1
    fleet = oil_fleets.fork_join(width)

    def firings(processors: int) -> int:
        run = fleet.run(horizon, scheduler=BoundedProcessors(processors), trace="off")
        return run.completed_firings

    def point(processors: int):
        return {"completed_firings": firings(processors)}

    report = (
        Sweep.from_callable(point, name="fig4 fork/join speedup")
        .add_axis("processors", [1, 2, 4, 8])
        .run()
    )
    benchmark(firings, 8)

    speedup = {
        row["processors"]: row["speedup"]
        for row in report.speedup_table("completed_firings")
    }
    completed = dict(zip(report.column("processors"), report.column("completed_firings")))
    rows = [[n, completed[n], f"{speedup[n]:.2f}x"] for n in sorted(completed)]
    print_table(
        f"Fig. 4 scenario axis: {width}-wide OIL fork/join over {horizon} s, list scheduling",
        ["processors", "firings", "speedup"],
        rows,
    )

    # The speedup curve must be monotone and approach the width.
    assert report.ok
    assert completed[1] >= rounds * (width + 2)  # split + workers + join per round
    assert completed[1] <= completed[2] <= completed[4] <= completed[8]
    assert speedup[8] > 4
