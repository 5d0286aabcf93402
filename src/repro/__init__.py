"""repro -- reproduction of "Hierarchical Programming Language for Modal
Multi-Rate Real-Time Stream Processing Applications" (Geuns, Hausmans,
Bekooij; ICPP Workshops 2014).

The package implements the OIL coordination language, the extraction of task
graphs from its sequential modules, the derivation of a Compositional Temporal
Analysis (CTA) model from complete programs, the polynomial-time consistency /
throughput / buffer-sizing analyses on that model, a discrete-event runtime
that executes OIL applications, the DSP kernels and the PAL video decoder case
study used in the paper's evaluation, and the exact (exponential) dataflow
baselines the paper argues against.

The front door is :mod:`repro.api`: ``Program.from_source(...)`` /
``Program.from_app(...)`` -> ``.analyze()`` -> ``.run(duration)``, plus the
``Sweep`` subsystem for batched parameter-grid scenario studies.
:class:`Program` and :class:`Sweep` are re-exported here::

    from repro import Program, Sweep

Sub-packages
------------
``repro.api``       the unified facade (Program -> Analysis -> RunResult)
                    and the batched Sweep runner
``repro.service``   the sweep service behind ``Sweep.run(store=...)``: the
                    content-addressed result store a killed sweep resumes
                    from
``repro.rules``     pre-flight rule framework (structured violations with
                    source spans) and the ``python -m repro check`` CLI
``repro.lang``      OIL frontend (lexer, parser, AST, semantics, printer)
``repro.graph``     task-graph extraction and circular buffers
``repro.dataflow``  SDF substrate and exact baselines
``repro.cta``       CTA model and polynomial analyses
``repro.core``      the OIL -> CTA compiler (the paper's contribution)
``repro.engine``    pluggable scheduler engine with indexed ready-set dispatch
``repro.platform``  processors, platforms and platform scheduling policies
                    (preemptive fixed-priority, partitioned heterogeneous)
``repro.runtime``   discrete-event execution of OIL applications
``repro.dsp``       signal-processing kernels for the PAL case study
``repro.apps``      ready-made OIL applications (PAL decoder, rate converter,
                    modal audio pipeline, producer/consumer)
``repro.baselines`` sequential-schedule and exact-SDF baselines
``repro.util``      rational arithmetic, units, constraint-graph algorithms
"""

__version__ = "1.1.0"

__all__ = [
    "api",
    "service",
    "rules",
    "lang",
    "graph",
    "dataflow",
    "cta",
    "core",
    "engine",
    "platform",
    "runtime",
    "dsp",
    "apps",
    "baselines",
    "util",
    "Program",
    "Sweep",
]

#: Facade classes re-exported lazily (PEP 562) so that ``import repro`` stays
#: cheap -- the api package pulls the compiler stack only when first used.
_API_EXPORTS = ("Program", "Sweep", "Analysis", "RunResult", "SweepReport")
#: Rule-framework classes re-exported the same way.
_RULES_EXPORTS = ("Rule", "Violation", "CheckModel", "CheckReport", "register_rule")


def __getattr__(name):
    if name in _API_EXPORTS:
        from repro import api

        return getattr(api, name)
    if name in _RULES_EXPORTS:
        from repro import rules

        return getattr(rules, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
