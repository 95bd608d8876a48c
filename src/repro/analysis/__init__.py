"""Whole-program lock-discipline and effect passes for ``repro lint``.

Where the REP1xx rules in :mod:`repro.sanitizers` look at one file at a
time, this package builds a call graph over the scanned tree
(:mod:`~repro.analysis.callgraph`) and runs the interprocedural rules on
it (:mod:`~repro.analysis.lockorder`):

- **lock order** (REP202/REP203): cycles in the inferred
  lock-acquisition graph, and blocking operations performed while a
  catalog/cache fast lock is held;
- **effect validation** (REP204): ``@effects(...)`` decorators and
  ``# repro: effect=`` comments (:mod:`~repro.analysis.effects`)
  checked against inferred behaviour.

The package imports nothing on purpose: the service imports the
stdlib-only :mod:`~repro.analysis.effects` decorator, and that must not
pull the checker into the runtime. Import from the submodules.
"""
