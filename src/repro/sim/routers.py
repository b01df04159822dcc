"""The execution modes a scenario may name, apart from the code that runs them.

:mod:`repro.sim.routing` routes plans with the MAPF solvers of
:mod:`repro.mapf`; the scenario schema and the CLI parser only check names,
so they read them here and load no MAPF code.
"""

#: Execution modes: ``abstract`` replays the plan, the rest route on the grid.
ROUTERS = ("abstract", "prioritized", "cbs", "ecbs", "lifelong")
