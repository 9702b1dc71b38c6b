"""Truck, drone and robot last-mile routing toolkit.

Submodules:
  core       data model, metrics, the cap-pruned sortie walk, JSON I/O
  energy     drone/robot energy formulas, battery ledgers, charging
  milp       mixed-integer model builder, LP export
  schedule   plan objective, truck timeline, per-vehicle sortie walk
  validator  full constraint checker and simulated makespan
  exact      exhaustive reference optimum for tiny instances
  finder     three-phase construction heuristic with en-route charging
  bench      instance generator, experiment scenarios, CSV emission
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    DRONE,
    ROBOT,
    FleetSpec,
    Instance,
    ModelOptions,
    Node,
    ObjectiveBreakdown,
    Plan,
    Sortie,
    enumerate_sequences,
    euclidean_distance,
    instance_from_json,
    instance_to_json,
    manhattan_distance,
    plan_from_json,
    plan_to_json,
    sortie_distance,
)
