"""Simulator and verification toolkit for weak anonymous network models.

Nodes in a port-numbered graph run identical deterministic state machines
and receive each round's messages either as a set (multiplicities lost) or
as a multiset.  The package provides the synchronous executor, the
recursive lower-bound tree families with their port collapses, a
radius-bounded bisimilarity checker, a separating-walk search, the
neighbourhood-majority colour problem, and the simulation of multiset
reception on set-reception machines with its exact 2*delta - 2 round
overhead -- together with a reproduction pipeline that checks all of it at
desk scale.
"""

from .bisim import (BisimCache, MaterializedView, PointedInstance, bisimilar,
                    max_bisim_radius)
from .errors import (BallExhaustedError, DegreeBoundError, DidNotHaltError,
                     FormatError, InternalInconsistencyError,
                     MachineContractError, NumberingError, ResourceLimitError,
                     SignatureCollisionError, SvmvError)
from .executor import ExecutionTrace, execute, local_outputs
from .families import (FamilyView, PortCollapse, ROOT, build_ball,
                       build_collapsed, build_full, children, children_g,
                       children_h, collapse_g, collapse_h, family_collapse,
                       format_path, h_counterpart, node_colour, node_degree,
                       parse_path, pi, validate_path)
from .graphs import PortNumberedGraph, random_colouring, random_graph
from .machines import (AD_HOC_SV_MACHINES, EPSILON, MV, SV, StateMachine,
                       vmset_reduce, vset_reduce)
from .problem import COLOURS, check_pi, output_colour, pi_allowed, solve_pi_mv
from .simulate import (SimulationReport, audit_signatures, gather_rounds,
                       multiset_echo, mv_by_sv, run_simulation)
from .experiments import run_theorem1, run_theorem2
from .views import ViewTree, canonical_sv, view
from .walks import (PCW, PSW, VerifyResult, WalkPair, find_critical_psw,
                    successor, verify_psw, walk_pair_from_labels)

__all__ = [name for name in dir() if not name.startswith("_")]
