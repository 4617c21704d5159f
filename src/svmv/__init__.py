"""Simulator and verification toolkit for weak anonymous network models.

Nodes in a port-numbered graph run identical deterministic state machines
and receive each round's messages either as a set (multiplicities lost) or
as a multiset.  The package provides the synchronous executor, the
recursive lower-bound tree families with their port collapses, a
radius-bounded bisimilarity checker, a separating-walk search, the
neighbourhood-majority colour problem, and the simulation of multiset
reception on set-reception machines with its exact 2*delta - 2 round
overhead -- together with a reproduction pipeline that checks all of it at
desk scale.  The package exports nothing: import from its modules.
"""
