"""Grid routers: A*, negotiation-based routing, MST routing, bounded-length.

This package implements every router the PACOR flow needs:

* :func:`astar_route` — A* on the routing grid, supporting point-to-point,
  point-to-path and path-to-path queries (Section 3 of the paper).
* :class:`NegotiationRouter` — Algorithm 1: iterative rip-up-all/reroute
  with PathFinder-style history costs (Eq. 5) at detailed-routing level.
* :func:`route_cluster_mst` — MST-based routing for ordinary clusters with
  de-clustering on failure.
* :func:`bounded_length_route` — the minimum-length bounded A* of
  Section 6, with a serpentine-insertion fallback used by the detour stage.
"""

from repro.routing.astar import astar_route
from repro.routing.bounded import bounded_length_route, extend_path_with_bumps
from repro.routing.lee import lee_route
from repro.routing.mst import MstRoutingResult, manhattan_mst, route_cluster_mst
from repro.routing.negotiation import NegotiationResult, NegotiationRouter, RouteRequest
from repro.routing.path import Path

__all__ = [
    "Path",
    "astar_route",
    "NegotiationRouter",
    "NegotiationResult",
    "RouteRequest",
    "manhattan_mst",
    "route_cluster_mst",
    "MstRoutingResult",
    "bounded_length_route",
    "extend_path_with_bumps",
    "lee_route",
]
