"""Multi-sided C0 Coons patches: transfinite surfaces from boundary loops."""

from .curves import BezierCurve
from .domain import DomainPolygon
from .loop import BoundaryLoop, make_loop
from .mesher import TriMesh, mesh_patch
from .surface import Patch, make_patch

__all__ = [
    "BezierCurve",
    "BoundaryLoop",
    "DomainPolygon",
    "Patch",
    "TriMesh",
    "make_loop",
    "make_patch",
    "mesh_patch",
]

__version__ = "0.1.0"
