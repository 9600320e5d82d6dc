"""Multi-sided C0 Coons patches: transfinite surfaces from boundary loops."""

from .curves import BezierCurve
from .domain import DomainPolygon, local_params
from .loop import BoundaryLoop, make_loop, opposite_curve
from .mesher import TriMesh, mesh_patch, tessellate_domain
from .ribbon import Ribbon
from .surface import Patch, make_patch

__all__ = [
    "BezierCurve",
    "BoundaryLoop",
    "DomainPolygon",
    "Patch",
    "Ribbon",
    "TriMesh",
    "local_params",
    "make_loop",
    "make_patch",
    "mesh_patch",
    "opposite_curve",
    "tessellate_domain",
]

__version__ = "0.1.0"
