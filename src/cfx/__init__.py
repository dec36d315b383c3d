"""cfx: exact verification engine for quaternionic differential complexes.

The package builds the flat complex on R^{4(n+1)}, its boundary analogue on
step-two nilpotent groups attached to quadratic hypersurfaces, classifies
those groups, and evaluates the associated wedge-power operator with exact
arithmetic throughout.
"""

from .poly import Poly, x_vars, group_vars
from .exterior import ExtForm
from .spinor import SpinorField, raise_primed, symmetrize
from .flat import ComplexSpec, flat_D, flat_D_tuple, symbol_at, check_exactness
from .groups import GroupSpec, group_from_phi, is_right_type, is_right_type_via_E
from .boundary import (BoundarySpec, Frame, TangentFrame, BoundaryField, ambient_frame,
                       boundary_D, frak_d)

__version__ = "0.1.0"
