"""Exact classification of O(n)-structures on primary Hopf surfaces.

The package decides every resonance question over an exact scalar
domain (Gaussian rationals times formal eigenvalue monomials with a
declared relation lattice), builds the symmetry group of the total
space of O(n) -> P^1 with its affine action, enumerates the
O(n)-structures of a surface with explicit developing maps and
holonomy generators, and verifies the results both symbolically and
numerically.
"""

from .classify import (
    StructureRecord,
    brute_force_admissible,
    canonical_key,
    enumerate_structures,
    reproduce_case_table,
)
from .devmaps import (
    DevMap,
    UniPoly,
    det_jacobian,
    eval_devmap,
    is_admissible,
    is_semiadmissible,
)
from .group import AffinePoint, GroupElt, HomogPoly, Mat2, act_affine, compose, inverse
from .hopf import HopfSurface, bihol_group, classify_surface, function_field
from .normalform import (
    NormalFormResult,
    ResonanceReport,
    is_generic,
    normal_form,
    resonant_degrees,
)
from .scalars import (
    EigenBasis,
    GaussRat,
    RelationLattice,
    Scalar,
    is_root_of_unity,
)
from .sections import SectionFamily, line_bundle_sections, proj_bundle_sections
from .verify import (
    VerifyConfig,
    VerifyReport,
    check_equivariance,
    check_group_axioms,
    check_immersion,
    verify_structure,
)

__version__ = "0.1.0"
