"""factlab: exact-arithmetic verification of factoriality criteria for nodal
hypersurfaces, double solids, and complete intersections over prime fields.
"""

from .errors import FactlabError
from .fields import QQ, FieldSpec, GF, parse_field_spec
from .poly import (
    HomoPoly,
    divide_by_linear,
    eval_poly,
    gradient,
    hessian_rank_at,
    make_poly,
    monomial_basis,
    parse_poly,
    poly_sqrt,
    random_homo,
    restrict_to_plane,
)
from .projgeom import (
    PointSet,
    ProjPoint,
    canonicalize,
    dump_point_set,
    enumerate_projective,
    load_point_set,
    point_set,
)
from .sing_locus import (
    NodalInstance,
    ci_singular_points,
    singular_points,
    verify_nodal,
)
from .lincond import (
    BeseReport,
    DefectReport,
    IncidenceCertificate,
    SeparatorCertificate,
    all_separators,
    bese_check,
    defect,
    evaluation_matrix,
    incidence_bound_from_intersection,
    is_independent,
    max_on_conics,
    max_on_curves,
    max_on_lines,
    separator,
    swap_combine,
)
from .criteria import (
    CriterionVerdict,
    HongParkVerdict,
    app_ci1,
    app_ci2,
    app_double_hypersurface,
    app_double_solid,
    app_hypersurface,
    detect_nodal_surface_form,
    hong_park_classify,
    prop_3r4_certify,
    theorem_main_certify,
)
from .families import (
    FamilySpec,
    gen_ci_nonfactorial,
    gen_double_solid_nonfactorial,
    gen_hypersurface_nonfactorial,
    generate,
)

__version__ = "1.0.0"
