"""wildram: exact computation for wildly ramified additive dynamics.

Core layers:

* ``ff``         finite fields, polynomial factorization, embeddings
* ``addpoly``    additive (linearized) polynomials and their root spaces
* ``dynsys``     rational maps, ramification profiles, mapping schemes
* ``moduli``     monic additive normal forms, conjugacy, census
* ``monodromy``  translation actions, towers, characteristic-zero obstructions
* ``cyclotomic`` exact arithmetic in Q(zeta_p) and s-rings
* ``gmlift``     the characteristic-zero lift of z^p - cz and its orbits
* ``cli``        the ``wildram`` command-line entry point
"""

__version__ = "0.1.0"

from .addpoly import (  # noqa: E402,F401
    AdditivePoly,
    RootSpace,
    add_compose,
    is_separable,
    iterate,
    recognize_additive,
    root_space,
    solve_affine,
)
from .cyclotomic import (  # noqa: F401
    CyclotomicNumber,
    SRing,
    lambda_val,
    residue,
    s_arith,
    verify_cyclotomic_identities,
)
from .dynsys import (  # noqa: F401
    MappingScheme,
    Pgl2,
    ProjPoint,
    RationalMap,
    conjugate,
    critical_points,
    multiplier,
    post_critical_orbit,
    ram_profile,
)
from .ff import (  # noqa: F401
    GF,
    FieldElement,
    FiniteField,
    FqPoly,
    embed,
    make_field,
    roots_in,
    solve_power,
    splitting_degree,
    squarefree_factor,
)
from .gmlift import (  # noqa: F401
    LiftPoly,
    OrbitCertificate,
    build_lift,
    lift_critical_data,
    orbit_search,
    pcf_locus_poly,
    reduce_lift,
    scaling_check,
)
from .moduli import (  # noqa: F401
    CensusReport,
    ConjugatingSet,
    MonicAdditiveForm,
    are_conjugate,
    census,
    conjugating_set,
    fix_points,
    to_monic_additive,
)
from .monodromy import (  # noqa: F401
    GroupAction,
    MonodromyLevel,
    ObstructionReport,
    Tower,
    TowerProjection,
    TranslationAction,
    char0_obstruction,
    is_free,
    lift_obstruction,
    monodromy_level,
    odometer_check,
    stabilizer_orders,
    tower,
    wreath_log_order,
)
