"""The lattice of arithmetic progressions contained in {1,..,n}.

The package materialises the lattice, counts its elements and chains,
computes its Moebius function by four independent routes, builds order and
cross-cut complexes with their integral homology, and verifies structural
properties (coatoms, left-modularity, comodernism, complements, ER/EL
labelings) at small scale.  Work past one budget (``cost``) is refused
before it starts.
"""

from .complexes import (
    SimplicialComplex,
    chain_counts,
    crosscut_complex,
    order_complex,
    reduced_euler_characteristic,
)
from .cost import BudgetError
from .homology import (
    HomologyResult,
    boundary_matrix,
    reduced_homology,
    smith_normal_form,
)
from .lattice import (
    Lattice,
    build,
    count_progressions_formula,
    count_rows,
    size_formula,
)
from .moebius import (
    MoebiusMethod,
    mobius_bottom_top,
    mobius_interval,
)
from .numtheory import (
    classical_mobius,
    divisors,
    factorize,
    is_squarefree,
    omega,
    tau,
)
from .progression import (
    EMPTY,
    Progression,
    join_in_ambient,
    leq,
    meet,
    render,
)
from .structure import (
    ComodernismReport,
    EdgeLabeling,
    LabelingVerdict,
    coatoms,
    comodernism_witness,
    complements_of,
    is_comodernistic,
    is_complemented,
    is_left_modular,
    meet_of_coatoms_representation,
    semicomplement_witness,
    verify_el_labeling,
    verify_er_labeling,
)

__version__ = "0.1.0"
