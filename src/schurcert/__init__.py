"""Exact certification of positivity properties of Schur classes.

The package computes Schur and derived Schur classes of split (optionally
twisted) bundles on explicit graded ring models and on (p,q)-form algebras,
and certifies Hodge-Riemann / Hard Lefschetz verdicts, Hodge-Index-type
inequalities, nef-cone membership and discrete log-concavity — all in exact
rational arithmetic.
"""

from .certify import (
    BlockFormInstance,
    BlockFormResult,
    HI2Result,
    HodgeIndexResult,
    LogConcavityReport,
    Nef2Coefficients,
    Nef2Verdict,
    PencilScanResult,
    block_form_check,
    discrete_logconcave,
    gram_pencil_scan,
    hi2_check,
    hl_failure_scan,
    hodge_index_check,
    khovanskii_teissier_sequence,
    nef2_membership,
    schur_logconcavity_report,
)
from .chernpoly import (
    ChernPoly,
    chern_of_twist,
    derived_schur,
    format_poly,
    schur,
)
from .errors import (
    HypothesisError,
    PreconditionError,
    ScenarioError,
    SchurCertError,
    ValidationError,
)
from .forms import (
    HermitianOneOne,
    PQForm,
    hodge_riemann_verdict,
    hr_gram,
    integrate_top,
    kahler_check,
    schur_form,
    wedge,
)
from .gaussian import GaussianRational
from .inertia import InertiaReport, inertia, inertia_triple
from .partitions import Partition, partitions_of
from .qpoly import QPoly
from .rings import (
    GradedClass,
    RingModel,
    SplitBundle,
    abelian_square,
    chern,
    derived_schur_class,
    gram_on_basis,
    gram_on_h11,
    integrate,
    multiply,
    proj,
    schur_class,
)

__version__ = "0.1.0"
