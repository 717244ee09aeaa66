"""Exact-arithmetic checker for root-of-unity loop-algebra identities."""

__version__ = "0.1.0"

import os
import sys


def _is_command() -> bool:
    """Whether this process is the qloop command: the console script, or
    `python -m qloop` or `python -m qloop.cli`, whose package runpy imports
    while sys.argv[0] is "-m"; sys.orig_argv then holds the module name
    before the arguments.  A process that imports qloop as a library is
    neither."""
    argv = sys.argv
    if not argv:
        return False
    if argv[0] == "-m":
        return sys.orig_argv[-len(argv)].removeprefix("-m") in ("qloop", "qloop.cli")
    return os.path.splitext(os.path.basename(argv[0]))[0] == "qloop"


# One BLAS thread for the command, set before numpy first loads: its
# parallelism is --jobs, and OpenBLAS workers would only spin beside the
# forked jobs.  A caller's own value wins; a library caller's environment
# is left as it is.
if _is_command():
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .divpow import (
    NORM_OMEGA,
    NORM_Q,
    DividedPowerStore,
    check_cross_normalization,
    check_mulo,
    divided_power,
)
from .identity import IdentityCheck, InvalidRegime, REGISTRY
from .qcomb import gauss_binomial, omega_factorial, phi_valuation, q_factorial, q_int
from .repchain import (
    ChainContext,
    GradedOperator,
    InvalidParams,
    NotGraded,
    SiteRep,
    UnsupportedKind,
    WrapInconsistency,
    build_barred_ops,
    build_chain_generators,
    build_site_rep,
    charge_of,
    rep_self_check,
    rescaled_rep,
    sector_project,
    specialize_operator,
)
from .rings import (
    CycloRing,
    FloatRing,
    InternalInconsistency,
    LaurentPoly,
    LaurentRing,
    NotDivisible,
    PhiAdicElem,
    PhiAdicRing,
    TruncationOverflow,
    cyclo_ring,
    cyclotomic_poly,
)
from .serre import (
    LoopGenerators,
    build_loop_generators,
    check_BCN,
    check_CBN,
    check_g_forms,
    check_higher_serre,
    check_id1,
    check_id2,
    check_lemma_chain,
    check_serre_nested,
    check_site_suite,
    dispatch_root_serre,
    lusztig_f,
    make_store,
    nested_commutator_words,
)
from .report import (
    ConfigError,
    ReportDocument,
    ResourceError,
    RunConfig,
    UnknownId,
    explain,
    list_families,
    run,
    strip_timing,
)

__all__ = [
    "ChainContext",
    "ConfigError",
    "CycloRing",
    "DividedPowerStore",
    "FloatRing",
    "GradedOperator",
    "IdentityCheck",
    "InternalInconsistency",
    "InvalidParams",
    "InvalidRegime",
    "LaurentPoly",
    "LaurentRing",
    "LoopGenerators",
    "NORM_OMEGA",
    "NORM_Q",
    "NotDivisible",
    "NotGraded",
    "PhiAdicElem",
    "PhiAdicRing",
    "REGISTRY",
    "ReportDocument",
    "ResourceError",
    "RunConfig",
    "SiteRep",
    "TruncationOverflow",
    "UnknownId",
    "UnsupportedKind",
    "WrapInconsistency",
    "build_barred_ops",
    "build_chain_generators",
    "build_loop_generators",
    "build_site_rep",
    "charge_of",
    "check_BCN",
    "check_CBN",
    "check_cross_normalization",
    "check_g_forms",
    "check_higher_serre",
    "check_id1",
    "check_id2",
    "check_lemma_chain",
    "check_mulo",
    "check_serre_nested",
    "check_site_suite",
    "cyclo_ring",
    "cyclotomic_poly",
    "dispatch_root_serre",
    "divided_power",
    "explain",
    "gauss_binomial",
    "list_families",
    "lusztig_f",
    "make_store",
    "nested_commutator_words",
    "omega_factorial",
    "phi_valuation",
    "q_factorial",
    "q_int",
    "rep_self_check",
    "rescaled_rep",
    "run",
    "sector_project",
    "specialize_operator",
    "strip_timing",
    "__version__",
]
