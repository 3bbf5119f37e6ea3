"""Exact spectral analysis of Boolean functions on packed truth tables.

Truth tables live in packed bytes (bit i % 8 of byte i // 8 = f(v_i),
lexicographic point order), the Walsh transform runs as an integer butterfly,
the algebraic normal form comes from a packed binary Mobius transform, and the
majority family ships with closed-form predictions plus an identity checker.
"""

from __future__ import annotations

from .anf import AffineSpec, AnfTable, affine_table, to_anf
from .majority import (
    BINOMIAL_MAX,
    IdentityResult,
    MajorityReport,
    binomial,
    first_quarter,
    iter_reports,
    left_half,
    majority,
    majority_report,
    predicted_left_half_weight,
    predicted_nonlinearity,
    predicted_quarter_half_weights,
    predicted_right_half_nonlinearity,
    right_half,
    run_length_string,
    threshold,
    verify_identities,
)
from .spectral import (
    SpectrumSweep,
    WalshSpectrum,
    WeightNonlinearityCheck,
    brute_force_nonlinearity,
    check_weight_equals_nonlinearity,
    concat_nonlinearity,
    nonlinearity,
    walsh_transform,
)
from .truthtable import (
    TruthTable,
    concat,
    from_bitstring,
    from_hex,
    max_vars,
    random_table,
)

__all__ = [
    "AffineSpec",
    "AnfTable",
    "BINOMIAL_MAX",
    "IdentityResult",
    "MajorityReport",
    "SpectrumSweep",
    "TruthTable",
    "WalshSpectrum",
    "WeightNonlinearityCheck",
    "affine_table",
    "binomial",
    "brute_force_nonlinearity",
    "check_weight_equals_nonlinearity",
    "concat",
    "concat_nonlinearity",
    "first_quarter",
    "from_bitstring",
    "from_hex",
    "iter_reports",
    "left_half",
    "majority",
    "majority_report",
    "max_vars",
    "nonlinearity",
    "predicted_left_half_weight",
    "predicted_nonlinearity",
    "predicted_quarter_half_weights",
    "predicted_right_half_nonlinearity",
    "random_table",
    "right_half",
    "run_length_string",
    "threshold",
    "to_anf",
    "verify_identities",
    "walsh_transform",
]
