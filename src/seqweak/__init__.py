"""Sequential weak values of pre/post-selected quantum circuits.

Weak-value tables, perturbative pointer-moment predictions, an exact
pointer simulator, Monte Carlo batches of post-selected runs,
counterfactuality checks, and a line-oriented circuit file format.
"""

from .circuitio import (CircuitDocument, ParseError, builtin_document_path, load,
                        parse, serialize)
from .circuitmodel import (P_B, P_C, P_E, P_F, Circuit,
                           builtin_double_interferometer, transition_amplitude)
from .counterfactual import (CounterfactualReport, InsertionSet,
                             check_equivalence_def1_def2, determines_output,
                             history_amplitudes, is_counterfactual_histories,
                             is_counterfactual_weakvalues, randomized_def3_test,
                             weak_interaction_response)
from .errors import SeqWeakError
from .montecarlo import Estimate, RunBatch, estimate_moment, sample_runs
from .oracle import exact_moment, same_pointer_twice
from .pointer import (MomentSpec, PointerMoments, PointerProfile, ProductWeakValue,
                      predict_moment, product_weak_value)
from .weakvalue import WeakValueTable, weak_value, weak_value_table

__version__ = "0.1.0"

__all__ = [
    "Circuit", "CircuitDocument", "CounterfactualReport", "Estimate",
    "InsertionSet", "MomentSpec", "P_B", "P_C", "P_E", "P_F", "ParseError",
    "PointerMoments", "PointerProfile", "ProductWeakValue", "RunBatch",
    "SeqWeakError", "WeakValueTable", "builtin_document_path",
    "builtin_double_interferometer", "check_equivalence_def1_def2",
    "determines_output", "estimate_moment", "exact_moment", "history_amplitudes",
    "is_counterfactual_histories", "is_counterfactual_weakvalues", "load", "parse",
    "predict_moment", "product_weak_value", "randomized_def3_test",
    "same_pointer_twice", "sample_runs", "serialize", "transition_amplitude",
    "weak_interaction_response", "weak_value", "weak_value_table",
]
