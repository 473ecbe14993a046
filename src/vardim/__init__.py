"""Variation-diminishing analysis of discrete-time LTI systems.

Verdicts about order-k positivity of the past-to-future (Hankel) and
causal convolution (Toeplitz) operators of a finite-dimensional system,
built on compound systems in residue form, window determinants, exact
root counts and brute-force variation oracles, plus dominant
totally-positive decompositions.
"""

from .errors import (BudgetExceededError, DegenerateSystemError, ParseError,
                     StructuralError, UnsupportedRepresentationError,
                     VardimError, WindowError)
from .signals import (Signal, first_nonzero_sign, forward_difference,
                      row_variations, variation)
from .lti import (PartialFractionSystem, RationalTransferFunction,
                  StateSpace, canonical, hankel_matrix, impulse_response,
                  partial_fractions, polynomial_roots, recombine,
                  toeplitz_matrix)
from .totpos import is_pd, is_psd, matrix_rank
from .compound import compound_impulse, compound_transfer, reversal_sign
from .positivity import (CERTIFIED, HOLDS, REFUTED, UNSUPPORTED,
                         Decomposition, PositivityReport, check_external,
                         check_hankel_k, check_hankel_total, check_toeplitz_k,
                         check_toeplitz_total, hankel_decompose,
                         render_report, toeplitz_decompose)
from .oracle import (HeavyBallScenario, OvdReport, OvdViolation,
                     ScenarioResult, apply_hankel, apply_toeplitz,
                     demo_system, hankel_truncation, heavy_ball, ovd_matrix,
                     ovd_verify, run_scenario, toeplitz_truncation)
from .sysfile import load_system, parse_system, serialize_system

__version__ = "0.1.0"
