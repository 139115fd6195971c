"""Uniformity-norm and configuration-counting toolkit over prime fields."""

from .binpoly import IntPoly, PolyMap, binom_int, binom_power, binom_powers, binom_table_mod, compose, cs_system, grid_values, parse_poly, parse_polymap
from .counting import CountReport, SetF, additive_energy, count_in_set, decompose_via_linear, lambda_P, lambda_linear, verify_asymptotic
from .errors import CostError, ValidationError
from .field import FieldFn, PrimeField, dft, fourier_transform, idft, is_prime, phase_fn, self_convolution
from .leibman import FiltrationReport, RatSubspace, SpaceLadder, filtration_condition, flag_condition, linear_psi_spaces, p_space, q_space
from .norms import BiasReport, NormReport, bias_norm, gowers_norm, u2_via_fourier
from .relations import IndependenceReport, Relation, WitnessReport, find_relations, independence_report, weyl_witness
from .torus import CharacterZ, DefectReport, IrrationalityReport, LiftedSeq, TorusSeq, character_sum, irrationality_check, lift_gP, verify_section11, weyl_defect

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ValidationError",
    "CostError",
    # polynomials
    "IntPoly",
    "PolyMap",
    "binom_int",
    "binom_power",
    "binom_powers",
    "binom_table_mod",
    "compose",
    "cs_system",
    "grid_values",
    "parse_poly",
    "parse_polymap",
    # field / transforms
    "PrimeField",
    "FieldFn",
    "is_prime",
    "dft",
    "idft",
    "fourier_transform",
    "self_convolution",
    "phase_fn",
    # norms
    "NormReport",
    "BiasReport",
    "gowers_norm",
    "bias_norm",
    "u2_via_fourier",
    # relations
    "Relation",
    "IndependenceReport",
    "WitnessReport",
    "find_relations",
    "independence_report",
    "weyl_witness",
    # counting
    "SetF",
    "CountReport",
    "lambda_P",
    "lambda_linear",
    "count_in_set",
    "additive_energy",
    "decompose_via_linear",
    "verify_asymptotic",
    # ladders
    "RatSubspace",
    "SpaceLadder",
    "FiltrationReport",
    "p_space",
    "q_space",
    "filtration_condition",
    "linear_psi_spaces",
    "flag_condition",
    # torus sequences
    "TorusSeq",
    "LiftedSeq",
    "CharacterZ",
    "IrrationalityReport",
    "DefectReport",
    "irrationality_check",
    "lift_gP",
    "character_sum",
    "weyl_defect",
    "verify_section11",
]
