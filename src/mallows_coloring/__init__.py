"""Stationary k-dependent q-colorings of the integers from Mallows
permutations: exact identities and cross-validated samplers."""

from .building import (CylinderProb, building_number, building_number_brute,
                       converse_scan, cylinder_masses, cylinder_prob,
                       k_dependence_defect, normalizer, z_closed_form_defect)
from .dist import DominanceReport, GeomSpec, GeomVariant, dominance_check, pmf
from .perm import (ConstraintGraph, LehmerSeq, Perm, bubbles, color_count,
                   color_count_brute, constraint_graph, decode_insertion,
                   decode_lehmer, founders, insertion_code, is_proper_building,
                   lehmer_code)
from .sampler import (ColoringSample, SampleParams, ffiid_sample,
                      gamma_from_lehmer, lehmer_pipeline_sample, markov_states,
                      painting_sample)
from .tpoly import (AlgebraicT, NoSolutionError, RatPoly, poly_remainder,
                    solve_tuning, t_binomial, t_factorial, t_int, tuning_poly)
from .verify import (CylinderTable, InsufficientDataError, TestReport,
                     chi_square_against_exact, estimate_cylinders,
                     independence_defect, tail_fit)
from .words import Word

__version__ = "0.1.0"
