"""Matrix-symbol calculus and multiplier-condition checkers on the torus and SU(2).

The names re-exported here are the library entry points the README lists;
everything else is reached through its module.
"""

from .errors import (BandOverflowError, ExceptionalValueError, GmultError,
                     SymbolFormatError, UnderResolvedError)
from .groups import (GroupModel, casimir_lambda, irrep_dimension,
                     japanese_bracket, labels_up_to, model_from_name,
                     su2_model, torus_model, wigner_little_d)
from .grids import GroupFunction, GroupGrid, build_grid
from .symbols import (DifferenceWord, MatrixSymbol, TorusSymbol,
                      apply_difference, apply_differences,
                      difference_sup_tables, generator_words,
                      laplace_difference, laplace_leibniz_residual,
                      leibniz_residual,
                      quantize_apply, symbol_add, symbol_product,
                      vector_field_symbol, word_sup_table)
from .transform import (fourier_forward, fourier_inverse, plancherel_norm,
                        sobolev_norm)
from .central import (CentralSequence, character_inner, delta2,
                      dimension_sequence, function_of_laplacian,
                      hypoellipticity_ratio, laplace_central, nweiss_delta,
                      riesz_symbol)
from .checkers import (MultiplierReport, SymbolClassSpec, check_mikhlin,
                       check_refined, check_symbol_class, check_torus3,
                       empirical_lp_ratio, torus_lattice_symbol)
from .vfield import (build_field, exceptional_set, invert_vf_symbol,
                     recursion_residual, verify_s00)
from .mollifier import (cz_probe, identity_diagonals, mollifier_family,
                        mollifier_scaling_report, negative_sobolev_decay,
                        psi_hat_coefficients, riesz_field_diagonals)

__version__ = "0.1.0"
