"""Matrix-symbol calculus and multiplier-condition checkers on the torus and SU(2)."""

from .errors import (BandOverflowError, ExceptionalValueError, GmultError,
                     SymbolFormatError, UnderResolvedError)
from .groups import (GroupModel, casimir_lambda, euler_from_su2, irrep_dimension,
                     japanese_bracket, label_band, labels_up_to, model_from_name,
                     su2_exp, su2_exp_point, su2_matrix, su2_model, torus_model,
                     wigner_little_d, wigner_matrix)
from .grids import GroupFunction, GroupGrid, build_grid, rho_squared_samples
from .symbols import (DifferenceWord, MatrixSymbol, TorusSymbol,
                      apply_difference, default_grid, difference_generators,
                      generator_words, identity_symbol, laplace_difference,
                      laplace_decomposition_residual, laplace_leibniz_residual,
                      leibniz_residual, op_norm, quantize_apply, seminorm,
                      symbol_add, symbol_product, symbol_scale,
                      vector_field_symbol, word_sup_table)
from .transform import (fourier_forward, fourier_inverse, function_norm_l2,
                        plancherel_norm, sobolev_norm)
from .central import (CentralSequence, ClassGrid, central_part,
                      character_inner, character_orbit_product,
                      character_table, class_grid, class_rho_squared, delta2,
                      dimension_sequence, forward_difference,
                      function_of_laplacian, hypoellipticity_ratio,
                      laplace_central, nweiss_delta, orbit_character_sum,
                      orbit_exponential_sum, riesz_symbol, weyl_character,
                      weyl_dimension)
from .checkers import (ConditionReport, MultiplierReport, SymbolClassSpec,
                       check_mikhlin, check_refined, check_symbol_class,
                       check_torus3, empirical_lp_ratio, torus_lattice_symbol)
from .vfield import (VectorFieldSpec, build_field, exceptional_set,
                     field_difference_table, fundamental_difference,
                     invert_vf_symbol, recursion_residual, rotated_symbol,
                     verify_s00)
from .mollifier import (MollifierFamily, SlopeFit, build_phi_r, build_psi_r,
                        bump_profile, cz_consistency, cz_probe,
                        default_ladder, fit_loglog, identity_diagonals,
                        l1_modulus, mollifier_family, mollifier_l2_norm,
                        mollifier_normalizer, mollifier_scaling_report,
                        mollifier_tail, negative_sobolev_decay,
                        psi_hat_coefficients, required_mollifier_band,
                        riesz_field_diagonals, smallest_resolved_scale)

__version__ = "0.1.0"
