"""Exact computation with connected Hopf monoids in set species."""

from .exactalg import (BadConstantTerm, CycleIndexPoly, TruncatedSeries,
                       ZeroConstantTerm, binomial_transform, egf_from_counts,
                       inverse_binomial_transform, nonneg_prefix,
                       ogf_from_counts)
from .reports import TestReport
from .species import (EMPTY, Element, FiniteSet, FunctionToK, LinearOrder,
                      NotLinearized, PairStructure, PalComposition, QTensor,
                      QVector, SetComposition, SetPartition, SingletonMark,
                      SpeciesSpec, cycle_index, egf, hadamard, labelset, ogf,
                      orbit_count, tgf)
from .structures import (HopfMonoid, HopfMorphism, get_hopf, get_morphism,
                         get_species, hadamard_hopf, make_E, make_Ek, make_el,
                         make_L, make_Pal, make_Pi, make_Pi_even, make_PiPrime,
                         make_PiS, make_Sigma, make_X, morphism_E_to_Pi,
                         morphism_Ek_to_Ek1, morphism_L_to_E,
                         morphism_L_to_Sigma, morphism_Pi_to_PiS)
from .axioms import (AxiomReport, check_all, check_cocommutative,
                     check_commutative, check_comonoid, check_compat,
                     check_connected, check_monoid, check_morphism,
                     check_naturality, is_linearized)
from .seqtests import (DimSequence, PreconditionFailed, e_test, ek_limit_test,
                       ek_test, growth_test, l_test, ord_exp_test,
                       ord_type_test, quotient_nonneg_test, supermult_test,
                       support_test)
from .kernels import (CyclicOrder, LagrangeFactorizationError, NotADerangement,
                      NotCocommutative, NotInjective, NotSurjective,
                      SubspaceBasis, bracket_expr, cyclic_orders, derangements,
                      dual_factorization_check, hker_basis_derangement,
                      hker_dims, hker_generated_check, hker_space,
                      ideal_kplus_h, lagrange_quotient_dims, lie_basis_p,
                      lie_bracket, lker_space, p_ell_expr, pbw_series_check,
                      primitive_dims, primitive_space)

__version__ = "0.1.0"
