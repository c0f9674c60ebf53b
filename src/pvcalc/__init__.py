"""Exact principal-value invariants of curve configurations on surfaces."""

from .errors import (CenterError, ChiDomainError, ConfigError,
                     ContextError, ContractionError, DataError,
                     ExponentError, GeneratorError, GenericityError,
                     InputError, LogPoleError, ParseError, PvError,
                     SchemaError, ValidationError)
from .motring import (HodgePoly, RingElem, euler_realize, from_hodge,
                      from_int, legend, lfactor, lpow, numeric_eval,
                      parse_ring_elem, render, render_hodge, ring_sum)
from .surface import (Config, Curve, Finding, Report, adjunction_defect,
                      curve_class, dump_config, euler_complement,
                      is_allowed, is_connected, load_config, plane,
                      read_config, ruled, save_config, strata,
                      stratum_class, validate)
from .pvint import e_invariant, e_padic, invariant_sum, pv_integral
from .birational import (BlowupCenter, add_unit_curve, at_point, blow_down,
                         blow_up, exceptional_alphas, exceptional_delta,
                         free, fresh_id, invariance_delta, inverse_center,
                         is_exceptional_center, on_curve)
from .models import (PipelineStep, case_c_resolved, conic_pipeline_demo,
                     hirzebruch_case_a, hirzebruch_case_b, plane_conic,
                     random_config)
from .zeta import (ResolutionComponent, SurfaceResolutionDatum, ZMotDatum,
                   alphas_from_numerical, build_config, dump_datum,
                   load_datum, pole_report, read_datum,
                   residue_contribution, residue_via_substitution,
                   save_datum, triangle_datum, zmot_contribution,
                   zmot_from_surface)

__version__ = "0.1.0"
