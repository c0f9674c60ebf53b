"""Exact principal-value invariants of curve configurations on surfaces.

Every exported name resolves on first use (PEP 562), so importing the
package loads no submodule and each command compiles only what it
runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("CenterError", "ChiDomainError", "ConfigError",
               "ContextError", "ContractionError", "DataError",
               "ExponentError", "GeneratorError", "GenericityError",
               "InputError", "LogPoleError", "ParseError", "PvError",
               "SchemaError", "ValidationError"),
    "motring": ("HodgePoly", "RingElem", "euler_realize", "from_hodge",
                "from_int", "legend", "lfactor", "lpow", "numeric_eval",
                "render", "render_hodge", "ring_sum"),
    "parse": ("parse_ring_elem",),
    "surface": ("Config", "Curve", "Finding", "Report", "adjunction_defect",
                "curve_class", "dump_config", "euler_complement",
                "is_allowed", "is_connected", "load_config", "plane",
                "read_config", "ruled", "save_config", "strata",
                "stratum_class", "validate"),
    "pvint": ("e_invariant", "e_padic", "invariant_sum", "pv_integral"),
    "birational": ("BlowupCenter", "add_unit_curve", "at_point",
                   "blow_down", "blow_up", "exceptional_alphas",
                   "exceptional_delta", "free", "fresh_id",
                   "invariance_delta", "inverse_center",
                   "is_exceptional_center", "on_curve"),
    "models": ("PipelineStep", "case_c_resolved", "conic_pipeline_demo",
               "hirzebruch_case_a", "hirzebruch_case_b", "plane_conic",
               "random_config"),
    "zeta": ("ResolutionComponent", "SurfaceResolutionDatum", "ZMotDatum",
             "alphas_from_numerical", "build_config", "dump_datum",
             "load_datum", "pole_report", "read_datum",
             "residue_contribution", "residue_via_substitution",
             "save_datum", "triangle_datum", "zmot_contribution",
             "zmot_from_surface"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    from importlib import import_module
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
