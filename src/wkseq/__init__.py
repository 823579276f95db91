"""Exact tools for a piecewise-linear plateau construction and the shift
orbit it generates: ladder evaluation, window serialization, finite
certificates, and orbit-pair relation verdicts."""

#: Each export's submodule; `__getattr__` imports it on first access, so
#: importing the package, or running one CLI command, loads no other layer.
_EXPORTS = {
    name: module
    for module, names in {
        "certify": "ReturnReport RigidityReport WMReport check_ones_runs check_returns"
        " check_rigidity check_shift_defect check_wm_returns",
        "runs": "OnesRunReport",
        "cli": "console_main",
        "ladder": "DomainError Ladder LadderError ScheduleViolationError eval_ainf"
        " eval_b ladder_new",
        "plfunc": "PLFunc make_plfunc pointwise_max splice",
        "orbits": "OrbitSource OrbitView alpha_source constant_source ones_source"
        " window_source zeros_source",
        "relations": "DELTA_SEPARATED_WITNESSED INCONCLUSIVE PAIR_RECURRENT_WITNESSED"
        " PROXIMAL_WITNESSED NotFoundInHorizonError PairVerdict classify_pair"
        " pair_recur_defect prox_defect sep_sup thmB_witnesses thmC_witnesses",
        "seqio": "REPORT_SCHEMA WINDOW_SCHEMA WindowFormatError dumps_csv dumps_json"
        " load_window loads_csv loads_json render_decimal",
        "brackets": "DistBracket",
        "sequence": "SeqWindow alpha alpha_window",
    }.items()
    for name in names.split()
}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    """The names an eager import of every submodule would show."""
    return sorted({*globals(), *__all__, *_EXPORTS.values()} - {"_EXPORTS", "__getattr__", "__dir__"})
