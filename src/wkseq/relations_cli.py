"""The CLI's `relations` commands, which alone import this module.  They
call the searches and sources through `wkseq.relations`, where the
benchmark's trace wraps them, and load the window-file code only for a
token that names a file, so a search on α compiles none of it."""
from __future__ import annotations

from types import SimpleNamespace
from typing import Sequence

from . import relations
from .ladder import Ladder
from .report import emit, report_dict


def _orbit_source(token: str, ladder: Ladder) -> relations.OrbitSource:
    if token == "alpha":
        return relations.alpha_source(ladder)
    if token == "ones":
        return relations.ones_source()
    if token == "zeros":
        return relations.zeros_source()
    from . import seqio

    return relations.window_source(seqio.load_window(token))


def _orbit_sources(tokens: Sequence[str], ladder: Ladder) -> list[relations.OrbitSource]:
    """One source per token; a token named twice, such as one window file on
    both sides of a pair, is read once."""
    built = {token: _orbit_source(token, ladder) for token in dict.fromkeys(tokens)}
    return [built[token] for token in tokens]


def _parse_required_labels(text: str | None) -> frozenset | None:
    if text is None:
        return None
    labels = frozenset(part.strip() for part in text.split(",") if part.strip())
    known = {relations.PROXIMAL_WITNESSED, relations.DELTA_SEPARATED_WITNESSED,
             relations.PAIR_RECURRENT_WITNESSED}
    unknown = labels - known
    if unknown:
        raise ValueError(f"unknown labels: {', '.join(sorted(unknown))}")
    if not labels:
        raise ValueError("--require must name at least one label")
    return labels


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for part in text.split(","):
        left, sep, right = part.partition(":")
        if not sep:
            raise ValueError(f"pair must look like m:n, got {part!r}")
        try:
            pairs.append((int(left), int(right)))
        except ValueError:
            raise ValueError(f"pair must use integers, got {part!r}") from None
    return pairs


def run(args: SimpleNamespace, ladder: Ladder) -> bool:
    """Run one `relations` command and print its verdicts; whether every
    label it requires (by default, every clause it searched) was witnessed."""
    if args.subcommand == "classify":
        required = _parse_required_labels(args.require)
        a, b = _orbit_sources([args.a, args.b], ladder)
        a, b = relations.OrbitView(a, args.shift_a), relations.OrbitView(b, args.shift_b)
        verdict = relations.classify_pair(a, b, args.delta, args.start, args.horizon, args.k, args.tau)
        emit(verdict.to_json_dict())
        if required is not None:
            return required <= set(verdict.labels)
        return relations.INCONCLUSIVE not in verdict.labels
    if args.subcommand == "thmB":
        pairs = _parse_pairs(args.pairs)
        orbit, fixed_point = _orbit_sources([args.orbit, args.fixed_point], ladder)
        verdicts = relations.thmB_witnesses(orbit, fixed_point, pairs, args.horizon, args.k, args.tau)
        emit(report_dict(kind="pair-verdict-list", verdicts=[v.to_json_dict() for v in verdicts]))
        return all(relations.INCONCLUSIVE not in v.labels for v in verdicts)
    orbit = _orbit_source(args.orbit, ladder)
    try:
        verdict = relations.thmC_witnesses(orbit, args.q, args.delta, args.horizon, args.k, args.tau)
    except relations.NotFoundInHorizonError as exc:
        emit(report_dict(kind="error", error="not-found-in-horizon", message=str(exc)))
        return False
    emit(verdict.to_json_dict())
    return relations.INCONCLUSIVE not in verdict.labels
