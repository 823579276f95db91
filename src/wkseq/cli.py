"""Command-line front end.

Three command families: ``gen`` streams windows of the limit sequence,
``verify`` runs the finite certificate checks and prints their JSON
reports, ``relations`` classifies orbit pairs and prints JSON verdicts.

Exit codes are scripting-stable: 0 means every requested check or label
passed, 1 means a certificate failed or a label went unwitnessed, 2 means
bad parameters or unreadable input, and 3 means an unexpected crash.
Decimal rendering is presentation only; exact num/den strings are always
emitted and are the values of record.

Each command imports the layer it runs when it runs it, so `gen` loads
neither the certificates, the relation searches nor `json`.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .ladder import Ladder, LadderError
from .seqio import WindowFormatError, load_window, report_dict, window_chunks
from .sequence import alpha_windows

if TYPE_CHECKING:
    from .orbits import OrbitSource

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CRASH = 3


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def load_schedule_file(path: str) -> tuple[int, ...]:
    """Read a growth-factor schedule: one integer per line, # comments."""
    entries = []
    with open(path) as fh:
        text = fh.read()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            entries.append(int(line))
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: schedule entry is not an integer: {raw!r}"
            ) from None
    if not entries:
        raise ValueError(f"{path}: schedule file has no entries")
    return tuple(entries)


class RunConfig:
    """Resolved run settings: defaults, then config file, then flags."""

    schedule: tuple[int, ...] | None = None
    format: str = "csv"
    decimals: int = 0

    def make_ladder(self) -> Ladder:
        return Ladder(self.schedule)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    # parallelism is accepted and validated for compatibility; searches
    # always run as one pass, so it changes nothing.
    parallelism = 1
    if args.config:
        import configparser  # only here: importing it costs every other run about 2 ms

        parser = configparser.ConfigParser()
        if not parser.read(args.config):
            raise ValueError(f"config file not found: {args.config}")
        if not parser.has_section("run"):
            raise ValueError(f"{args.config}: missing [run] section")
        section = parser["run"]
        policy = section.get("ladder_policy", "default-minimal")
        if policy == "explicit":
            path = section.get("ladder_schedule")
            if not path:
                raise ValueError(
                    f"{args.config}: explicit ladder policy needs ladder_schedule"
                )
            cfg.schedule = load_schedule_file(path)
        elif policy != "default-minimal":
            raise ValueError(f"{args.config}: unknown ladder_policy {policy!r}")
        elif "ladder_schedule" in section:
            raise ValueError(f"{args.config}: ladder_schedule needs ladder_policy = explicit")
        if "format" in section:
            cfg.format = section.get("format")
        if "decimals" in section:
            cfg.decimals = section.getint("decimals")
        if "parallelism" in section:
            parallelism = section.getint("parallelism")
    if args.ladder_schedule:
        cfg.schedule = load_schedule_file(args.ladder_schedule)
    if args.format:
        cfg.format = args.format
    if args.decimals is not None:
        cfg.decimals = args.decimals
    if args.parallelism is not None:
        parallelism = args.parallelism
    if cfg.format not in ("csv", "json"):
        raise ValueError(f"unknown output format {cfg.format!r}")
    if cfg.decimals < 0 or parallelism < 1:
        raise ValueError("decimals must be >= 0 and parallelism >= 1")
    return cfg


def _emit_report(doc: dict) -> None:
    import json

    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _cmd_gen(args: argparse.Namespace, cfg: RunConfig) -> int:
    """Stream the window in pieces, in memory that does not grow with its length."""
    windows = alpha_windows(cfg.make_ladder(), args.start, args.count)
    chunks = window_chunks(windows, cfg.format, cfg.decimals)
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)
    return EXIT_PASS


def _returns_grid(ladder: Ladder, n: int, samples: int | None) -> list[int]:
    from .certify import scan_points

    ladder.ensure(n)
    p = ladder.p(n)
    step = 1 if samples is None else max(1, (2 * p) // samples)
    grid = list(scan_points(range(-p, p + 1, step)))
    if grid[-1] != p:
        grid.append(p)
    return grid


def _cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    from . import certify

    ladder = cfg.make_ladder()
    if args.lemma == "rigidity":
        report = certify.check_rigidity(ladder, args.n, args.count)
    elif args.lemma == "returns":
        grid = _returns_grid(ladder, args.n, args.samples)
        report = certify.check_returns(ladder, args.n, grid)
    elif args.lemma == "ones":
        report = certify.check_ones_runs(ladder, args.n, args.window, mode=args.mode)
    elif args.lemma == "wm":
        report = certify.check_wm_returns(ladder, args.n, eps=args.eps)
    else:
        ladder.ensure(max(args.n, args.m) + 1)
        report = certify.check_shift_defect(ladder, args.n, args.m, args.step)
    _emit_report(report.to_json_dict())
    return EXIT_PASS if report.passed else EXIT_FAIL


def _orbit_source(token: str, cfg: RunConfig) -> OrbitSource:
    from . import relations

    if token == "alpha":
        return relations.alpha_source(cfg.make_ladder())
    if token == "ones":
        return relations.ones_source()
    if token == "zeros":
        return relations.zeros_source()
    return relations.window_source(load_window(token))


def _orbit_sources(tokens: Sequence[str], cfg: RunConfig) -> list[OrbitSource]:
    """One source per token; a token named twice, such as one window file on
    both sides of a pair, is read once."""
    built = {token: _orbit_source(token, cfg) for token in dict.fromkeys(tokens)}
    return [built[token] for token in tokens]


def _parse_required_labels(text: str | None) -> frozenset | None:
    if text is None:
        return None
    from . import relations

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
    if not pairs:
        raise ValueError("--pairs must name at least one pair")
    return pairs


def _cmd_relations(args: argparse.Namespace, cfg: RunConfig) -> int:
    from . import relations

    if args.subcommand == "classify":
        required = _parse_required_labels(args.require)
        a, b = _orbit_sources([args.a, args.b], cfg)
        a, b = relations.OrbitView(a, args.shift_a), relations.OrbitView(b, args.shift_b)
        verdict = relations.classify_pair(
            a, b, args.delta, args.start, args.horizon, args.k, args.tau
        )
        _emit_report(verdict.to_json_dict())
        if required is not None:
            ok = required <= set(verdict.labels)
        else:
            ok = relations.INCONCLUSIVE not in verdict.labels
        return EXIT_PASS if ok else EXIT_FAIL
    if args.subcommand == "thmB":
        pairs = _parse_pairs(args.pairs)
        orbit, fixed_point = _orbit_sources([args.orbit, args.fixed_point], cfg)
        verdicts = relations.thmB_witnesses(
            orbit, fixed_point, pairs, args.horizon, args.k, args.tau
        )
        _emit_report(
            report_dict(
                kind="pair-verdict-list",
                verdicts=[v.to_json_dict() for v in verdicts],
            )
        )
        ok = all(relations.INCONCLUSIVE not in v.labels for v in verdicts)
        return EXIT_PASS if ok else EXIT_FAIL
    orbit = _orbit_source(args.orbit, cfg)
    try:
        verdict = relations.thmC_witnesses(
            orbit, args.q, args.delta, args.horizon, args.k, args.tau
        )
    except relations.NotFoundInHorizonError as exc:
        _emit_report(
            report_dict(kind="error", error="not-found-in-horizon", message=str(exc))
        )
        return EXIT_FAIL
    _emit_report(verdict.to_json_dict())
    return EXIT_PASS if relations.INCONCLUSIVE not in verdict.labels else EXIT_FAIL


class _Formatter(argparse.HelpFormatter):
    """argparse's help formatter, set up (which imports `shutil` for the
    terminal width) only to write text, not to check each added argument."""

    def __init__(self, prog: str):
        self._prog = prog

    def __getattr__(self, name: str):
        if "_width" in vars(self):  # set up, so the attribute does not exist
            raise AttributeError(name)
        super().__init__(self._prog)
        return getattr(self, name)


class _Parser(argparse.ArgumentParser):
    def _get_formatter(self) -> argparse.HelpFormatter:
        return _Formatter(self.prog)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wkseq",
        description="Generate, verify and classify exact shift-orbit data.",
    )
    parser.add_argument("--config", metavar="PATH", help="INI config with a [run] section")
    parser.add_argument("--ladder-schedule", metavar="PATH", help="explicit growth schedule, one integer per line")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--decimals", type=_nonneg_int, help="extra decimal column width for CSV output")
    parser.add_argument("--parallelism", type=_positive_int, help="accepted for compatibility and ignored: searches run as one pass")
    sub = parser.add_subparsers(dest="command", required=True, prog="wkseq")

    gen = sub.add_parser("gen", help="emit a window of the limit sequence")
    gen.add_argument("--from", dest="start", type=_nonneg_int, default=0)
    gen.add_argument("--len", dest="count", type=_positive_int, required=True)
    gen.add_argument("--out", metavar="PATH")

    verify = sub.add_parser("verify", help="run one finite certificate check")
    vsub = verify.add_subparsers(dest="lemma", required=True, prog="wkseq verify")
    rig = vsub.add_parser("rigidity", help="sequence-level near-period bound")
    rig.add_argument("--n", type=_nonneg_int, required=True)
    rig.add_argument("--count", type=_positive_int, required=True)
    ret = vsub.add_parser("returns", help="exact return identities at one level")
    ret.add_argument("--n", type=_nonneg_int, required=True)
    ret.add_argument("--samples", type=_positive_int)
    ones = vsub.add_parser("ones", help="syndetic runs of exact ones")
    ones.add_argument("--n", type=_positive_int, required=True)
    ones.add_argument("--window", type=_positive_int, required=True)
    ones.add_argument("--mode", choices=("auto", "scan", "plateau"), default="auto")
    wm = vsub.add_parser("wm", help="double return at consecutive times")
    wm.add_argument("--n", type=_nonneg_int, required=True)
    wm.add_argument("--eps", type=_fraction_arg)
    sd = vsub.add_parser("shift-defect", help="function-level near-period bound")
    sd.add_argument("--n", type=_nonneg_int, required=True)
    sd.add_argument("--m", type=_nonneg_int, required=True)
    sd.add_argument("--step", type=_fraction_arg, default=Fraction(1))

    rel = sub.add_parser("relations", help="orbit-pair witness searches")
    rsub = rel.add_subparsers(dest="subcommand", required=True, prog="wkseq relations")
    cls = rsub.add_parser("classify", help="three-way label for one pair")
    cls.add_argument("--a", required=True, metavar="ORBIT")
    cls.add_argument("--b", required=True, metavar="ORBIT")
    cls.add_argument("--shift-a", type=_nonneg_int, default=0)
    cls.add_argument("--shift-b", type=_nonneg_int, default=0)
    cls.add_argument("--delta", type=_fraction_arg, required=True)
    cls.add_argument("--start", type=_nonneg_int, default=0)
    cls.add_argument("--horizon", type=_nonneg_int, required=True)
    cls.add_argument("--k", type=_positive_int, required=True)
    cls.add_argument("--tau", type=_fraction_arg, required=True)
    cls.add_argument("--require", metavar="LABEL[,LABEL]")
    thb = rsub.add_parser("thmB", help="joint proximity and recurrence per pair")
    thb.add_argument("--orbit", required=True, metavar="ORBIT")
    thb.add_argument("--fixed-point", dest="fixed_point", required=True, metavar="ORBIT")
    thb.add_argument("--pairs", required=True, metavar="M:N[,M:N]")
    thb.add_argument("--horizon", type=_nonneg_int, required=True)
    thb.add_argument("--k", type=_positive_int, required=True)
    thb.add_argument("--tau", type=_fraction_arg, required=True)
    thc = rsub.add_parser("thmC", help="separation through a block pattern")
    thc.add_argument("--orbit", required=True, metavar="ORBIT")
    thc.add_argument("--q", type=_positive_int, required=True)
    thc.add_argument("--delta", type=_fraction_arg, required=True)
    thc.add_argument("--horizon", type=_nonneg_int, required=True)
    thc.add_argument("--k", type=_positive_int, required=True)
    thc.add_argument("--tau", type=_fraction_arg, required=True)
    return parser


def console_main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "gen":
            return _cmd_gen(args, cfg)
        if args.command == "verify":
            return _cmd_verify(args, cfg)
        return _cmd_relations(args, cfg)
    except (LadderError, WindowFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # crash guard: keep exit 3 distinct from exit 1
        print(f"unexpected failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CRASH
