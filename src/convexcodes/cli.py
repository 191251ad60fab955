"""Command-line front end.

Subcommands: classify, mandatory, links, collapse, homology, goodcover,
generate.  Analysis commands read a code or complex file (see
:mod:`convexcodes.fileformat` for the format), print a human report or,
with --json, a versioned machine report.  The human report braces every
face on 10 or more labels (``{1,12}``), a form --face reads back.  Each
command takes only the flags it reads, listed in ``_COMMANDS``: --budget and
--seed where a collapse search runs, --primes where homology runs,
--deterministic where the report has wall-clock fields, and --strict where
there is a verdict; any other flag is a usage error.  Exit status is 0
unless --strict is given, in which case a No verdict exits 1 and an
Unknown exits 2; usage errors exit 64, unreadable input exits 65, an
internal failure of the package itself exits 70, an output file that
cannot be written exits 73, and a closed stdout (a reader that went away,
as in ``| head``) exits 74.

Each analysis command is a handler in ``_COMMANDS``.  A handler takes the
parsed arguments and its input, already read as a code or a complex, and
returns ``(json_body, text_lines, verdicts)``: the fields its JSON report
adds, the lines of its human report, and the verdicts --strict reads
(none for homology, which has no --strict).  One driver, ``_analyze``,
does the rest for every command: it reads the file, adds
``schema_version`` and the ``input`` block of a code or the ``facets``
block of a complex to the JSON body, prints the JSON or the lines, and
turns the verdicts into the exit status.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .analysis import (
    classify,
    cone_minus_apex,
    contractibility_status,
    mandatory_codewords,
)
from .collapse import (
    Budget,
    CollapseOutcome,
    DEFAULT_NODE_BUDGET,
    ENGINES,
    is_collapsible,
    kernel_name,
)
from .complexes import (
    Code,
    SimplicialComplex,
    closure,
    face_label,
    face_members,
    link,
    _sorted_faces,
)
from .errors import ConvexCodesError, InternalInconsistency, ParseError, TooLarge
from .fileformat import emit_code, emit_complex, parse_code, parse_complex, parse_face
from .homology import DEFAULT_PRIMES, BettiVector, _betti_vectors, _check_primes, _strong_core
from .instances import (
    c_n,
    connected_not_goodcover_code,
    counterexample_code,
    dunce_hat,
    intro_code,
    rp2,
)
from .realization import good_cover_check
from .verdicts import TriStatus, Verdict

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_SOFTWARE = 70
EXIT_CANTCREAT = 73
EXIT_IOERR = 74


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here reserves 2 for
    # Unknown-under-strict, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConvexCodesError(f"cannot read {path}: {exc}") from exc


def _face_json(mask: int) -> list[int]:
    return list(face_members(mask))


def _faces_json(masks) -> list[list[int]]:
    return [_face_json(m) for m in _sorted_faces(masks)]


def _cert_json(cert):
    if cert is None:
        return None
    if isinstance(cert, BettiVector):
        return {
            "kind": "betti",
            "field": cert.field_characteristic,
            "betti": list(cert.betti),
        }
    if isinstance(cert, int):
        return {"kind": "face", "face": _face_json(cert)}
    if isinstance(cert, dict):
        return {"kind": "summary", **{k: cert[k] for k in sorted(cert)}}
    return {"kind": "collapse-steps", "steps": _steps_json(cert)}


def _steps_json(steps) -> list[dict]:
    return [{"sigma": _face_json(s.sigma), "tau": _face_json(s.tau)} for s in steps]


def _tri_json(st: TriStatus) -> dict:
    return {
        "value": st.value.value,
        "reason": st.reason,
        "witness": None if st.witness is None else _face_json(st.witness),
        "certificate": _cert_json(st.certificate),
    }


def _cert_text(cert, n: int) -> str:
    if cert is None:
        return ""
    if isinstance(cert, BettiVector):
        return f"reduced betti {cert.betti} over F_{cert.field_characteristic}"
    if isinstance(cert, int):
        return f"apex {face_label(cert, n)}"
    if isinstance(cert, dict):
        return " ".join(f"{k}={cert[k]}" for k in sorted(cert))
    if not cert:
        return "already a point"
    return "steps " + " ".join(f"({face_label(s.sigma, n)},{face_label(s.tau, n)})"
                               for s in cert)


def _tri_text(st: TriStatus, n: int) -> str:
    out = f"{st.value.value} [{st.reason}]"
    if st.witness is not None:
        out += f" witness {face_label(st.witness, n)}"
    detail = _cert_text(st.certificate, n)
    if detail:
        out += f"; {detail}"
    return out


def _strict_exit(args, *verdicts: Verdict) -> int:
    if not getattr(args, "strict", False):
        return EXIT_OK
    if any(v is Verdict.NO for v in verdicts):
        return EXIT_NO
    if any(v is Verdict.UNKNOWN for v in verdicts):
        return EXIT_UNKNOWN
    return EXIT_OK


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _budget(args) -> Budget:
    return Budget(nodes=args.budget, seed=args.seed)


def _prime_list(text: str) -> tuple[int, ...]:
    """The --primes value: a nonempty comma-separated list of primes."""
    try:
        return _check_primes(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of primes") from exc


def _node_budget(text: str) -> int:
    """The --budget value: a node count, 0 or more."""
    try:
        nodes = int(text)
        if nodes < 0:
            raise ValueError(f"negative node count {nodes}")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a node count (0 or more)") from exc
    return nodes


def _input_json(code: Code) -> dict:
    return {
        "ambient_n": code.ambient_n,
        "word_count": len(code.words),
        "has_empty_word": code.has_empty_word,
        "words": _faces_json(code.words),
    }


def _timings(args, seconds: float):
    if args.deterministic:
        return None
    return {"total_s": round(seconds, 6)}


def _labels(masks, n: int) -> str:
    return " ".join(face_label(f, n) for f in _sorted_faces(masks))


def _cmd_classify(args, code: Code):
    t0 = time.perf_counter()
    report = classify(code, _budget(args), args.primes)
    dt = time.perf_counter() - t0
    body = {
        "sparsity": report.sparsity,
        "max_intersection_complete": report.max_intersection_complete,
        "locally_good": _tri_json(report.locally_good),
        "locally_great": _tri_json(report.locally_great),
        "mandatory": {
            "found": _faces_json(report.mandatory_found),
            "unknown": _faces_json(report.mandatory_unknown),
        },
        "timings": _timings(args, dt),
    }
    n = code.ambient_n
    lines = [
        f"code: {len(code.words)} words on {n} labels",
        f"sparsity: {report.sparsity}",
        f"max_intersection_complete: {str(report.max_intersection_complete).lower()}",
        f"locally_good: {_tri_text(report.locally_good, n)}",
        f"locally_great: {_tri_text(report.locally_great, n)}",
        f"mandatory found: {_labels(report.mandatory_found, n) or '(none)'}",
        f"mandatory unknown: {_labels(report.mandatory_unknown, n) or '(none)'}",
        f"note: {report.implication_notes}",
    ]
    return body, lines, (report.locally_good.value, report.locally_great.value)


def _cmd_mandatory(args, code: Code):
    found, unknown = mandatory_codewords(code, _budget(args), primes=args.primes)
    body = {"mandatory": {"found": _faces_json(found), "unknown": _faces_json(unknown)}}
    n = code.ambient_n
    lines = [f"mandatory {face_label(f, n)} [{'present' if f in code.words else 'MISSING'}]"
             for f in _sorted_faces(found)]
    lines += [f"undecided {face_label(f, n)}" for f in _sorted_faces(unknown)]
    # the locally-good verdict: only a mandatory or undecided face the code
    # lacks can obstruct it
    if found - code.words:
        verdict = Verdict.NO
    else:
        verdict = Verdict.UNKNOWN if unknown - code.words else Verdict.YES
    return body, lines or ["no mandatory codewords found"], (verdict,)


class _BadFace(Exception):
    """A --face that names no nonempty face of the code's complex; exits 65.

    The message is the whole stderr line.
    """


def _cmd_links(args, code: Code):
    cx = closure(code)
    try:
        sigma = parse_face(args.face, code.ambient_n)
    except ConvexCodesError as exc:
        raise _BadFace(f"bad face: {exc}") from exc
    if sigma == 0 or sigma not in cx:
        raise _BadFace(f"{args.face} is not a nonempty face of the code's complex")
    lk = link(cx, sigma)
    st = contractibility_status(lk, _budget(args), primes=args.primes)
    body = {
        "face": _face_json(sigma),
        "in_code": sigma in code.words,
        "link_facets": _faces_json(lk.facets),
        "contractible": _tri_json(st),
    }
    n = code.ambient_n
    facets = ("(empty face only)" if lk.facets == (0,)
              else " ".join(face_label(f, n) for f in lk.facets))
    lines = [f"link of {face_label(sigma, n)}: facets {facets}",
             f"contractible: {_tri_text(st, n)}"]
    return body, lines, (st.value,)


def _outcome_json(out: CollapseOutcome) -> dict:
    return {
        "status": out.status.value,
        "certificate": None if out.certificate is None else _steps_json(out.certificate),
        "nodes_explored": out.nodes_explored,
        "budget_exhausted": out.budget_exhausted,
    }


def _cmd_collapse(args, cx: SimplicialComplex):
    out = is_collapsible(cx, args.engine, _budget(args))
    body = {"engine": args.engine, "kernel": kernel_name(), "outcome": _outcome_json(out)}
    lines = [f"collapsible: {out.status.value} (engine {args.engine}, "
             f"{out.nodes_explored} nodes)"]
    if out.certificate is not None:
        lines.append(f"certificate: {_cert_text(out.certificate, cx.ambient_n)}")
    if out.budget_exhausted:
        lines.append("budget exhausted; raise --budget for a decision")
    return body, lines, (out.status,)


def _cmd_homology(args, cx: SimplicialComplex):
    core = _strong_core(cx)[0]
    vectors = dict(zip(args.primes, _betti_vectors(core, cx.dimension(), args.primes)))
    body = {"betti": {str(p): list(v.betti) for p, v in vectors.items()}}
    return body, [f"F_{p}: reduced betti {v.betti}" for p, v in vectors.items()], ()


def _cmd_goodcover(args, code: Code):
    st = good_cover_check(code, _budget(args), primes=args.primes)
    return ({"good_cover": _tri_json(st)}, [f"good_cover: {_tri_text(st, code.ambient_n)}"],
            (st.value,))


def _gen_c_n(arg) -> str:
    if arg is None:
        raise ValueError("c-n needs a label count, e.g. generate c-n 4")
    return emit_code(c_n(int(arg)))


def _gen_cone_minus_apex(arg) -> str:
    if arg is None:
        raise ValueError("cone-minus-apex needs a complex file argument")
    return emit_code(cone_minus_apex(parse_complex(_read_text(arg))))


# generate's instance names, in the order --help lists them, each with the
# function that makes the file text.  The two in _TAKES_ARGUMENT turn the
# optional argument into the text; the others take no argument.
_INSTANCES = {
    "intro-code": lambda: emit_code(intro_code()),
    "counterexample": lambda: emit_code(counterexample_code()),
    "c-n": _gen_c_n,
    "cone-minus-apex": _gen_cone_minus_apex,
    "dunce-hat": lambda: emit_complex(dunce_hat()),
    "rp2": lambda: emit_complex(rp2()),
    "connected-not-goodcover": lambda: emit_code(connected_not_goodcover_code()),
}
_TAKES_ARGUMENT = (_gen_c_n, _gen_cone_minus_apex)


def _cmd_generate(args) -> int:
    make = _INSTANCES[args.name]
    try:
        if make in _TAKES_ARGUMENT:
            text = make(args.arg)
        elif args.arg is not None:
            raise ValueError(f"{args.name} takes no argument, not {args.arg!r}")
        else:
            text = make()
    except (ValueError, TooLarge) as exc:
        # a missing, stray or non-integer argument, or a label count c_n
        # does not take
        print(f"generate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not args.output:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"generate: cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_CANTCREAT
    return EXIT_OK


_FLAGS = {
    "--budget": dict(type=_node_budget, default=DEFAULT_NODE_BUDGET,
                     help="collapse search node limit (0 or more)"),
    "--seed": dict(type=int, default=0, help="seed for greedy restarts"),
    "--primes": dict(type=_prime_list, default=DEFAULT_PRIMES,
                     help="comma-separated homology field characteristics"),
    "--json": dict(action="store_true", help="machine-readable report"),
    "--deterministic": dict(action="store_true",
                            help="suppress wall-clock fields for reproducible output"),
    "--strict": dict(action="store_true", help="exit 1 on a No verdict, 2 on Unknown"),
    "--face": dict(required=True, help="face, e.g. 23, '2 3' or '{2,3}'"),
    "--engine": dict(choices=list(ENGINES), default="strict", help="collapse step vocabulary"),
}

_CODE_FILE = "code file"
_COMPLEX_FILE = "complex file (one facet per line)"
_DECIDES_LINKS = ("--budget", "--seed", "--primes", "--json", "--strict")

# Each analysis command: handler, help, input file, and the flags it reads.
# _analyze reads the file as a code or a complex by its help text.
_COMMANDS = {
    "classify": (_cmd_classify, "full obstruction report for a code file", _CODE_FILE,
                 _DECIDES_LINKS + ("--deterministic",)),
    "mandatory": (_cmd_mandatory, "mandatory codewords of a code file", _CODE_FILE,
                  _DECIDES_LINKS),
    "goodcover": (_cmd_goodcover, "good-cover verdict for a code file", _CODE_FILE,
                  _DECIDES_LINKS),
    "links": (_cmd_links, "link of one face and its contractibility", _CODE_FILE,
              ("--face",) + _DECIDES_LINKS),
    "collapse": (_cmd_collapse, "collapsibility of a complex file", _COMPLEX_FILE,
                 ("--engine", "--budget", "--seed", "--json", "--strict")),
    "homology": (_cmd_homology, "reduced betti numbers of a complex file", _COMPLEX_FILE,
                 ("--primes", "--json")),
}


def _analyze(args) -> int:
    """Read the input, run the command's handler, print its report, give the exit status."""
    handler, _, path_help, _ = _COMMANDS[args.command]
    reads_code = path_help == _CODE_FILE
    data = (parse_code if reads_code else parse_complex)(_read_text(args.path))
    body, lines, verdicts = handler(args, data)
    if args.json:
        head = {"input": _input_json(data)} if reads_code else {"facets": _faces_json(data.facets)}
        _emit_json({"schema_version": SCHEMA_VERSION, **head, **body})
    else:
        for line in lines:
            print(line)
    return _strict_exit(args, *verdicts)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="convexcodes",
                  description="local obstructions to convexity for neural codes")
    subs = top.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for cmd, (_, what, path_help, flags) in _COMMANDS.items():
        sub = subs.add_parser(cmd, help=what)
        sub.add_argument("path", help=path_help)
        for flag in flags:
            sub.add_argument(flag, **_FLAGS[flag])
        sub.set_defaults(func=_analyze)

    sub = subs.add_parser("generate", help="write a built-in example instance")
    sub.add_argument("name", choices=list(_INSTANCES))
    sub.add_argument("arg", nargs="?", default=None,
                     help="label count for c-n, complex file for cone-minus-apex")
    sub.add_argument("-o", "--output", default=None, help="write here instead of stdout")
    sub.set_defaults(func=_cmd_generate)
    return top


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at shutdown
        return status
    except _BadFace as exc:
        print(exc, file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        # Nobody reads the output any more: point stdout at devnull so the
        # flush at shutdown does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IOERR
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InternalInconsistency as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE
    except ConvexCodesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        # A bug, not a verdict or bad input: keep it off exit codes 1 and 65.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE


def entry() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    entry()
