"""Command-line frontend.

Every computation is exposed as a subcommand with deterministic output in
json (default), markdown or csv form.  Computed integers are serialized
as decimal strings so arbitrary precision survives JSON; echoed inputs
stay plain numbers.  Exit codes: 0 success, 1 internal exactness failure,
2 domain error or output that cannot be written, 3 term-budget refusal, 64
usage error.
"""

import os
import sys
from itertools import chain, islice
from types import SimpleNamespace

# The other modules of the package are imported by the handlers that run
# them, and argparse only for help and usage errors, so that a query loads
# only what its subcommand needs.
from .errors import DEFAULT_TERM_BUDGET, DomainError, ThetaCalcError, decimal_int
from .errors import decimal_str as _s

ENV_TERM_BUDGET = "THETACALC_TERM_BUDGET"
FORMATS = ("json", "markdown", "csv")


class _UsageError(Exception):
    def __init__(self, parser, message: str):
        super().__init__(message)
        self.parser = parser


# Each config-file key with the dest of its flag and its default; a config
# value must have the type of its default.
SETTINGS = {
    "output_format": ("format", "json"),
    "term_budget": ("term_budget", DEFAULT_TERM_BUDGET),
    "lattice_preset": ("lattice", "k3_elliptic"),
    "precision": ("precision", 30),
}


def _read_json(path: str, kind: str) -> dict:
    """The JSON object of a config or points file, its integers read by ``decimal_int``.

    A file in plain JSON (objects, arrays, integers, and strings of printable
    ASCII without ``"`` and ``\\``, nested at most 32 deep) is read
    by ``_plain_json``; only a file outside that subset loads json.
    """
    try:
        with open(path) as file:
            text = file.read()
        data = _plain_json(text)
        if data is None:
            import json

            data = json.loads(text, parse_int=decimal_int)
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read {kind} file: {exc}")
    except RecursionError:
        raise DomainError(f"cannot read {kind} file: JSON nested too deep")
    if not isinstance(data, dict):
        raise DomainError(f"{kind} file must hold a JSON object")
    return data


_PLAIN_DEPTH = 32
# JSON's blanks as a space, and each punctuation mark of objects and arrays
# between spaces, so that str.split() gives the tokens outside strings.
_PLAIN_SPACING = str.maketrans({**{c: f" {c} " for c in "[]{},:"}, **dict.fromkeys("\t\n\r", " ")})


class _NotPlain(Exception):
    pass


def _is_plain_string(text: str) -> bool:
    """Whether JSON writes ``text`` between quotes as it is: printable ASCII without ``"`` and ``\\``."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _plain_json(text: str):
    """``json.loads(text, parse_int=decimal_int)`` for plain JSON, or None for any other text.

    The text is split at ``"``: the odd pieces are the strings, the even
    ones the tokens between them.  A string token keeps its opening ``"``.
    """
    pieces = text.split('"')
    if not len(pieces) % 2:
        return None
    tokens = []
    for i, piece in enumerate(pieces):
        if i % 2:
            if not _is_plain_string(piece):
                return None
            tokens.append('"' + piece)
        else:
            piece = piece.translate(_PLAIN_SPACING)
            # Printable ASCII leaves the space as the only blank for split().
            if not (piece.isascii() and piece.isprintable()):
                return None
            tokens += piece.split()
    stream = iter(tokens)
    try:
        data = _plain_value(next(stream, None), stream, 1)
    except _NotPlain:
        return None
    return None if next(stream, None) is not None else data


def _plain_value(token, stream, depth: int):
    """The value that starts at ``token``, the rest of it read from ``stream``."""
    if token is None:
        raise _NotPlain
    if token[0] == '"':
        return token[1:]
    if token == "[" or token == "{":
        if depth > _PLAIN_DEPTH:
            raise _NotPlain
        closing = "]" if token == "[" else "}"
        items = [] if token == "[" else {}
        token = next(stream, None)
        if token == closing:
            return items
        while True:
            if closing == "]":
                items.append(_plain_value(token, stream, depth + 1))
            else:
                if token is None or token[0] != '"' or next(stream, None) != ":":
                    raise _NotPlain
                items[token[1:]] = _plain_value(next(stream, None), stream, depth + 1)
            token = next(stream, None)
            if token == closing:
                return items
            if token != ",":
                raise _NotPlain
            token = next(stream, None)
    # An integer as JSON writes it: an optional "-", then 0 or digits without a leading 0.
    digits = token[token[0] == "-" :]
    if not (digits.isascii() and digits.isdigit()) or (digits[0] == "0" and len(digits) > 1):
        raise _NotPlain
    return decimal_int(token)


def _resolve_settings(args) -> None:
    """Set each setting on ``args`` under its flag's dest, and ``args.extra_presets``.

    A flag wins unless it is absent or empty, then THETACALC_TERM_BUDGET
    for the term budget, then the config file, then the default.
    """
    data = {}
    if args.config:
        data = _read_json(args.config, "config")
    chosen = {}
    for key, (dest, default) in SETTINGS.items():
        value = data.get(key, default)
        if isinstance(value, bool) or not isinstance(value, type(default)):
            raise DomainError(
                f"config value {key!r} must be of type {type(default).__name__}, got {value!r}"
            )
        chosen[dest] = value
    args.extra_presets = {}
    if "lattice_presets" in data:
        from . import mukai as mk

        args.extra_presets = mk.presets_from_json(data["lattice_presets"])
    env_budget = os.environ.get(ENV_TERM_BUDGET)
    if env_budget is not None:
        [chosen["term_budget"]] = _decimal_ints(
            [env_budget], ENV_TERM_BUDGET, f"{ENV_TERM_BUDGET} must be an integer, got {env_budget!r}"
        )
    for dest, value in chosen.items():
        if getattr(args, dest) in (None, ""):
            setattr(args, dest, value)
    if args.format not in FORMATS:
        raise DomainError(f"unknown output format {args.format!r}")


def _decimal_ints(texts, what: str, non_integer: str) -> list[int]:
    """Each text of a command-line value ``what`` read by ``decimal_int``.

    DomainError ``non_integer`` for a text that int() does not read, and one
    naming ``what`` for an integer over the digit limit, which it does not echo.
    """
    try:
        return [decimal_int(text) for text in texts]
    except DomainError as exc:
        raise DomainError(f"{what}: {exc}")
    except ValueError:
        raise DomainError(non_integer)


def _parse_vector(spec: str, lattice):
    from . import mukai as mk

    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"vector spec must look like 'rank:c1,c2:point', got {spec!r}")
    entries = [parts[0], *parts[1].split(","), parts[2]]
    rank, *coords, point = _decimal_ints(entries, "vector spec", f"non-integer entry in vector spec {spec!r}")
    return mk.MukaiVector(rank, mk.NSClass(lattice, tuple(coords)), point)


def _parse_class(spec: str, lattice):
    coords = _decimal_ints(spec.split(","), "class spec", f"non-integer entry in class spec {spec!r}")
    return lattice.cls(*coords)


def _vector_dict(v) -> dict:
    return {"rank": _s(v.rank), "c1": [_s(c) for c in v.c1.coords], "point": _s(v.point)}


def _cmd_verlinde(args) -> dict:
    from . import verlinde as vl

    query = vl.VerlindeQuery(args.r, args.k, args.g)
    report = vl.check_rank_level_symmetry(query, term_budget=args.term_budget)
    out = {"r": args.r, "k": args.k, "g": args.g}
    out["value"] = _s(report.value)
    if args.modified:
        out["modified_value"] = _s(report.modified_value)
    if args.check_symmetry:
        out["partner_value"] = _s(report.partner_value)
        out["symmetry_holds"] = report.symmetry_holds
    if args.float_oracle:
        out["float_value"] = vl.dyadic_text(*vl.float_oracle(query, args.precision))
    out["formula"] = "verlinde_number"
    return out


def _cmd_mukai(args) -> dict:
    from . import mukai as mk

    lattice = mk.lattice_preset(args.lattice, args.extra_presets)
    out = {"preset": lattice.name, "v": args.v}
    v = _parse_vector(args.v, lattice)
    op = args.mukai_op
    if op == "fm":
        transformed = mk.fm_transform(v)
        out["transform"] = _vector_dict(transformed)
        out["pairing_preserved"] = mk.mukai_pairing(transformed, transformed) == mk.mukai_pairing(v, v)
        out["formula"] = "fourier_mukai_cohomological"
        return out
    out["w"] = args.w
    w = _parse_vector(args.w, lattice)
    if op == "pair":
        out["pairing"] = _s(mk.mukai_pairing(v, w))
        out["chi_tensor"] = _s(mk.chi_tensor(v, w))
        out["formula"] = "mukai_pairing"
    elif op == "chi-k3":
        out["d_v"] = _s(mk.dv(v))
        out["d_w"] = _s(mk.dv(w))
        out["value"] = _s(mk.chi_k3(v, w))
        out["formula"] = "chi_k3_binomial"
    elif op == "chi-abelian":
        variant = mk.ABELIAN_VARIANTS[args.variant]
        out["variant"] = variant
        out["value"] = _s(mk.chi_abelian(v, w, variant))
        if variant == "kummer":
            out["c1_proportional"] = mk.c1_proportional(v, w)
        out["formula"] = mk._ABELIAN_FORMULAS[variant]
    else:  # conjecture
        H = _parse_class(args.H, lattice)
        out["H"] = args.H
        verdict = mk.check_conjecture(
            v,
            w,
            H,
            v_c1_effective=args.v_effective,
            w_c1_effective=args.w_effective,
        )
        # The slots of ConjectureVerdict are in the order of the output keys.
        out.update(zip(verdict.__slots__, verdict._fields()))
        out["formula"] = "strange_duality_hypotheses"
    return out


def _cmd_duality(args) -> dict:
    from . import power_duality as pdl

    op = args.duality_op
    if op == "wedge":
        matrix = pdl.wedge_duality_matrix(args.n, args.k, term_budget=args.term_budget)
        size, signs = matrix.size, matrix.signs
        # Row i pairs with column size-1-i (see WedgeMatrix).
        entries = _Blocks(
            size, "[%d,%d,%d]", lambda: chain.from_iterable(zip(range(size), range(size - 1, -1, -1), signs))
        )
        out = {
            "n": args.n,
            "k": args.k,
            "size": _s(size),
            "index_order": "colex",
            "determinant": _s(matrix.determinant()),
            "entries": entries,
        }
        if args.export:
            exported = {"n": args.n, "k": args.k, "index_order": "colex", "entries": entries}
            try:
                with open(args.export, "w") as file:
                    _write(exported, "json", file)
            except OSError as exc:
                raise DomainError(f"cannot write export file: {exc}")
            out["exported"] = args.export
        out["formula"] = "wedge_complement_pairing"
        return out
    if op == "sym":
        matrix = pdl.sym_duality_matrix(args.wdim, args.n, term_budget=args.term_budget)
        monomials, diagonal = matrix.monomials, matrix.diagonal
        exponents = "[" + ",".join(["%d"] * args.wdim) + "]"
        return {
            "w_dim": args.wdim,
            "n": args.n,
            "size": _s(matrix.size),
            "monomials": _Blocks(matrix.size, exponents, lambda: chain.from_iterable(monomials)),
            "diagonal": _Blocks(matrix.size, '"%s"', lambda: map(_s, diagonal)),
            "full_rank": matrix.full_rank,
            "formula": "symmetric_power_pairing",
        }
    # theta-vanishes
    data = _read_json(args.points, "points")
    try:
        model = pdl.parse_model(data.get("model"))
        z_points, w_points = pdl.parse_points(data)
    except DomainError as exc:
        raise DomainError(f"malformed points file: {exc}")
    rows, scale = pdl.theta_integer_rows(z_points, w_points, model, term_budget=args.term_budget)
    # By Laplace expansion along the rows of Z the wedge pairing is the determinant.
    value = pdl.ratio_text(*pdl.reduced(pdl.bareiss_det(rows), scale))
    return {
        "model": [list(e) for e in model],
        "Z": [[pdl.ratio_text(*x), pdl.ratio_text(*y)] for x, y in z_points],
        "W": [[pdl.ratio_text(*x), pdl.ratio_text(*y)] for x, y in w_points],
        "vanishes": value == "0",
        "determinant": value,
        "pairing": value,
        "formula": "theta_divisor_membership",
    }


def _cmd_elliptic(args) -> dict:
    from . import elliptic_k3 as ek

    op = args.elliptic_op
    if op == "normalize":
        vector, twists = ek.normalize_vector(args.r, args.k, args.p)
        return {
            "r": args.r,
            "k": args.k,
            "p": args.p,
            "twists": _s(twists),
            "a": _s(vector.a),
            "vector": _vector_dict(vector.vector),
            "formula": "fiber_twist_normalization",
        }
    out = {"r": args.r, "s": args.s, "a": args.a, "b": args.b}
    if op == "nu":
        result = ek.compute_nu(args.r, args.s, args.a, args.b)
        out["nu"] = _s(result.nu)
        out["divisible"] = result.divisible
        out["nu_strong"] = result.nu_strong
        out["chi_pair"] = _s(ek.chi_pair(args.r, args.s, args.a, args.b))
        out["formula"] = "fiber_twist_exponent"
    elif op == "theta-class":
        theta = ek.theta_bundle_class(args.r, args.s, args.a, args.b)
        out["nu"] = _s(theta.nu)
        out["L"] = {"sigma": _s(theta.L.coords[0]), "fiber": _s(theta.L.coords[1])}
        out["m_exponent"] = _s(theta.m_exponent)
        out["chi_L"] = _s(theta.chi)
        out["hilb_points"] = _s(theta.hilb_points)
        out["formula"] = "theta_line_bundle_class"
    else:  # dims
        dims = ek.strange_duality_dims(args.r, args.s, args.a, args.b)
        out["chi_L"] = _s(dims.theta.chi)
        out["dim_a"] = _s(dims.dim_a)
        out["dim_b"] = _s(dims.dim_b)
        out["equal"] = dims.equal
        out["corollary_applies"] = dims.corollary_applies
        out["formula"] = "strange_duality_dimensions"
    return out


# The command grammar, read by both parsers.  Each option maps its flag to
# its add_argument keywords; every switch is _SWITCH itself.  Each op of a
# command lists its int positionals and its options; a command without ops
# has the one op None.
_SWITCH = {"action": "store_true"}
_VECTOR = {"required": True, "help": "vector as rank:c1,c2:point"}
_RSAB = (("r", "s", "a", "b"), {})
GLOBAL_OPTIONS = {
    "--format": {"choices": FORMATS, "help": "output format (default json)"},
    "--config": {"help": "path to a JSON config file"},
    "--term-budget": {
        "type": int,
        "help": "maximum term count of an enumeration: C(r+k,k) subsets for verlinde, "
        "C(n,k) for duality wedge and theta-vanishes, C(w+n-1,n) monomials for duality sym",
    },
    "--lattice": {"help": "lattice preset name (default k3_elliptic)"},
    "--precision": {"type": int, "help": "decimal digits for the float oracle"},
}
COMMANDS = {
    "verlinde": (
        "rank-level theta section counts",
        _cmd_verlinde,
        {None: (("r", "k", "g"), dict.fromkeys(("--modified", "--check-symmetry", "--float-oracle"), _SWITCH))},
    ),
    "mukai": (
        "Mukai vector pairings and Euler characteristics",
        _cmd_mukai,
        {
            "pair": ((), {"--v": _VECTOR, "--w": _VECTOR}),
            "chi-k3": ((), {"--v": _VECTOR, "--w": _VECTOR}),
            "chi-abelian": (
                (),
                {
                    "--v": _VECTOR,
                    "--w": _VECTOR,
                    "--variant": {
                        "choices": ("s2", "s3", "s4", "albanese_plus", "albanese_minus", "kummer"),
                        "default": "s2",
                    },
                },
            ),
            "fm": ((), {"--v": _VECTOR}),
            "conjecture": (
                (),
                {
                    "--v": _VECTOR,
                    "--w": _VECTOR,
                    "--H": {"required": True, "help": "polarization class as c1,c2"},
                    "--v-effective": _SWITCH,
                    "--w-effective": _SWITCH,
                },
            ),
        },
    ),
    "duality": (
        "exterior/symmetric power pairing matrices",
        _cmd_duality,
        {
            "wedge": (("n", "k"), {"--export": {"help": "write the sparse matrix to this JSON file"}}),
            "sym": (("wdim", "n"), {}),
            "theta-vanishes": ((), {"--points": {"required": True, "help": "JSON file {model, Z, W}"}}),
        },
    ),
    "elliptic": (
        "elliptic-surface theta bookkeeping",
        _cmd_elliptic,
        {"normalize": (("r", "k", "p"), {}), "nu": _RSAB, "theta-class": _RSAB, "dims": _RSAB},
    ),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _is_negative_int(token: str) -> bool:
    return token[:1] == "-" and token[1:].isdigit() and token.isascii()


def _scan(tokens, options: dict, args: dict, *, stop: bool = False) -> list[str] | None:
    """Set ``args`` from the option tokens of ``tokens``; return the positional tokens.

    Each option must be spelled in full, a value given as the next token or
    after ``=``.  A value or positional that starts with ``-`` must be a
    negative integer.  Returns None for any other token.  With ``stop``,
    returns at the first positional.
    """
    for flag, spec in options.items():
        args[_dest(flag)] = False if spec is _SWITCH else spec.get("default")
    positionals = []
    for token in tokens:
        flag, eq, value = token.partition("=")
        spec = options.get(flag)
        if spec is _SWITCH:
            if eq:
                return None
            args[_dest(flag)] = True
        elif spec is not None:
            if not eq:
                value = next(tokens, None)
                if value is None:
                    return None
            if value[:1] == "-" and not _is_negative_int(value):
                return None
            try:
                value = spec.get("type", str)(value)
            except ValueError:
                return None
            if "choices" in spec and value not in spec["choices"]:
                return None
            args[_dest(flag)] = value
        elif token[:1] == "-" and not _is_negative_int(token):
            return None
        else:
            positionals.append(token)
            if stop:
                break
    return positionals


def _fast_parse(argv) -> dict | None:
    """``vars()`` of argparse's namespace for a command line that matches the grammar exactly.

    Global options precede the command.  Anything else, such as ``--help``,
    an abbreviated option, ``--`` or any usage error, gives None, so that
    argparse parses it and prints its own help or error.
    """
    tokens = iter(argv)
    args: dict = {}
    found = _scan(tokens, GLOBAL_OPTIONS, args, stop=True)
    if not found or found[0] not in COMMANDS:
        return None
    args["command"] = command = found[0]
    _, handler, ops = COMMANDS[command]
    op = None
    if None not in ops:
        op = next(tokens, None)
        if op not in ops:
            return None
        args[f"{command}_op"] = op
    names, options = ops[op]
    positionals = _scan(tokens, options, args)
    if positionals is None or len(positionals) != len(names):
        return None
    if any(spec.get("required") and args[_dest(flag)] is None for flag, spec in options.items()):
        return None
    try:
        args.update(zip(names, map(int, positionals)))
    except ValueError:
        return None
    args["handler"] = handler
    return args


def _build_parser():
    """The argparse parser of the same grammar, for help text and usage errors."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(self, message)

    parser = _Parser(prog="thetacalc", description=__doc__)
    for flag, spec in GLOBAL_OPTIONS.items():
        parser.add_argument(flag, **spec)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, handler, ops) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        if None not in ops:
            opsub = p.add_subparsers(dest=f"{command}_op", required=True)
        for op, (names, options) in ops.items():
            leaf = p if op is None else opsub.add_parser(op)
            for name in names:
                leaf.add_argument(name, type=int)
            for flag, spec in options.items():
                leaf.add_argument(flag, **spec)
            leaf.set_defaults(handler=handler)
    return parser


# Items of a _Blocks list per piece of text, so that a result holds the text
# of one block at a time, however long its lists.
_BLOCK = 512


class _Blocks:
    """A list result that grows with the term budget, as JSON text written in pieces.

    ``values()`` gives a fresh iterator over the values of the ``size``
    items in turn, as many for each item as ``template`` has ``%`` fields.
    Iteration yields ``"["``, the text of each block of ``_BLOCK`` items,
    formatted by one ``%`` at C level, and ``"]"``.
    """

    __slots__ = ("size", "template", "values")

    def __init__(self, size: int, template: str, values):
        self.size, self.template, self.values = size, template, values

    def __iter__(self):
        values = self.values()
        width = self.template.count("%")
        first, later = self.template, "," + self.template
        yield "["
        while block := tuple(islice(values, _BLOCK * width)):
            yield (first + later * (len(block) // width - 1)) % block
            first = later
        yield "]"


def _json_text(value) -> str:
    """``json.dumps(value, separators=(",", ":"))`` for what the handlers build.

    That is dicts with str keys, lists, tuples, str, int and bool.  Only a
    string that is not printable ASCII without ``"`` and ``\\`` loads json.
    """
    if isinstance(value, str):
        if _is_plain_string(value):
            return f'"{value}"'
        import json

        return json.dumps(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        return "{" + ",".join([f"{_json_text(k)}:{_json_text(v)}" for k, v in value.items()]) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join([_json_text(v) for v in value]) + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write(out: dict, fmt: str, stream) -> None:
    """Write ``out`` in ``fmt`` and a newline to ``stream``, a ``_Blocks`` value piece by piece.

    In markdown and csv a str value is its cell as it is, and any other value its
    JSON text.  In csv a cell with ",", '"', LF or CR (a list of two or more items
    has a ",") is quoted, each '"' doubled, as by csv.writer under Python 3.13.
    """
    write = stream.write
    if fmt == "json":
        lead = "{"
        for key, value in out.items():
            write(f"{lead}{_json_text(key)}:")
            stream.writelines(value if type(value) is _Blocks else (_json_text(value),))
            lead = ","
        write("}\n")
        return
    markdown = fmt == "markdown"
    write("| key | value |\n| --- | --- |\n" if markdown else "key,value\n")
    for key, value in out.items():
        if type(value) is _Blocks and value.size < 2:
            value = "".join(value)
        elif not isinstance(value, (str, _Blocks)):
            value = _json_text(value)
        pieces = value if type(value) is _Blocks else (value,)
        if not markdown and (type(value) is _Blocks or any(c in value for c in ',"\n\r')):
            pieces = chain('"', (piece.replace('"', '""') for piece in pieces), '"')
        write(f"| {key} | " if markdown else f"{key},")
        stream.writelines(pieces)
        write(" |\n" if markdown else "\n")


def _report(text: str) -> None:
    """Print an error text to stderr; a stderr that cannot take it does not change the exit code."""
    try:
        print(text, file=sys.stderr)
    except OSError:
        pass


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_parse(argv)
    if args is None:
        try:
            args = vars(_build_parser().parse_args(argv))
        except _UsageError as exc:
            _report(f"{exc.parser.format_usage()}error: {exc}")
            return 64
    args = SimpleNamespace(**args)
    try:
        _resolve_settings(args)
        out = args.handler(args)
    except ThetaCalcError as exc:
        _report(f"error: {exc}")
        return exc.exit_code
    try:
        if sys.stdout is not None:
            _write(out, args.format, sys.stdout)
            sys.stdout.flush()
    except OSError as exc:
        _report(f"error: cannot write output: {exc}")
        return 2
    return 0


def run() -> None:
    """Run ``main``, flush the open streams and skip teardown with ``os._exit``.

    A failed write to stdout was reported by ``main``, so it is not reported again.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except OSError:
                pass
    os._exit(code)


if __name__ == "__main__":
    run()
