"""Command-line surface.

Subcommands:
  gw      stationary curve-side correlation functions (generator
          polynomials and q-expansions)
  fjrw    cubic-side series and primary invariants
  verify  identity suites (exit 0 iff everything passes)
  tables  dump the recursion / Eisenstein coefficient caches

Exit codes: 2 for an invalid insertion spec, 3 when the requested order
is too small (the message names the minimal one), 1 for failed checks.
"""

import argparse
import sys

from .cache import cached
from .cayley import (
    cayley_frame,
    fjrw_onepoint_all_genus,
    fjrw_primary_genus1_invariants,
)
from .config import FORMATS, RunConfig, default_cache_dir
from .errors import (
    InsufficientOrder,
    InvalidSeries,
    QmgwError,
    UnsupportedInsertion,
)
from .modular import eisenstein, qm_eval
from .npoint import connected_stationary, stationary_invariant
from .rational import parse_rat, rat_str
from .records import SERIALIZERS, InvariantRecord
from .theta import b_table, weierstrass_a
from .verify import SUITES, run_suites


def _add_common(parser, leaf=False):
    # On leaf subparsers the defaults are suppressed so a flag given after
    # the subcommand overrides one given before it, not the other way.
    d = argparse.SUPPRESS if leaf else None
    flag = argparse.SUPPRESS if leaf else False
    parser.add_argument("--order", type=int, default=d, help="q-order")
    parser.add_argument("--s-order", type=int, default=d)
    parser.add_argument("--z-order", type=int, default=d)
    parser.add_argument("--b-bound", type=int, default=d)
    parser.add_argument("--margin", type=int, default=d)
    parser.add_argument("--format", choices=FORMATS, default=d, dest="fmt")
    parser.add_argument("--cache-dir", default=d)
    parser.add_argument("--no-cache", action="store_true", default=flag)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qmgw",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_common(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    gw = sub.add_parser("gw", help="curve-side stationary invariants")
    gw_sub = gw.add_subparsers(dest="gw_command", required=True)
    gw_one = gw_sub.add_parser("onepoint")
    _add_common(gw_one, leaf=True)
    gw_one.add_argument("--genus", type=int, required=True)
    gw_one.add_argument(
        "--psi",
        type=int,
        default=None,
        help="psi-power (default 2g-2 for genus g >= 1)",
    )
    gw_one.add_argument(
        "--q-expand", action="store_true", help="also emit the q-expansion"
    )
    gw_n = gw_sub.add_parser("npoint")
    _add_common(gw_n, leaf=True)
    gw_n.add_argument("--legs", type=int, required=True)
    gw_n.add_argument(
        "--psi", required=True, help="comma-separated psi-powers, one per leg"
    )
    gw_n.add_argument("--connected", action="store_true")

    fj = sub.add_parser("fjrw", help="cubic-side series and invariants")
    fj_sub = fj.add_subparsers(dest="fjrw_command", required=True)
    fj_inv = fj_sub.add_parser("invariants")
    _add_common(fj_inv, leaf=True)
    fj_inv.add_argument(
        "--max", type=int, default=12, dest="max_n",
        help="largest insertion count n for the genus-one primaries",
    )
    fj_one = fj_sub.add_parser("onepoint")
    _add_common(fj_one, leaf=True)
    fj_one.add_argument("--genus", type=int, required=True)

    ver = sub.add_parser("verify", help="run identity suites")
    _add_common(ver, leaf=True)
    ver.add_argument(
        "suite",
        nargs="*",
        default=["all"],
        help=f"any of: all, {', '.join(SUITES)}",
    )

    tab = sub.add_parser("tables", help="dump coefficient tables")
    _add_common(tab, leaf=True)
    tab.add_argument(
        "table", choices=["a", "b", "eisenstein"], help="which table"
    )
    tab.add_argument("--bound", type=int, default=None)
    tab.add_argument("--k", type=int, default=2, help="Eisenstein weight")
    return parser


def make_config(args):
    kwargs = {}
    args_get = lambda name: getattr(args, name, None)
    if args_get("order") is not None:
        kwargs["q_order"] = args.order
    if args_get("s_order") is not None:
        kwargs["s_order"] = args_get("s_order")
    if args_get("z_order") is not None:
        kwargs["z_order"] = args_get("z_order")
    if args_get("b_bound") is not None:
        kwargs["b_bound"] = args_get("b_bound")
    if args_get("margin") is not None:
        kwargs["margin"] = args_get("margin")
    if args_get("fmt") is not None:
        kwargs["fmt"] = args_get("fmt")
    if args_get("cache_dir") is not None:
        kwargs["cache_dir"] = args_get("cache_dir")
    else:
        kwargs["cache_dir"] = default_cache_dir()
    kwargs["no_cache"] = bool(args_get("no_cache"))
    return RunConfig(**kwargs)


def _emit(records, config, out):
    out.write(SERIALIZERS[config.fmt](records))


def cmd_gw(args, config, out):
    if args.gw_command == "onepoint":
        genus = args.genus
        psi = args.psi
        if genus < 0:
            raise InvalidSeries(f"genus must be >= 0, got {genus}")
        if genus == 0:
            if psi not in (-2, -1):
                raise InvalidSeries("genus-0 one-point needs --psi -2 or -1")
        elif psi is None:
            psi = 2 * genus - 2
        elif psi != 2 * genus - 2:
            raise InvalidSeries(
                f"a genus-{genus} one-point invariant has psi-power "
                f"{2 * genus - 2}, got --psi {psi}"
            )
        legs = (psi,)
        qm = stationary_invariant(legs)
        records = [
            InvariantRecord("gw_curve", genus, legs, "qm_polynomial", qm)
        ]
        if args.q_expand:
            records.append(
                InvariantRecord(
                    "gw_curve",
                    genus,
                    legs,
                    "q_series",
                    qm_eval(qm, config.q_order),
                )
            )
        _emit(records, config, out)
        return 0
    # npoint
    legs = tuple(int(x) for x in args.psi.split(",") if x.strip() != "")
    if len(legs) != args.legs:
        raise UnsupportedInsertion(
            f"--legs {args.legs} but {len(legs)} psi-powers given"
        )
    if not legs:
        raise UnsupportedInsertion("leg count must be >= 1")
    if any(l < -2 for l in legs):
        raise UnsupportedInsertion("psi-powers must be >= -2")
    value = (
        connected_stationary(legs)
        if args.connected
        else stationary_invariant(legs)
    )
    # dimension constraint: sum(l_i) = 2g - 2, so the contributing genus
    # is read off the legs; -1 marks profiles with no integral genus
    genus_num = sum(legs) + 2
    genus = genus_num // 2 if genus_num % 2 == 0 and genus_num >= 0 else -1
    records = [
        InvariantRecord("gw_curve", genus, legs, "qm_polynomial", value)
    ]
    _emit(records, config, out)
    return 0


def cmd_fjrw(args, config, out):
    if args.fjrw_command == "invariants":
        max_n = args.max_n
        if max_n < 1:
            raise UnsupportedInsertion("--max must be >= 1")
        values = _cached_genus1_invariants(config, max_n)
        records = [
            InvariantRecord("fjrw_cubic", 1, ("phi",) * n, "rational", v)
            for n, v in values
        ]
        _emit(records, config, out)
        return 0
    genus = args.genus
    if genus < 1:
        raise UnsupportedInsertion("one-point tower starts at genus 1")
    needed = 2 * genus
    if config.b_bound < needed:
        raise InsufficientOrder(
            f"b-table bound {config.b_bound} too small for genus {genus}; "
            f"need --b-bound >= {needed}",
            required=needed,
        )
    frame = cayley_frame(config.s_order)
    series = fjrw_onepoint_all_genus(genus, frame, bound=config.b_bound)
    records = [
        InvariantRecord(
            "fjrw_cubic",
            genus,
            (f"phi psi^{2 * genus - 2}",),
            "s_series",
            series,
        )
    ]
    _emit(records, config, out)
    return 0


def _cached_genus1_invariants(config, max_n):
    def compute():
        return fjrw_primary_genus1_invariants(max_n)

    def encode(values):
        return [[n, rat_str(v)] for n, v in values]

    def decode(payload):
        return [(n, parse_rat(s)) for n, s in payload]

    return cached(
        config,
        "fjrw-genus1-invariants",
        {"max_n": max_n},
        compute,
        encode,
        decode,
    )


def cmd_verify(args, config, out):
    names = args.suite
    unknown = [n for n in names if n != "all" and n not in SUITES]
    if unknown:
        out.write(f"unknown suites: {', '.join(unknown)}\n")
        return 2
    reports = run_suites(names, config)
    ok = True
    for report in reports:
        for line in report.lines():
            out.write(line + "\n")
        ok = ok and report.passed
    out.write("verify: PASS\n" if ok else "verify: FAIL\n")
    return 0 if ok else 1


def cmd_tables(args, config, out):
    if args.table == "eisenstein":
        k = args.k
        order = config.q_order

        def compute():
            return eisenstein(k, order)

        def encode(series):
            return [rat_str(c) for c in series.coeffs]

        def decode(payload):
            from .series import PowerSeries

            return PowerSeries("q", [parse_rat(c) for c in payload])

        series = cached(
            config,
            "eisenstein",
            {"k": k, "order": order},
            compute,
            encode,
            decode,
        )
        record = InvariantRecord("gw_curve", 1, (f"E{k}",), "q_series", series)
        _emit([record], config, out)
        return 0

    bound = args.bound if args.bound is not None else config.b_bound
    if bound < 0:
        raise InvalidSeries("table bound must be >= 0")
    table_fn = weierstrass_a if args.table == "a" else b_table

    def compute():
        return table_fn(bound)

    def encode(table):
        return [[m, n, rat_str(v)] for (m, n), v in sorted(table.items())]

    def decode(payload):
        return {(m, n): parse_rat(s) for m, n, s in payload}

    table = cached(
        config,
        f"weierstrass-{args.table}",
        {"bound": bound},
        compute,
        encode,
        decode,
    )
    lines = [
        f"{args.table}[{m},{n}] = {rat_str(v)}"
        for (m, n), v in sorted(table.items())
    ]
    out.write("\n".join(lines) + "\n")
    return 0


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = make_config(args)
    except InsufficientOrder as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except QmgwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    handlers = {
        "gw": cmd_gw,
        "fjrw": cmd_fjrw,
        "verify": cmd_verify,
        "tables": cmd_tables,
    }
    try:
        return handlers[args.command](args, config, out)
    except InsufficientOrder as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UnsupportedInsertion, InvalidSeries) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QmgwError as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
