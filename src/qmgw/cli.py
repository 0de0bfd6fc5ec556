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

# Each handler imports the mathematics it runs, so a cached read runs none.
import argparse
import sys
from functools import lru_cache

from .cache import cached
from .config import FORMATS, SUITE_NAMES, RunConfig
from .errors import (
    InsufficientOrder,
    InvalidSeries,
    QmgwError,
    UnsupportedInsertion,
)
from .rational import parse_rat, rat_str
from .records import SERIALIZERS, InvariantRecord


def _add_common(parser, leaf=False):
    # On leaf subparsers the defaults are suppressed so a flag given after
    # the subcommand overrides one given before it, not the other way.
    d = argparse.SUPPRESS if leaf else None
    flag = argparse.SUPPRESS if leaf else False
    parser.add_argument("--order", type=int, default=d, help="q-order")
    parser.add_argument("--s-order", type=int, default=d)
    parser.add_argument("--z-order", type=int, default=d)
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
        default=("all",),
        help=f"any of: all, {', '.join(SUITE_NAMES)}",
    )

    tab = sub.add_parser("tables", help="dump coefficient tables")
    _add_common(tab, leaf=True)
    tab.add_argument(
        "table", choices=["a", "b", "eisenstein"], help="which table"
    )
    tab.add_argument("--bound", type=int, default=14)
    tab.add_argument("--k", type=int, default=2, help="Eisenstein weight")
    return parser


@lru_cache(maxsize=None)
def _parser():
    """The parser, built once per process on first use, not at import;
    parsing leaves it unchanged and every default it holds is immutable."""
    return build_parser()


#: command-line dest -> RunConfig field, for the flags a run may leave unset
_CONFIG_FIELDS = {
    "order": "q_order",
    "s_order": "s_order",
    "z_order": "z_order",
    "margin": "margin",
    "fmt": "fmt",
    "cache_dir": "cache_dir",
}


def make_config(args):
    kwargs = {
        field: getattr(args, dest)
        for dest, field in _CONFIG_FIELDS.items()
        if getattr(args, dest, None) is not None
    }
    return RunConfig(no_cache=bool(getattr(args, "no_cache", None)), **kwargs)


def _emit(records, config, out):
    out.write(SERIALIZERS[config.fmt](records))


def _psi_power(entry, position):
    if not entry.strip():
        raise UnsupportedInsertion(f"psi-power entry {position} is empty")
    try:
        return int(entry)
    except ValueError:
        raise UnsupportedInsertion(
            f"psi-power {entry.strip()!r} is not an integer"
        ) from None


def cmd_gw(args, config, out):
    from .modular import qm_eval
    from .hurwitz import connected_stationary, stationary_invariant

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
    legs = tuple(
        _psi_power(entry, position)
        for position, entry in enumerate(args.psi.split(","), 1)
    )
    if len(legs) != args.legs:
        raise UnsupportedInsertion(
            f"--legs {args.legs} but {len(legs)} psi-powers given"
        )
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
    from .cayley import cayley_frame, fjrw_onepoint_all_genus

    frame = cayley_frame(config.s_order)
    series = fjrw_onepoint_all_genus(genus, frame)
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
        from .chazy import fjrw_primary_genus1_invariants

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
    unknown = [n for n in names if n != "all" and n not in SUITE_NAMES]
    if unknown:
        raise UnsupportedInsertion(f"unknown suites: {', '.join(unknown)}")
    from .verify import run_suites

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
            from .modular import eisenstein

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

    def compute():
        from .theta import b_table, weierstrass_a

        return (weierstrass_a if args.table == "a" else b_table)(args.bound)

    def encode(table):
        return [[m, n, rat_str(v)] for (m, n), v in sorted(table.items())]

    def decode(payload):
        return {(m, n): parse_rat(s) for m, n, s in payload}

    table = cached(
        config,
        f"weierstrass-{args.table}",
        {"bound": args.bound},
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
    args = _parser().parse_args(argv)
    handlers = {
        "gw": cmd_gw,
        "fjrw": cmd_fjrw,
        "verify": cmd_verify,
        "tables": cmd_tables,
    }
    try:
        return handlers[args.command](args, make_config(args), out)
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
