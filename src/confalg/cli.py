"""Command-line front end: every command loads a JSON structure description
and prints a deterministic report, JSON by default.

Exit codes: 0 for a concluded computation or a passing property check, 1 for
a verified property violation, 2 for usage and description errors.
"""

import argparse
import functools
import json
import sys

from .algebra import MAX_DEGREE, AlgebraError, kernel_decompose, kernel_reconstruct
from .conformal import check_axioms, locality_degree
from .constructions import product_table
from .growth import gk_profile
from .oracle import coeff_assoc_check, oracle_check
from .specfile import SpecError, load_spec
from .structure import (
    dual_identity_consistency,
    ideal_lift,
    ideal_restrict,
    is_current,
    nilpotency_check,
    unital_split,
    untwist,
)


# Upper limits of the size options, checked while the arguments are parsed.
# Every --degree shares MAX_DEGREE with the description loader. The work of a
# check grows linearly with --samples and, in oracle-check, with --window; at
# the limits a command on a shipped description ends within seconds.
MAX_SAMPLES = 10000
MAX_WINDOW = 64
MAX_RMAX = 64
MAX_POWER = 64


class CommandError(Exception):
    pass


def _resolve_cel(data, name):
    if name in data.elements:
        return data.elements[name]
    try:
        return data.conformal.named_element(name)
    except AlgebraError as exc:
        raise CommandError("unknown element %r: %s" % (name, exc))


def _resolve_base(data, name):
    if name in data.base_elements:
        return data.base_elements[name]
    try:
        return data.carrier.basis_element(data.carrier.parse_key(name))
    except AlgebraError as exc:
        raise CommandError("unknown base element %r: %s" % (name, exc))


def _text_order(key):
    """--text order: integer keys (ranks, orders, powers) numerically, ahead
    of the other keys in string order."""
    s = str(key)
    return (0, int(s), "") if s.removeprefix("-").isdecimal() else (1, 0, s)


def _text_lines(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj, key=_text_order):
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append("%s%s:" % (pad, k))
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, k, v))
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append("%s-" % pad)
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append("%s- %s" % (pad, v))
    else:
        lines.append("%s%s" % (pad, obj))
    return lines


def _emit(report, args):
    if args.format == "text":
        print("\n".join(_text_lines(report)))
    else:
        print(json.dumps(report, sort_keys=True, indent=2))


def _cmd_check_axioms(data, args):
    report = check_axioms(
        data.conformal, samples=args.samples, seed=args.seed, degree=args.degree
    )
    return report, 0 if report["ok"] else 1


def _cmd_product(data, args):
    a = _resolve_cel(data, args.left)
    b = _resolve_cel(data, args.right)
    v = data.conformal.nprod(a, b, args.order)
    report = {
        "left": args.left,
        "right": args.right,
        "order": args.order,
        "result": v.to_map(),
        "text": repr(v),
    }
    return report, 0


def _cmd_table(data, args):
    if not data.generators:
        raise CommandError("the description declares no generators")
    entries = product_table(data.conformal, data.generators)
    return {"generators": [n for n, _ in data.generators], "entries": entries}, 0


def _cmd_locality(data, args):
    a = _resolve_cel(data, args.left)
    b = _resolve_cel(data, args.right)
    report = {
        "left": args.left,
        "right": args.right,
        "locality": locality_degree(data.conformal, a, b),
        "certified": True,
        "structural_bound": data.conformal.structural_bound(a, b),
    }
    return report, 0


def _cmd_oracle_check(data, args):
    report = oracle_check(
        data.conformal,
        samples=args.samples,
        seed=args.seed,
        window=args.window,
        degree=args.degree,
    )
    return report, 0 if report["ok"] else 1


def _cmd_assoc_check(data, args):
    report = coeff_assoc_check(
        data.carrier,
        data.conformal.der,
        samples=args.samples,
        seed=args.seed,
        degree=args.degree,
        power=args.power,
    )
    return report, 0 if report["ok"] else 1


def _cmd_untwist(data, args):
    result = untwist(data.conformal, degree=args.degree)
    report = {
        "e_prime": result.e_prime.to_map(),
        "e_prime_text": repr(result.e_prime),
        "certified": result.certified,
        "nilpotency": result.nilpotency,
        "pure_current_images": result.pure,
        "roundtrip_exact": result.roundtrip_exact,
        "images": {n: v.to_map() for n, v in result.images.items()},
        "table": result.table,
    }
    return report, 0


def _cmd_is_current(data, args):
    if data.sub is None:
        raise CommandError("the description declares no subalgebra")
    a = _resolve_base(data, args.element)
    verdict = is_current(data.sub, a, args.degree)
    report = {
        "element": args.element,
        "degree": verdict.degree,
        "current": verdict.current,
        "witness": None if verdict.witness is None else verdict.witness.to_map(),
    }
    return report, 0


def _cmd_dual_identity(data, args):
    e = _resolve_cel(data, args.identity)
    b = _resolve_cel(data, args.companion) if args.companion else None
    report = dual_identity_consistency(data.conformal, e, b)
    return report, 0 if report["consistent"] else 1


def _cmd_ideal_check(data, args):
    if args.ideal not in data.ideals:
        raise CommandError("unknown ideal %r" % args.ideal)
    gens = data.ideals[args.ideal]
    pair = ideal_lift(data.conformal, gens, degree=args.degree, within=data.sub)
    back = ideal_restrict(data.conformal, pair.conf_span)
    roundtrip_ok = back == pair.base_span
    nil = nilpotency_check(data.conformal, gens, degree=args.degree, within=data.sub)
    report = {
        "ideal": args.ideal,
        "degree": args.degree,
        "delta_stable": pair.delta_stable,
        "two_sided": pair.two_sided,
        "slice_dimension": len(pair.base_span),
        "roundtrip_ok": roundtrip_ok,
        "base_index": nil["base_index"],
        "conformal_index": nil["conformal_index"],
        "indices_agree": nil["agree"],
    }
    ok = roundtrip_ok and nil["agree"] and pair.two_sided
    return report, 0 if ok else 1


def _cmd_unital_split(data, args):
    e = _resolve_cel(data, args.identity)
    report = unital_split(data.conformal, e, degree=args.degree)
    return report, 0


def _cmd_kernel_decompose(data, args):
    if data.conformal.der.kind != "ddx":
        raise CommandError("kernel decomposition needs a ddx derivation")
    a = _resolve_base(data, args.element)
    comps = kernel_decompose(a, data.conformal.der)
    rebuilt = kernel_reconstruct(data.carrier, comps)
    report = {
        "element": args.element,
        "components": {str(k): v.to_map() for k, v in comps},
        "roundtrip_ok": rebuilt == a,
    }
    return report, 0


def _cmd_gk(data, args):
    if not data.generators:
        raise CommandError("the description declares no generators")
    profile = gk_profile(data.conformal, [g for _, g in data.generators], rmax=args.rmax)
    report = profile.to_report()
    report["generators"] = [n for n, _ in data.generators]
    return report, 0


def _at_least(lo, hi=None):
    """argparse type: an integer no smaller than lo and, given hi, no
    larger than hi."""

    def parse(text):
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError("must be an integer >= %d, got %d" % (lo, value))
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError("must be an integer <= %d, got %d" % (hi, value))
        return value

    # argparse names the type in its message for text that is not a number
    parse.__name__ = "int"
    return parse


def _add_common(p):
    p.add_argument("spec", help="JSON structure description")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument(
        "--json", dest="format", action="store_const", const="json", default="json"
    )
    fmt.add_argument("--text", dest="format", action="store_const", const="text")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="confalg", description="exact computations in conformal structures"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-axioms", help="randomized shift-rule check")
    _add_common(p)
    p.add_argument("--samples", type=_at_least(1, MAX_SAMPLES), default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--degree", type=_at_least(0, MAX_DEGREE), default=4)
    p.set_defaults(fn=_cmd_check_axioms)

    p = sub.add_parser("product", help="one n-product")
    _add_common(p)
    p.add_argument("left")
    p.add_argument("order", type=_at_least(0))
    p.add_argument("right")
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("table", help="all generator products")
    _add_common(p)
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("locality", help="largest nonzero order")
    _add_common(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=_cmd_locality)

    p = sub.add_parser("oracle-check", help="two-route product agreement")
    _add_common(p)
    p.add_argument("--samples", type=_at_least(1, MAX_SAMPLES), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", type=_at_least(0, MAX_WINDOW), default=8)
    p.add_argument("--degree", type=_at_least(0, MAX_DEGREE), default=4)
    p.set_defaults(fn=_cmd_oracle_check)

    p = sub.add_parser("assoc-check", help="twisted Laurent ring associativity")
    _add_common(p)
    p.add_argument("--samples", type=_at_least(1, MAX_SAMPLES), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--degree", type=_at_least(0, MAX_DEGREE), default=3)
    p.add_argument("--power", type=_at_least(0, MAX_POWER), default=2)
    p.set_defaults(fn=_cmd_assoc_check)

    p = sub.add_parser("untwist", help="inner twist to pure currents")
    _add_common(p)
    p.add_argument("--degree", type=_at_least(0, MAX_DEGREE), default=2)
    p.set_defaults(fn=_cmd_untwist)

    p = sub.add_parser("is-current", help="currentness over a subalgebra slice")
    _add_common(p)
    p.add_argument("element")
    p.add_argument("--degree", type=_at_least(0, MAX_DEGREE), default=2)
    p.set_defaults(fn=_cmd_is_current)

    p = sub.add_parser("dual-identity", help="component-side identity check")
    _add_common(p)
    p.add_argument("identity")
    p.add_argument("companion", nargs="?", default=None)
    p.set_defaults(fn=_cmd_dual_identity)

    p = sub.add_parser("ideal-check", help="ideal transfer and nilpotency")
    _add_common(p)
    p.add_argument("ideal")
    p.add_argument("--degree", type=_at_least(0, MAX_DEGREE), default=4)
    p.set_defaults(fn=_cmd_ideal_check)

    p = sub.add_parser("unital-split", help="split under the order-0 action")
    _add_common(p)
    p.add_argument("identity")
    p.add_argument("--degree", type=_at_least(0, MAX_DEGREE), default=4)
    p.set_defaults(fn=_cmd_unital_split)

    p = sub.add_parser("kernel-decompose", help="derivation-kernel components")
    _add_common(p)
    p.add_argument("element")
    p.set_defaults(fn=_cmd_kernel_decompose)

    p = sub.add_parser("gk", help="growth classification of a closure")
    _add_common(p)
    p.add_argument("--rmax", type=_at_least(1, MAX_RMAX), default=12)
    p.set_defaults(fn=_cmd_gk)

    return ap


@functools.cache
def _parser():
    """The parser main uses, built once per process: parse_args keeps no
    state between calls, and building the tree costs more than most
    commands."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        data = load_spec(args.spec)
        report, code = args.fn(data, args)
    except (SpecError, CommandError, AlgebraError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    _emit(report, args)
    return code


def script_main():
    sys.exit(main())


if __name__ == "__main__":
    script_main()
