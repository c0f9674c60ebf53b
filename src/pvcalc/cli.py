"""Command-line interface.

Exit codes: 0 on success, 1 for domain failures (validation, poles,
bad centers, mismatched verdicts), 2 for input problems (unreadable
files, malformed JSON, bad flag combinations).

Configuration files may omit the denominator context d; the PVCALC_D
environment variable supplies a default in that case.

Each command imports the modules it runs when it runs: a pvcalc process
runs one command, and without written bytecode every module it imports
is compiled from source first.
"""

import argparse
import json
import os
import re
import sys

from .errors import InputError, PvError


def _default_d():
    raw = os.environ.get("PVCALC_D")
    if raw is None:
        return None
    # int() also reads "+2", " 2 " and "1_0"; only plain digits are meant
    if re.fullmatch("[0-9]+", raw):
        try:
            return int(raw)
        except ValueError:          # past int()'s digit limit
            pass
    raise InputError(f"PVCALC_D must be an integer, got {raw!r}")


def _read_config(path):
    from .surface import read_config
    return read_config(path, default_d=_default_d())


def _emit_config(cfg, out):
    from .surface import dump_config, save_config
    if out:
        save_config(cfg, out)
        print(f"wrote {out}")
    else:
        print(json.dumps(dump_config(cfg), indent=2))


def parse_center(spec):
    """Center syntax: point:A/B#k (k optional), curve:A, free."""
    from .birational import at_point, free, on_curve
    kind, _, rest = spec.partition(":")
    if kind == "free":
        if rest:
            raise InputError(f"free center takes no arguments: {spec!r}")
        return free()
    if kind == "curve":
        if not rest:
            raise InputError(f"curve center needs a curve id: {spec!r}")
        return on_curve(rest)
    if kind == "point":
        ids, _, idx = rest.partition("#")
        a, sep, b = ids.partition("/")
        if not sep or not a or not b:
            raise InputError(f"point center needs two ids: {spec!r}")
        if a == b:
            raise InputError(f"point center needs two distinct ids: {spec!r}")
        # int() also reads "+3", " 3" and "1_0"; the syntax #k does not
        if idx and not re.fullmatch("[0-9]+", idx):
            raise InputError(f"bad point index in {spec!r}")
        try:
            index = int(idx) if idx else 0
        except ValueError:          # past int()'s digit limit
            raise InputError(f"bad point index in {spec!r}") from None
        return at_point(a, b, index)
    raise InputError(
        f"bad center {spec!r}; use point:A/B#k, curve:A or free")


def _fmt_padic(vec, d, q):
    if len(vec) == 1:
        return str(vec[0])
    body = ", ".join(str(c) for c in vec)
    return f"[{body}]  (mod x^{d} - {q})"


def cmd_validate(args):
    from .surface import validate
    cfg = _read_config(args.path)
    rep = validate(cfg)
    for f in rep.findings:
        print(f)
    return 0 if rep.ok else 1


def cmd_compute(args):
    from .motring import euler_realize, legend, render, render_hodge
    from .pvint import e_invariant, e_padic, pv_integral
    if args.realization == "padic" and args.q is None:
        raise InputError("--q is required for the padic realization")
    if args.realization != "padic" and args.q is not None:
        raise InputError("--q only applies to the padic realization")
    if args.q is not None and args.q < 2:
        raise InputError("--q must be an integer >= 2")
    cfg = _read_config(args.path)
    has_log = any(c.alpha == 0 for c in cfg.curves)
    if args.realization == "motivic":
        inv = e_invariant(cfg)
        print(f"{render(inv)}  [{legend(cfg.d)}]")
        if not has_log:
            print(f"pv = {render(pv_integral(cfg))}")
    elif args.realization == "hodge":
        inv = e_invariant(cfg)
        print(render_hodge(inv))
        if not has_log:
            print(f"pv = {render_hodge(pv_integral(cfg))}")
    elif args.realization == "euler":
        print(euler_realize(e_invariant(cfg)))
    else:
        print(_fmt_padic(e_padic(cfg, args.q), cfg.d, args.q))
    return 0


def cmd_blowup(args):
    from .birational import blow_up, invariance_delta, is_exceptional_center
    from .motring import legend, render
    from .pvint import require_valid
    cfg = _read_config(args.path)
    center = parse_center(args.center)
    exceptional = is_exceptional_center(cfg, center)
    result = blow_up(cfg, center)
    # checked as e_invariant(result) would be; blow_up validated cfg and
    # stored result's findings, so this reads them
    require_valid(result)
    delta = invariance_delta(cfg, center)
    print(f"delta = {render(delta)}  [{legend(cfg.d)}]")
    if exceptional:
        print("warning: exceptional situation "
              "(the invariant changes under this blow-up)")
    _emit_config(result, args.out)
    return 0


def cmd_blowdown(args):
    from .birational import (blow_down, invariance_delta, inverse_center,
                             is_exceptional_center)
    from .motring import legend, render
    from .pvint import require_valid
    cfg = _read_config(args.path)
    undo = inverse_center(cfg, args.id)
    result = blow_down(cfg, args.id)
    # validate as e_invariant(result) - e_invariant(cfg) would, result
    # first; blowing result up at undo gives cfg back, so the delta is
    # that of the blow-up, negated
    require_valid(result)
    require_valid(cfg)
    delta = -invariance_delta(result, undo)
    print(f"delta = {render(delta)}  [{legend(cfg.d)}]")
    if is_exceptional_center(result, undo):
        print("warning: exceptional situation "
              "(the invariant changes under this contraction)")
    _emit_config(result, args.out)
    return 0


def cmd_residue(args):
    from .motring import euler_realize, legend, render, render_hodge
    from .zeta import (alphas_from_numerical, pole_report, read_datum,
                       residue_contribution)
    datum = read_datum(args.path)
    alphas = alphas_from_numerical(datum)
    for cid in sorted(alphas):
        print(f"alpha {cid} = {alphas[cid]}")
    R = residue_contribution(datum)
    print(f"R = {render(R)}  [{legend(datum.nj)}]")
    print(f"R(hodge) = {render_hodge(R)}")
    print(f"R(euler) = {euler_realize(R)}")
    rep = pole_report(datum)
    for f in rep.findings:
        print(f)
    return 0 if rep.ok else 1


def _demo_case_a():
    from .models import hirzebruch_case_a
    return hirzebruch_case_a(0, ["1/2", "-1/2"], 2)


def _demo_case_b():
    from .models import hirzebruch_case_b
    return hirzebruch_case_b(0, "1/2", ["1/2", "-1/2"], 2)


def _demo_case_c():
    from .models import case_c_resolved
    return case_c_resolved("1/2")


DEMO_CONFIGS = {
    "case-a": _demo_case_a,
    "case-b": _demo_case_b,
    "case-c": _demo_case_c,
}

DEMO_NAMES = ("conic-pipeline", "case-a", "case-b", "case-c",
              "triangle-residue")


def cmd_demo(args):
    from .models import conic_pipeline_demo
    from .motring import legend, render
    from .pvint import e_invariant
    from .surface import save_config
    from .zeta import (pole_report, residue_contribution, save_datum,
                       triangle_datum)
    name = args.name
    if name == "conic-pipeline":
        steps = conic_pipeline_demo()
        for i, step in enumerate(steps):
            mark = "  (exceptional)" if step.exceptional else ""
            print(f"step {i}: {step.label}: E = {render(step.invariant)}{mark}")
        print(f"[{legend(steps[-1].config.d)}]")
        if args.out:
            save_config(steps[-1].config, args.out)
            print(f"wrote {args.out}")
        return 0
    if name == "triangle-residue":
        datum = triangle_datum()
        R = residue_contribution(datum)
        print(f"R = {render(R)}  [{legend(datum.nj)}]")
        rep = pole_report(datum)
        for f in rep.findings:
            print(f)
        out = args.out or "triangle-residue.json"
        save_datum(datum, out)
        print(f"wrote {out}")
        return 0 if rep.ok else 1
    cfg = DEMO_CONFIGS[name]()
    print(f"E = {render(e_invariant(cfg))}  [{legend(cfg.d)}]")
    out = args.out or f"{name}.json"
    save_config(cfg, out)
    print(f"wrote {out}")
    return 0


def cmd_gen(args):
    from .models import random_config
    cfg = random_config(args.seed)
    _emit_config(cfg, args.out)
    return 0


def _build_parser():
    p = argparse.ArgumentParser(
        prog="pvcalc",
        description="Exact principal-value invariants of curve "
                    "configurations on surfaces.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a configuration file")
    v.add_argument("path")
    v.set_defaults(func=cmd_validate)

    c = sub.add_parser("compute", help="invariant of a configuration file")
    c.add_argument("path")
    c.add_argument("--realization", default="motivic",
                   choices=("motivic", "hodge", "euler", "padic"))
    c.add_argument("--q", type=int, default=None,
                   help="prime power for the padic realization")
    c.set_defaults(func=cmd_compute)

    bu = sub.add_parser("blowup", help="blow up a center")
    bu.add_argument("path")
    bu.add_argument("--center", required=True,
                    help="point:A/B#k, curve:A or free")
    bu.add_argument("--out", default=None)
    bu.set_defaults(func=cmd_blowup)

    bd = sub.add_parser("blowdown", help="contract a (-1)-curve")
    bd.add_argument("path")
    bd.add_argument("--id", required=True, dest="id")
    bd.add_argument("--out", default=None)
    bd.set_defaults(func=cmd_blowdown)

    r = sub.add_parser("residue", help="residue report for a resolution datum")
    r.add_argument("path")
    r.set_defaults(func=cmd_residue)

    d = sub.add_parser("demo", help="built-in example configurations")
    d.add_argument("name", choices=DEMO_NAMES)
    d.add_argument("--out", default=None)
    d.set_defaults(func=cmd_demo)

    g = sub.add_parser("gen", help="seeded random valid configuration")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gen)
    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
