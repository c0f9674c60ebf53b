"""The four workloads: inputs, one pass of ops, and each op's oracle check.

Every workload's mathematical content is pinned; the workload seed
renames curves and, except in chain, shuffles the order in which the
program meets them and the inputs.
Drawing the structures themselves from the seed makes the cost of a
run depend on the seed far more than any bound allows (see README.md).

A workload is built once per process (set-up).  pass_ops() then yields
one (op, check) pair per op on freshly built input objects, so per-object
caches never carry over from one pass to the next.  op() is the timed
call; check(result) runs afterwards, outside the timed interval, and
returns True when the result agrees with the oracle.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pvcalc.birational as birational
import pvcalc.motring as motring
import pvcalc.pvint as pvint
import pvcalc.surface as surface
import pvcalc.zeta as zeta
from pvcalc.models import candidate_centers, plane_conic, random_config

import oracle

WORKLOADS = ("chain", "sweep", "residue", "cli")

# pinned structures
CHAIN_BASE_SEED = 3          # random_config(3), as in ROADMAP item 1
CHAIN_DRAW_SEED = 1          # random.Random(1) draws the blow-up centers
# a 160-blow-up checkpoint takes 2 to 3 s, too long to repeat often
# enough in one run to time it steadily on a shared machine
CHAIN_CHECKPOINTS = (25, 50, 75, 100)
SWEEP_CONFIG_SEEDS = range(40)
RESIDUE_CONFIGS = 40         # first configs with no alpha = 0 curve
RESIDUE_CONIC_BLOWUPS = range(10)
CLI_CONFIG_SEED = 5
POINTS_T = (2, 3)            # rational points w = t for the oracle

TINY = {
    "chain": (3, 6, 9, 12),
    "sweep": range(3),
    "residue_configs": 2,
    "residue_conic": (0, 1),
}


def fresh(config):
    """A new Config equal to config, with no cached derived views."""
    return surface.Config(d=config.d, ambient_hodge=config.ambient_hodge,
                          curves=config.curves, points=config.points)


def relabel(config, rng, prefix="K", keep_order=False):
    """The same configuration with seeded new curve ids.

    By default the renaming also reorders the curves, and with them the
    order in which the program visits strata and sums terms.  With
    keep_order the new ids sort like the old ones, so the program does
    exactly the same arithmetic.
    """
    ids = [c.id for c in config.curves]
    tokens = rng.sample(range(10 ** 6), len(ids))
    if keep_order:
        tokens.sort()
    new = {old: f"{prefix}{k:06d}" for old, k in zip(ids, tokens)}
    curves = tuple(surface.Curve(new[c.id], c.genus, c.self_int, c.alpha,
                                 c.count_trace) for c in config.curves)
    points = tuple((new[a], new[b], k) for a, b, k in config.points)
    return surface.Config(d=config.d, ambient_hodge=config.ambient_hodge,
                          curves=curves, points=points)


def _center_data(center):
    return center.kind, center.a, center.b


def _non_exceptional(config):
    return [c for c in candidate_centers(config)
            if not birational.is_exceptional_center(config, c)]


def _evals_match(x, want_by_t, d):
    """numeric_eval of x at q = t^d equals the oracle value for each t."""
    return all(motring.numeric_eval(x, t ** d) == [want]
               for t, want in want_by_t.items())


# ---- chain ---------------------------------------------------------------


class Chain:
    """e_invariant at checkpoints of one long blow-up chain."""

    name = "chain"

    def __init__(self, seed, tiny=False):
        checkpoints = TINY["chain"] if tiny else CHAIN_CHECKPOINTS
        rng = random.Random(CHAIN_DRAW_SEED)
        cfg = random_config(CHAIN_BASE_SEED)
        self.configs = []
        for step in range(1, checkpoints[-1] + 1):
            cfg = birational.blow_up(cfg, rng.choice(_non_exceptional(cfg)))
            if step in checkpoints:
                self.configs.append(cfg)
        # the order of a sum's terms moves the chain's cost by about 10%,
        # so the seed renames curves without reordering them
        label_rng = random.Random(seed)
        self.configs = [relabel(c, label_rng, keep_order=True)
                        for c in self.configs]
        self.expect = None

    def prepare(self):
        # every checkpoint's true invariant is zero
        self.expect = [{t: oracle.value_at(oracle.shape_of(c), t)
                        for t in POINTS_T} for c in self.configs]

    def pass_ops(self):
        for cfg, want in zip(self.configs, self.expect):
            cfg = fresh(cfg)
            yield (lambda cfg=cfg: pvint.e_invariant(cfg),
                   lambda e, d=cfg.d, want=want: (
                       e.is_zero() and all(v == 0 for v in want.values())
                       and _evals_match(e, want, d)))


# ---- sweep ---------------------------------------------------------------


class Sweep:
    """invariance_delta over every candidate center of small configurations."""

    name = "sweep"

    def __init__(self, seed, tiny=False):
        rng = random.Random(seed)
        seeds = TINY["sweep"] if tiny else SWEEP_CONFIG_SEEDS
        self.pairs = []
        for s in seeds:
            cfg = relabel(random_config(s, max_blowups=10), rng)
            for center in candidate_centers(cfg) + [birational.free()]:
                self.pairs.append((cfg, center))
        rng.shuffle(self.pairs)
        self.expect = None

    def prepare(self):
        self.expect = []
        for cfg, center in self.pairs:
            before = oracle.shape_of(cfg)
            after = oracle.blow_up(before, *_center_data(center))
            jump = {t: oracle.value_at(after, t) - oracle.value_at(before, t)
                    for t in POINTS_T}
            pattern = birational.exceptional_alphas(cfg, center)
            closed = None
            if pattern is not None:
                a = pattern[0]
                closed = birational.exceptional_delta(a, cfg.d)
                if any(jump[t] != oracle.exceptional_jump_at(a, cfg.d, t)
                       for t in POINTS_T):
                    closed = "oracle disagrees with the closed form"
            self.expect.append((jump, closed))

    def pass_ops(self):
        built = {}
        for (cfg, center), (jump, closed) in zip(self.pairs, self.expect):
            if id(cfg) not in built:
                built[id(cfg)] = fresh(cfg)
            cfg_now = built[id(cfg)]

            def check(delta, d=cfg.d, jump=jump, closed=closed):
                if closed is None:
                    return delta.is_zero() and all(
                        v == 0 for v in jump.values())
                return (isinstance(closed, motring.RingElem)
                        and delta == closed and _evals_match(delta, jump, d))
            yield (lambda cfg=cfg_now, center=center:
                   birational.invariance_delta(cfg, center), check)


# ---- residue -------------------------------------------------------------


def datum_from_config(config, scale=1):
    """Numerical data whose induced exponents are config's (N_j = d * scale)."""
    comps = []
    for c in config.curves:
        m = c.alpha * config.d
        if m.denominator != 1:
            raise ValueError(f"alpha of {c.id} is not a multiple of 1/d")
        m = m.numerator
        v = max(1, -(-(m + 1) // config.d))
        comps.append(zeta.ResolutionComponent(c.id, c.genus, c.self_int,
                                              config.d * v - m, v))
    return zeta.SurfaceResolutionDatum(
        nj=config.d * scale, vj=scale, surface_hodge=config.ambient_hodge,
        creation="point", components=tuple(comps),
        points=tuple((a, b) for a, b, _ in config.points))


def conic_blowups(count, rng):
    """plane_conic() after `count` seeded on-divisor blow-ups that keep
    every alpha nonzero.  On-divisor blow-ups keep chi = 1 > 0, so the
    pole report expects nothing of the nonzero residue."""
    def new_alpha(cfg, center):
        touched = [i for i in (center.a, center.b) if i]
        return sum(cfg.curve(i).alpha for i in touched) + 2 - len(touched)

    cfg = plane_conic()
    for _ in range(count):
        centers = [c for c in candidate_centers(cfg) if new_alpha(cfg, c)]
        cfg = birational.blow_up(cfg, rng.choice(centers))
    return cfg


def _non_perfect_power(d):
    """A q >= 2 that is not a perfect d-th power (any q when d = 1)."""
    return 2 if d > 1 else 5


class Residue:
    """Residues, verdicts and realizations of surface resolution data."""

    name = "residue"

    def __init__(self, seed, tiny=False):
        n_cfg = TINY["residue_configs"] if tiny else RESIDUE_CONFIGS
        conic = TINY["residue_conic"] if tiny else RESIDUE_CONIC_BLOWUPS
        rng = random.Random(seed)
        configs = []     # (config, R known to vanish)
        s = 0
        while len(configs) < n_cfg:
            cfg = random_config(s)
            s += 1
            if all(c.alpha != 0 for c in cfg.curves):
                configs.append((cfg, True))
        draw = random.Random(1)
        configs += [(conic_blowups(k, draw), False) for k in conic]
        self.data = []
        for cfg, vanishes in configs:
            cfg = relabel(cfg, rng, prefix="D")
            for scale in (1, 2):
                self.data.append((datum_from_config(cfg, scale), vanishes))
        rng.shuffle(self.data)
        self.expect = None

    def prepare(self):
        self.expect = []
        for datum, vanishes in self.data:
            shape = oracle.shape_of_datum(datum)
            d = datum.nj
            s = d // 2       # conic data: R = -(w^(3s) + w^(2s) + w^s)
            poly = {} if vanishes else {3 * s: -1, 2 * s: -1, s: -1}
            values = {t: oracle.value_at(shape, t) for t in POINTS_T}
            closed = {t: sum(c * Fraction(t) ** e for e, c in poly.items())
                      for t in POINTS_T}
            q = _non_perfect_power(d)
            self.expect.append({
                "values": values if values == closed else None,
                "euler": oracle.euler_value(shape),
                "q": q,
                "vector": (oracle.reduce_mod(poly, d, q) if d > 1
                           else [oracle.value_at(shape, q)]),
                "subst": {t: values[t] * (Fraction(t) ** d - 1)
                          * Fraction(t) ** (d * datum.vj - 3 * d)
                          for t in POINTS_T},
            })

    @staticmethod
    def _op(datum, q):
        R = zeta.residue_contribution(datum)
        report = zeta.pole_report(datum)
        terms = zeta.zmot_contribution(zeta.zmot_from_surface(datum), "Ej")
        got = zeta.residue_via_substitution(terms, "Ej")
        return (R, report, got, motring.euler_realize(R),
                motring.numeric_eval(R, q),
                motring.numeric_eval(R, POINTS_T[0] ** datum.nj))

    @staticmethod
    def _check(result, datum, want):
        R, report, got, euler, vec, value = result
        d = datum.nj
        if want["values"] is None or not report.ok:
            return False
        if value != [want["values"][POINTS_T[0]]] or euler != want["euler"]:
            return False
        if vec != want["vector"]:
            return False
        lifted = (R * (motring.lpow(1, d) - motring.from_int(1, d))
                  * motring.lpow(datum.vj, d) * motring.lpow(-3, d))
        return (got == lifted and _evals_match(R, want["values"], d)
                and _evals_match(got, want["subst"], d))

    def pass_ops(self):
        for (datum, _), want in zip(self.data, self.expect):
            yield (lambda datum=datum, q=want["q"]: self._op(datum, q),
                   lambda r, datum=datum, want=want: self._check(r, datum, want))


# ---- cli -----------------------------------------------------------------


def _warning(exceptional, move):
    if not exceptional:
        return []
    return ["warning: exceptional situation "
            f"(the invariant changes under this {move})"]


class Cli:
    """Sequential `python -m pvcalc.cli` invocations, one child at a time."""

    name = "cli"

    def __init__(self, seed, tiny=False, workdir=None, env=None):
        rng = random.Random(seed)
        self.workdir = workdir
        self.env = env
        os.makedirs(workdir, exist_ok=True)
        cfg = relabel(random_config(CLI_CONFIG_SEED), rng)
        center = _non_exceptional(cfg)[0]
        new_id = birational.fresh_id(cfg)
        blown = birational.blow_up(cfg, center)
        datum = datum_from_config(relabel(conic_blowups(2, random.Random(1)),
                                          rng, prefix="D"), 2)
        paths = {k: os.path.join(workdir, f"{k}.json")
                 for k in ("config", "blown", "datum", "out_up", "out_down")}
        surface.save_config(cfg, paths["config"])
        surface.save_config(blown, paths["blown"])
        zeta.save_datum(datum, paths["datum"])
        self.paths = paths
        self.inputs = (cfg, center, new_id, blown, datum)
        spec = {"point": f"point:{center.a}/{center.b}#{center.index}",
                "curve": f"curve:{center.a}", "free": "free"}[center.kind]
        compute = ["compute", paths["config"], "--realization"]
        self.commands = [
            ("compute-motivic", compute + ["motivic"]),
            ("compute-hodge", compute + ["hodge"]),
            ("compute-euler", compute + ["euler"]),
            ("compute-padic", compute + ["padic", "--q", "5"]),
            ("blowup", ["blowup", paths["config"], "--center", spec,
                        "--out", paths["out_up"]]),
            ("blowdown", ["blowdown", paths["blown"], "--id", new_id,
                          "--out", paths["out_down"]]),
            ("residue", ["residue", paths["datum"]]),
            ("validate", ["validate", paths["config"]]),
        ]
        self.expect = None

    def prepare(self):
        cfg, center, new_id, blown, datum = self.inputs
        d = cfg.d
        legend = motring.legend(d)
        inv = pvint.e_invariant(cfg)
        pv = ([] if any(c.alpha == 0 for c in cfg.curves)
              else [motring.render(pvint.pv_integral(cfg))])
        pv_h = ([] if not pv
                else [motring.render_hodge(pvint.pv_integral(cfg))])
        padic = motring.numeric_eval(inv, 5)
        padic_text = (str(padic[0]) if len(padic) == 1 else
                      "[" + ", ".join(map(str, padic)) + f"]  (mod x^{d} - 5)")
        up = pvint.e_invariant(blown) - inv
        down = birational.blow_down(blown, new_id)
        undo = birational.inverse_center(blown, new_id)
        down_delta = pvint.e_invariant(down) - pvint.e_invariant(blown)
        R = zeta.residue_contribution(datum)
        alphas = zeta.alphas_from_numerical(datum)
        lines = {
            "compute-motivic": [f"{motring.render(inv)}  [{legend}]"]
            + [f"pv = {p}" for p in pv],
            "compute-hodge": [motring.render_hodge(inv)]
            + [f"pv = {p}" for p in pv_h],
            "compute-euler": [str(motring.euler_realize(inv))],
            "compute-padic": [padic_text],
            "blowup": [f"delta = {motring.render(up)}  [{legend}]"]
            + _warning(birational.is_exceptional_center(cfg, center),
                       "blow-up")
            + [f"wrote {self.paths['out_up']}"],
            "blowdown": [f"delta = {motring.render(down_delta)}  [{legend}]"]
            + _warning(birational.is_exceptional_center(down, undo),
                       "contraction")
            + [f"wrote {self.paths['out_down']}"],
            "residue": [f"alpha {k} = {alphas[k]}" for k in sorted(alphas)]
            + [f"R = {motring.render(R)}  [{motring.legend(datum.nj)}]",
               f"R(hodge) = {motring.render_hodge(R)}",
               f"R(euler) = {motring.euler_realize(R)}"]
            + [str(f) for f in zeta.pole_report(datum).findings],
            "validate": [str(f) for f in surface.validate(cfg).findings],
        }
        files = {"blowup": (self.paths["out_up"], surface.dump_config(blown)),
                 "blowdown": (self.paths["out_down"],
                              surface.dump_config(down))}
        self.expect = {k: ("\n".join(v) + "\n", files.get(k))
                       for k, v in lines.items()}

    def _run(self, argv):
        proc = subprocess.run([sys.executable, "-m", "pvcalc.cli"] + argv,
                              capture_output=True, text=True, env=self.env,
                              timeout=60)
        return proc.returncode, proc.stdout

    def _check(self, result, name):
        code, out = result
        text, written = self.expect[name]
        if code != 0 or out != text:
            return False
        if written is not None:
            path, want = written
            with open(path) as fh:
                return json.load(fh) == want
        return True

    def pass_ops(self):
        for name, argv in self.commands:
            yield (lambda argv=argv: self._run(argv),
                   lambda r, name=name: self._check(r, name))


def build(name, seed, tiny=False, workdir=None, env=None):
    if name == "chain":
        return Chain(seed, tiny)
    if name == "sweep":
        return Sweep(seed, tiny)
    if name == "residue":
        return Residue(seed, tiny)
    if name == "cli":
        return Cli(seed, tiny, workdir=workdir, env=env)
    raise ValueError(f"unknown workload {name!r}")
