"""Ready-made configurations and a seeded random generator.

The ruled-surface families come in three shapes: (a) one section with
exponent -1 plus fibres, (b) two disjoint sections with opposite
exponents plus fibres crossing both, (c) a rational bisection with
exponent 0 whose two ramification fibres are stored after resolving the
tangencies (chains of self-intersections -2, -1, -2).  Each builder
enforces the adjunction constraint tying the exponent sum to the
self-intersection data, so every output validates cleanly and has
invariant zero.  The plane conic with exponent -1/2 is the standard
nonvanishing example; the pipeline demo connects it to a case (b)
configuration through blow-ups and blow-downs.
"""

from fractions import Fraction
import math
import random

from .birational import (_centers, _exceptional_positions, at_point,
                         blow_down, blow_up, inverse_center,
                         is_exceptional_center)
from .errors import ConfigError, GeneratorError, PvError
from .motring import HodgePoly
from .pvint import e_invariant
from .surface import (Config, Curve, _Value, euler_complement,
                      is_connected, plane, ruled, validate)


def hirzebruch_case_a(e, fibre_alphas, d):
    """Section with alpha = -1 and self-intersection -e, plus fibres.

    Needs at least two fibres and sum(fibre_alphas) = m - 2 - e, which
    is the adjunction identity on the section.
    """
    if not isinstance(e, int) or e < 0:
        raise ConfigError("e must be a nonnegative integer")
    alphas = [Fraction(a) for a in fibre_alphas]
    m = len(alphas)
    if m < 2:
        raise ConfigError("case (a) needs at least two fibres")
    if sum(alphas) != m - 2 - e:
        raise ConfigError(
            f"fibre exponents sum to {sum(alphas)}, adjunction on the "
            f"section needs {m - 2 - e}")
    curves = [Curve("C1", 0, -e, Fraction(-1))]
    points = []
    for k, a in enumerate(alphas, start=1):
        curves.append(Curve(f"F{k}", 0, 0, a))
        points.append(("C1", f"F{k}"))
    return Config(d=d, ambient_hodge=ruled(0),
                  curves=tuple(curves), points=tuple(points))


def hirzebruch_case_b(e, alpha1, fibre_alphas, d):
    """Two disjoint sections with exponents alpha1 and -alpha1, plus fibres.

    Sections have self-intersections -e and e; every fibre crosses both.
    Adjunction on either section forces
    sum(fibre_alphas) = m - 2 + alpha1 * e.
    """
    if not isinstance(e, int) or e < 0:
        raise ConfigError("e must be a nonnegative integer")
    a1 = Fraction(alpha1)
    alphas = [Fraction(a) for a in fibre_alphas]
    m = len(alphas)
    if m < 1:
        raise ConfigError("case (b) needs at least one fibre")
    if sum(alphas) != m - 2 + a1 * e:
        raise ConfigError(
            f"fibre exponents sum to {sum(alphas)}, adjunction on the "
            f"sections needs {m - 2 + a1 * e}")
    curves = [Curve("C1", 0, -e, a1), Curve("C2", 0, e, -a1)]
    points = []
    for k, a in enumerate(alphas, start=1):
        curves.append(Curve(f"F{k}", 0, 0, a))
        points.append(("C1", f"F{k}"))
        points.append(("C2", f"F{k}"))
    return Config(d=d, ambient_hodge=ruled(0),
                  curves=tuple(curves), points=tuple(points))


def case_c_resolved(alpha1, extra_fibres=0, d=2):
    """Rational bisection with exponent 0, after resolving the tangencies.

    The bisection C (self-intersection 0 here) meets the middle curve of
    two chains C'_i - C_i - C''_i with self-intersections -2, -1, -2;
    the outer curves carry (alpha_i + 1)/2 where alpha_2 = -alpha_1.
    Extra fibres carry exponent 1 and cross C twice.  The denominator is
    widened to keep the halved exponents representable.
    """
    a1 = Fraction(alpha1)
    if a1 == 0:
        raise ConfigError("alpha1 must be nonzero in case (c)")
    if not isinstance(extra_fibres, int) or extra_fibres < 0:
        raise ConfigError("extra_fibres must be a nonnegative integer")
    h1 = (a1 + 1) / 2
    h2 = (1 - a1) / 2
    d_eff = math.lcm(d, a1.denominator, h1.denominator, h2.denominator)
    curves = [
        Curve("C", 0, 0, Fraction(0)),
        Curve("C1", 0, -1, a1),
        Curve("C1a", 0, -2, h1),
        Curve("C1b", 0, -2, h1),
        Curve("C2", 0, -1, -a1),
        Curve("C2a", 0, -2, h2),
        Curve("C2b", 0, -2, h2),
    ]
    points = [("C", "C1"), ("C", "C2"), ("C1", "C1a"), ("C1", "C1b"),
              ("C2", "C2a"), ("C2", "C2b")]
    for k in range(1, extra_fibres + 1):
        curves.append(Curve(f"F{k}", 0, 0, Fraction(1)))
        points.append(("C", f"F{k}", 0))
        points.append(("C", f"F{k}", 1))
    return Config(d=d_eff, ambient_hodge=ruled(0) + HodgePoly({(1, 1): 4}),
                  curves=tuple(curves), points=tuple(points))


def plane_conic(d=2):
    """A conic in the plane with exponent -1/2 (forced by adjunction)."""
    return Config(d=d, ambient_hodge=plane(),
                  curves=(Curve("B", 0, 4, Fraction(-1, 2)),), points=())


class PipelineStep(_Value):
    """One step of a scripted pipeline; mutable and unhashable.
    Unpacks as (label, config, invariant)."""

    _fields = ("label", "config", "invariant", "delta", "exceptional")

    def __init__(self, label, config, invariant, delta, exceptional):
        self.label = label
        self.config = config
        self.invariant = invariant
        self.delta = delta
        self.exceptional = exceptional

    def __iter__(self):
        yield self.label
        yield self.config
        yield self.invariant


def conic_pipeline_demo():
    """Scripted route from the plane conic to a case (b) configuration.

    The conic alone has nonzero invariant.  Adding a tangent line with
    exponent 1 and resolving the tangency (two blow-ups whose
    intermediate stages are not normal crossing, entered as one step),
    then blowing up once more and contracting twice, lands on a
    two-section configuration whose invariant vanishes.  The only step
    that changes the invariant is the exceptional contraction.
    """
    steps = []
    cfg = plane_conic()
    inv = e_invariant(cfg)
    steps.append(PipelineStep("plane conic", cfg, inv, inv - inv, False))

    # conic B, tangent line T, and the two tangency-resolving curves
    cfg1 = Config(
        d=2,
        ambient_hodge=plane() + HodgePoly({(1, 1): 2}),
        curves=(
            Curve("B", 0, 2, Fraction(-1, 2)),
            Curve("E1", 0, -2, Fraction(1, 2)),
            Curve("E2", 0, -1, Fraction(0)),
            Curve("T", 0, -1, Fraction(1)),
        ),
        points=(("B", "E2"), ("E1", "E2"), ("E2", "T")),
    )
    inv1 = e_invariant(cfg1)
    steps.append(PipelineStep("add tangent line, resolve tangency",
                              cfg1, inv1, inv1 - inv, False))

    center = at_point("E1", "E2", new_id="E3")
    exc2 = is_exceptional_center(cfg1, center)
    cfg2 = blow_up(cfg1, center)
    inv2 = e_invariant(cfg2)
    steps.append(PipelineStep("blow up E1 x E2", cfg2, inv2, inv2 - inv1, exc2))

    undo3 = inverse_center(cfg2, "T")
    cfg3 = blow_down(cfg2, "T")
    inv3 = e_invariant(cfg3)
    steps.append(PipelineStep("contract T", cfg3, inv3, inv3 - inv2,
                              is_exceptional_center(cfg3, undo3)))

    undo4 = inverse_center(cfg3, "E2")
    cfg4 = blow_down(cfg3, "E2")
    inv4 = e_invariant(cfg4)
    steps.append(PipelineStep("contract E2", cfg4, inv4, inv4 - inv3,
                              is_exceptional_center(cfg4, undo4)))
    return steps


# ---- random generation ------------------------------------------------


def _random_base(rng):
    case = rng.choice(("a", "b", "c"))
    d = rng.choice((1, 2, 3, 4, 6))
    if case == "a":
        e = rng.randint(0, 3)
        m = rng.randint(2, 5)
        alphas = [Fraction(rng.randint(-2 * d, 2 * d), d) for _ in range(m - 1)]
        alphas.append(Fraction(m - 2 - e) - sum(alphas))
        return hirzebruch_case_a(e, alphas, d)
    if case == "b":
        e = rng.randint(0, 3)
        m = rng.randint(1, 4)
        a1 = Fraction(rng.randint(-2 * d, 2 * d), d)
        if a1 == 0:
            # both sections carry exponent 0; keep them allowed by
            # making all but one or two fibres unit
            if m >= 2 and rng.random() < 0.5:
                a = Fraction(rng.randint(1, 2 * d), d)
                alphas = [a, -a] + [Fraction(1)] * (m - 2)
            else:
                alphas = [Fraction(-1)] + [Fraction(1)] * (m - 1)
        else:
            alphas = [Fraction(rng.randint(-2 * d, 2 * d), d)
                      for _ in range(m - 1)]
            alphas.append(Fraction(m - 2) + a1 * e - sum(alphas))
        return hirzebruch_case_b(e, a1, alphas, d)
    a1 = Fraction(rng.randint(-2 * d, 2 * d) or d, d)
    return case_c_resolved(a1, extra_fibres=rng.randint(0, 2), d=d)


def candidate_centers(config):
    """All on-divisor centers, in a deterministic order: each point, in
    storage order, then each curve, in id order.  The list is kept on
    config and carried through blow_up; each call returns a copy."""
    return list(_centers(config))


def _draw(config, rng):
    """A non-exceptional on-divisor center of config drawn with rng, or
    None when there is none.

    The draw is rng.choice of the non-exceptional candidates in
    candidate order, without listing them: it picks among their number
    and steps the pick past the exceptional positions at or below it,
    so rng makes the same call and the same center comes out.
    """
    centers = _centers(config)
    skip = _exceptional_positions(config)
    n = len(centers) - len(skip)
    if not n:
        return None
    i = rng.choice(range(n))
    for s in skip:
        if s > i:
            break
        i += 1
    return centers[i]


def blowup_chain(config, steps, rng):
    """Yield the configuration after each of up to steps blow-ups of
    config, each at a non-exceptional on-divisor center drawn with rng;
    stop early when no such center is left.  Every yielded
    configuration thus has config's invariant."""
    for _ in range(steps):
        center = _draw(config, rng)
        if center is None:
            return
        config = blow_up(config, center)
        yield config


def random_config(seed, max_blowups=3):
    """Deterministic valid configuration with invariant zero.

    Starts from a random builder instance and applies up to max_blowups
    blow-ups at on-divisor centers, skipping the exceptional pattern so
    the invariant stays zero.  The output always validates, is
    connected, and has nonpositive complement Euler characteristic.
    """
    rng = random.Random(seed)
    for _ in range(24):
        try:
            cfg = _random_base(rng)
            for cfg in blowup_chain(cfg, rng.randint(0, max_blowups), rng):
                pass            # keep the last configuration
            if (validate(cfg).ok and is_connected(cfg)
                    and euler_complement(cfg) <= 0):
                return cfg
        except PvError:
            continue
    raise GeneratorError(f"could not build a configuration for seed {seed}")
