"""Independent oracles shared by the tests.

e_euler is the direct Euler-characteristic formula, written stratum by
stratum in Fraction arithmetic with no ring element; the package itself
computes the Euler realization as euler_realize(e_invariant(config)).

full_delta is the blow-up delta as the difference of two whole
invariants; the package sums only the strata the blow-up changes.

reference_chain is the plain draw loop: list every candidate center,
keep those is_exceptional_center rejects, rng.choice among them, blow
up.  models.blowup_chain must draw the same centers without listing
them, and the tests check it against this loop.

chain_config is a shared input, not an oracle: the long blow-up chain
whose invariant sums are large, built by models.blowup_chain.
"""

import random
from fractions import Fraction

from pvcalc.birational import blow_up, is_exceptional_center
from pvcalc.errors import ValidationError
from pvcalc.models import blowup_chain, candidate_centers, random_config
from pvcalc.pvint import e_invariant
from pvcalc.surface import stratum_class, validate


def e_euler(config):
    """Euler-characteristic specialization, computed by the direct formula.

    Each stratum contributes its topological Euler characteristic times
    the product of 1/alpha factors.  Agrees exactly with
    euler_realize(e_invariant(config)).
    """
    rep = validate(config)
    if not rep.ok:
        raise ValidationError("configuration fails validation:\n" + str(rep), rep)
    live = [c for c in config.curves if c.alpha != 0]
    total = Fraction(stratum_class(config, ()).euler())
    for c in live:
        total += stratum_class(config, (c.id,)).euler() / c.alpha
    for i, ci in enumerate(live):
        for cj in live[i + 1:]:
            n = config.intersection(ci.id, cj.id)
            if n:
                total += Fraction(n) / (ci.alpha * cj.alpha)
    for c in config.curves:
        if c.alpha != 0 or c.self_int == 0:
            continue
        t = Fraction(-c.self_int)
        for j in config.neighbors[c.id]:
            t /= config.curve(j).alpha
        total += t
    return total


def full_delta(config, center):
    """e_invariant(blow_up(config, center)) - e_invariant(config), with
    both invariants summed over every stratum."""
    return e_invariant(blow_up(config, center)) - e_invariant(config)


def reference_chain(config, steps, rng):
    """What models.blowup_chain yields, by the plain loop: after each of
    up to steps blow-ups, the configuration, each center rng.choice of
    the non-exceptional candidates; stops when none is left."""
    for _ in range(steps):
        centers = [c for c in candidate_centers(config)
                   if not is_exceptional_center(config, c)]
        if not centers:
            return
        config = blow_up(config, rng.choice(centers))
        yield config


def chain_config(blowups):
    """random_config(3) after `blowups` non-exceptional on-divisor
    blow-ups drawn with random.Random(1); its invariant is zero."""
    cfg = random_config(3)
    for cfg in blowup_chain(cfg, blowups, random.Random(1)):
        pass
    return cfg
