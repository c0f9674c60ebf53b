"""Cache clearing shared by the benches.

clear_caches() clears every functools cache bound in a loaded pvcalc
module, found as perfbench's tracer finds them for its worker's passes,
so a bench that times from cold also clears a cache added later.
"""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import tracer  # noqa: E402  (perfbench/tracer.py, on the path above)


def clear_caches():
    for cache in tracer.lru_caches(tracer.pvcalc_modules()):
        cache.cache_clear()
