"""Float code compiled from source text, once per distinct text.

The viscous stepper splices its right-hand side into its loop as text
(:func:`wfl.viscous_solver.solve_ivp`), and the ramp and sinusoid loadings
compile their scalar ``q`` from the text they hand the stepper.  Numbers
enter by name, as arguments, so runs that differ only in their numbers
share one compiled text, and nothing compiles before its first use.
"""

from __future__ import annotations

import linecache
import re
from functools import lru_cache
from itertools import count

_serial = count(1)
# an identifier that does not start inside a number or after a dot
_NAME = re.compile(r"(?<![\w.])[A-Za-z_]\w*")


@lru_cache(maxsize=64)
def compiled(source: str, name: str):
    """The function ``name`` that ``source`` defines, compiled on first use.

    The cache is keyed on the text; ``compiled.cache_info()`` counts the
    compiles as misses.  The text is registered with :mod:`linecache` under a
    file name of its own, so a traceback through it shows its lines.
    """
    filename = f"<wfl {name} #{next(_serial)}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace: dict = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def renamed(text: str, prefix: str, interface: dict) -> str:
    """``text`` with each identifier in ``interface`` replaced by its value, every other one
    prefixed with ``prefix``."""
    return _NAME.sub(lambda m: interface.get(m[0], prefix + m[0]), text)


def function_of_t(expression: str, constants: dict):
    """``lambda t: expression``, the names in ``constants`` bound to their values."""
    source = f"def make({', '.join(constants)}):\n    return lambda t: {expression}\n"
    return compiled(source, "make")(**constants)
