"""Float code compiled from source text, once per distinct text.

Each formula is written once, as text: a geometry's shift, force and
energy (:mod:`wfl.models`), the ramp's and the sinusoid's ``q``
(:mod:`wfl.limit_solver`) and the profile's Fourier sums
(:func:`wfl.profiles.fourier_source`).  The viscous stepper splices the texts
into its loop (:func:`wfl.viscous_solver.solve_ivp`), and :func:`closure`
compiles them for NumPy arrays.  Numbers enter by name, as arguments, so runs that
differ only in their numbers share one compiled text, and nothing compiles
before its first use.
"""

from __future__ import annotations

import linecache
import re
from functools import lru_cache
from itertools import count

_serial = count(1)
# an identifier that does not start inside a number or after a dot
_NAME = re.compile(r"(?<![\w.])[A-Za-z_]\w*")


@lru_cache(maxsize=128)
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


def closure(body: str, arguments: str, constants: dict):
    """``def function(arguments): body``, the names in ``constants`` bound to their values."""
    # str.replace, not textwrap.indent: this runs on each array force evaluation
    lines = body.rstrip("\n").replace("\n", "\n        ")
    source = (f"def make({', '.join(constants)}):\n    def function({arguments}):\n"
              f"        {lines}\n    return function\n")
    return compiled(source, "make")(**constants)
