"""Deterministic filler module for the `scale` workload.

The filler is one MiniLang file, `zzpad/pad.mini`, holding uniquely named
int functions that parse and type-check but are never called.  No corpus
bug has a `zzpad` module, and `zzpad/` sorts after every corpus path, so
the original nodes keep their ids.  Module-scoped presets therefore search
exactly as before; only the per-variant cost that grows with project size
(clone, reindex, type check) goes up.
"""

from __future__ import annotations

import random

FILLER_PATH = "zzpad/pad.mini"
FILLER_FUNCTIONS = 8
STATEMENT_GROUPS = 2


def _function(rng: random.Random, name: str, index: int) -> list[str]:
    lines = [f"fn {name}(a: int, b: int, xs: [int]) -> int {{"]
    names = ["a", "b"]

    def pick() -> str:
        return rng.choice(names)

    for g in range(STATEMENT_GROUPS):
        # the statement shapes depend only on the position, so every seed
        # gives a filler of the same size; the seed picks names and constants
        kind = (index + g) % 4
        c = rng.randrange(1, 97)
        if kind == 0:
            op = rng.choice("+-*")
            lines.append(f"    let v{g} = {pick()} {op} {pick()} + {c};")
            names.append(f"v{g}")
        elif kind == 1:
            x, y = rng.sample(names, 2)
            lines += [
                f"    if ({x} < {y} + {c}) {{",
                f"        {x} = {x} + {y} % {c};",
                "    } else {",
                f"        {y} = {y} - {c};",
                "    }",
            ]
        elif kind == 2:
            x = pick()
            lines += [
                f"    let k{g} = 0;",
                f"    while (k{g} < len(xs)) {{",
                f"        {x} = {x} + xs[k{g}] * {c};",
                f"        k{g} = k{g} + 1;",
                "    }",
            ]
        else:
            x, y = rng.sample(names, 2)
            lines.append(f"    {x} = ({x} + {y}) / {c} - {pick()};")
    lines.append(f"    return {names[-1]};")
    lines.append("}")
    return lines


def filler_source(seed: int) -> str:
    """Canonical-form source of the filler file for a workload seed."""
    rng = random.Random(f"zzpad-{seed}")
    tag = f"{rng.getrandbits(32):08x}"
    chunks = ["\n".join(_function(rng, f"zzpad_{tag}_{i}", i)) for i in range(FILLER_FUNCTIONS)]
    return "\n\n".join(chunks) + "\n"
