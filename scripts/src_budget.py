#!/usr/bin/env python3
"""How big is ``src/``, and how many options does it have?

ROADMAP aim 2: the same behaviour from the least code — ``src/`` should
shrink, and no PR should grow the option surface without saying so.  This
prints

* lines per ``src/repro/*`` package (``wc -l`` over ``*.py``), and
* the option inventory: the fields of the four config dataclasses, every
  ``REPRO_*`` environment name mentioned under ``src/``, every CLI flag,

and exits non-zero when ``src/`` holds more lines, or the inventory more
options, than the two numbers committed beside this script
(``src_budget.json``: ``src_lines``, ``options``).  A PR that has to grow
either raises that number in the same commit, where a reviewer sees it; one
that shrinks them lowers both (``--update``).

Stdlib only; reads the sources, imports nothing from them.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUDGET = Path(__file__).with_name("src_budget.json")

CONFIG_CLASSES = ("SimConfig", "ChameleonConfig", "RetryPolicy", "ServeConfig")


def count_lines(path: Path) -> int:
    return path.read_bytes().count(b"\n")  # what ``wc -l`` counts


def package_lines() -> dict[str, int]:
    """``src/repro/<package>`` (or top-level module) -> lines."""
    sizes: dict[str, int] = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC / "repro").parts
        name = rel[0] if len(rel) > 1 else "(top level)"
        sizes[name] = sizes.get(name, 0) + count_lines(path)
    return sizes


def option_inventory() -> dict[str, list[str]]:
    fields: dict[str, list[str]] = {}
    env: set[str] = set()
    flags: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        env.update(re.findall(r"\bREPRO_[A-Z0-9_]+\b", text))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef) and node.name in CONFIG_CLASSES:
                fields[node.name] = [
                    stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                ]
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "add_argument":
                flags.update(
                    arg.value for arg in node.args
                    if isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value.startswith("--")
                )
    inventory = {name: fields.get(name, []) for name in CONFIG_CLASSES}
    inventory["REPRO_* env"] = sorted(env)
    inventory["CLI flags"] = sorted(flags)
    return inventory


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="write the current sizes to src_budget.json")
    args = parser.parse_args(argv)

    sizes = package_lines()
    print("lines per package (src/repro):")
    for name, lines in sorted(sizes.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<14}{lines:>7}")
    print(f"  {'src/ total':<14}{sum(sizes.values()):>7}")

    inventory = option_inventory()
    print("options:")
    for name, items in inventory.items():
        print(f"  {name} ({len(items)}): {', '.join(items)}")
    now = {"src_lines": sum(sizes.values()),
           "options": sum(len(v) for v in inventory.values())}
    print(f"  option count: {now['options']}")

    if args.update:
        BUDGET.write_text(json.dumps(now, indent=2) + "\n")
        print(f"budget set to {now}")
        return 0
    budget = json.loads(BUDGET.read_text())
    status = 0
    for key, have in now.items():
        if have > budget[key]:
            print(f"FAIL: {key} is {have}, {have - budget[key]} over the "
                  f"committed budget of {budget[key]} ({BUDGET.name}); "
                  "shrink it, or raise the budget in this commit and say "
                  "why", file=sys.stderr)
            status = 1
        else:
            print(f"ok: {key} is {have}, budget {budget[key]}"
                  + (f" — lower it with --update ({budget[key] - have} to "
                     "spare)" if have < budget[key] else ""))
    return status


if __name__ == "__main__":
    sys.exit(main())
