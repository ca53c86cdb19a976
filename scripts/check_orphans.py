#!/usr/bin/env python3
"""Fail on library headers that nothing but their own .cpp and tests use.

A header src/<module>/include/analognf/<module>/<name>.hpp is an orphan
when every file that includes it is either src/<module>/<name>.cpp or a
file under tests/. Such a module is code without a caller: give it one or
delete it. Run from anywhere: python3 scripts/check_orphans.py
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
INCLUDE = re.compile(r'^\s*#\s*include\s+"(analognf/[^"]+)"', re.M)
CALLERS = ("src", "bench", "examples", "perfbench")  # tests/ do not count

includers = {}
for top in CALLERS:
    for path in (ROOT / top).rglob("*.[ch]pp"):
        for header in INCLUDE.findall(path.read_text(errors="replace")):
            includers.setdefault(header, set()).add(path.relative_to(ROOT))

orphans = []
for header in sorted((ROOT / "src").glob("*/include/analognf/*/*.hpp")):
    key = header.relative_to(header.parents[2]).as_posix()
    own = header.parents[3] / (header.stem + ".cpp")
    if not includers.get(key, set()) - {own.relative_to(ROOT)}:
        orphans.append(key)

for key in orphans:
    print(f"orphan header: {key} (no caller outside its own .cpp and tests/)")
sys.exit(1 if orphans else 0)
