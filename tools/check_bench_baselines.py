#!/usr/bin/env python3
"""Fail when a doc or bench source names a BENCH_*.json that is not checked in.

.gitignore ignores BENCH_*.json (benches write them into the working
directory), so a baseline counts as checked in only when .gitignore
whitelists it with a `!BENCH_<name>.json` line AND the file is present at the
root of the source tree.  Scanned: README.md, DESIGN.md, EXPERIMENTS.md,
docs/*.md and bench/*.cpp.

    python3 tools/check_bench_baselines.py [SOURCE_ROOT]
"""
import pathlib
import re
import sys


def whitelisted(root):
    """The BENCH_*.json names .gitignore whitelists under `root`."""
    lines = (pathlib.Path(root) / ".gitignore").read_text().splitlines()
    return {line.strip()[1:] for line in lines
            if line.strip().startswith("!BENCH_")}


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else ".")
    whitelisted_names = whitelisted(root)
    files = [root / n for n in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    files += sorted((root / "docs").glob("*.md"))
    files += sorted((root / "bench").glob("*.cpp"))
    problems = []
    for path in files:
        if not path.is_file():
            continue
        text = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for name in re.findall(r"BENCH_\w+\.json", line):
                why = []
                if name not in whitelisted_names:
                    why.append("not whitelisted in .gitignore")
                if not (root / name).is_file():
                    why.append("not in the source tree")
                if why:
                    problems.append(f"{path.relative_to(root)}:{lineno}: "
                                    f"{name} is {' and '.join(why)}")
    for p in problems:
        print(p)
    if problems:
        return 1
    print(f"bench baselines: {len(files)} files scanned; every BENCH_*.json "
          "they name is checked in")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
