#!/usr/bin/env python3
"""List the public functions that nothing outside the tests calls.

Production text is each file under crates/*/src and src/lib.rs up to its
first `#[cfg(test)]`, plus the whole of crates/*/examples/*.rs and
benchmark/src/*.rs. Comment lines do not count as uses, and neither does
the line that declares the function. Every `pub fn NAME` declared in
that text whose name never appears as `NAME(` elsewhere in it is printed
as `file: NAME`.

Run from the repository root: python3 .github/scripts/test_only_pub_fns.py
"""

import glob
import re
import sys

PUB_FN = re.compile(r"^\s*pub(?:\([^)]*\))?\s+(?:const\s+)?(?:unsafe\s+)?fn\s+([A-Za-z_][A-Za-z0-9_]*)")


def production_lines(path, whole):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if not whole:
        text = text.split("#[cfg(test)]", 1)[0]
    return [l for l in text.splitlines() if not l.lstrip().startswith("//")]


def main():
    declaring = sorted(glob.glob("crates/*/src/**/*.rs", recursive=True)) + ["src/lib.rs"]
    whole = sorted(glob.glob("crates/*/examples/*.rs")) + sorted(glob.glob("benchmark/src/**/*.rs", recursive=True))
    texts = {p: production_lines(p, False) for p in declaring}
    texts.update({p: production_lines(p, True) for p in whole})

    found = 0
    for path in declaring:
        for line in texts[path]:
            m = PUB_FN.match(line)
            if not m:
                continue
            name = m.group(1)
            use = re.compile(r"(?<![A-Za-z0-9_])" + name + r"\(")
            decl = re.compile(r"\bfn\s+" + name + r"\b")
            if not any(use.search(l) and not decl.search(l) for lines in texts.values() for l in lines):
                print(f"{path}: {name}")
                found += 1
    print(f"{found} public functions with no caller outside the tests", file=sys.stderr)


if __name__ == "__main__":
    main()
