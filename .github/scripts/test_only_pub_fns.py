#!/usr/bin/env python3
"""List the public functions that nothing outside the tests calls.

Production text is each file under crates/*/src and src/lib.rs up to its
first `#[cfg(test)]`, plus the whole of crates/*/examples/*.rs and
benchmark/src/*.rs. Comment lines do not count as uses, and neither does
the line that declares the function. Every `pub fn NAME` declared in
that text whose name never appears as `NAME(` elsewhere in it is printed
as `file: NAME`.

A name declared by more than one `pub fn` is matched by its owner as
well, so a live `CscMatrix::to_dense` cannot hide a dead
`BlockDiagProjector::to_dense`: a use counts only in a file whose
production text also names the declaring `impl` type or, for a free
function, its module (the file stem; the directory for `mod.rs`; the
crate, bare or as `bdsm_<crate>`, for `lib.rs`). Such a name prints as
`file: Owner::NAME`.

A file also names every type that a function it calls is declared to
return (`Self` being the `impl` type), when it names that function's
owner too: `Reducer::builder().build()` names `ReducerBuilder`, and
`server.metrics()` names `ServerMetricsSnapshot` beside `RomServer`, but
an `AtomicBool::load` call does not name `RomArtifact` by way of
`RomArtifact::load`.

Run from the repository root: python3 .github/scripts/test_only_pub_fns.py
"""

import collections
import glob
import os
import re
import sys

FN = re.compile(r"\bfn\s+([A-Za-z_][A-Za-z0-9_]*)")
CALL = re.compile(r"(\bfn\s+)?(?<![A-Za-z0-9_])([A-Za-z_][A-Za-z0-9_]*)\(")
TYPE = re.compile(r"\b[A-Z][A-Za-z0-9_]*")
PUB_FN = re.compile(r"^\s*pub(?:\([^)]*\))?\s+(?:const\s+)?(?:unsafe\s+)?fn\s+([A-Za-z_][A-Za-z0-9_]*)")
IMPL = re.compile(r"^\s*(?:unsafe\s+)?impl\b")
LITERAL = re.compile(r'"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])\'')


def production_lines(path, whole):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if not whole:
        text = text.split("#[cfg(test)]", 1)[0]
    return [l for l in text.splitlines() if not l.lstrip().startswith("//")]


def impl_type(line):
    """The self type an `impl` line opens (last path segment), or None."""
    m = IMPL.match(line)
    if not m:
        return None
    rest = line[m.end():].lstrip()
    if rest.startswith("<"):
        depth = 0
        for i, c in enumerate(rest):
            depth += {"<": 1, ">": -1}.get(c, 0)
            if depth == 0:
                rest = rest[i + 1:]
                break
    head = rest.split("{")[0].split(" where ")[0]
    if " for " in head:
        head = head.split(" for ", 1)[1]
    t = re.match(r"\s*&?(?:'\w+\s+)?(?:mut\s+)?([A-Za-z_][A-Za-z0-9_:]*)", head)
    return t.group(1).split("::")[-1] if t else None


def module_names(path):
    parts = path.split(os.sep)
    stem = os.path.splitext(parts[-1])[0]
    if stem == "mod":
        return [parts[-2]]
    if stem == "lib":
        krate = parts[1] if parts[0] == "crates" else "bdsm"
        return [krate, "bdsm_" + krate]
    return [stem]


def return_types(signature, self_type):
    """The type names in the declared return type of the `fn` that
    `signature` (the declaration's text onward) opens."""
    rest = signature.replace("->", "\0")[FN.search(signature).end():]
    depth = 0
    for i, c in enumerate(rest):
        depth += {"<": 1, ">": -1, "(": 1, ")": -1}.get(c, 0)
        if c == ")" and depth == 0:
            rest = rest[i + 1:]
            break
    head = re.split(r"[{;]|\bwhere\b", rest, maxsplit=1)[0].lstrip()
    if not head.startswith("\0"):
        return set()
    types = set(TYPE.findall(head.replace("\0", " ")))
    if "Self" in types and self_type:
        types = types - {"Self"} | {self_type}
    return types


def declarations(path, lines):
    """`(name, owners, returns, public)` for each `fn` in `lines`, where
    `owners` are the words a file must contain to be able to call that
    declaration and `returns` the types its return type names."""
    depth, impls, out = 0, [], []
    for i, line in enumerate(lines):
        ty = impl_type(line)
        if ty:
            impls.append([ty, depth, False])
        m = FN.search(LITERAL.sub("", line).split("//")[0])
        if m:
            self_type = impls[-1][0] if impls and impls[-1][2] else None
            owners = [self_type] if self_type else module_names(path)
            returns = return_types("\n".join(lines[i:i + 20]), self_type)
            out.append((m.group(1), owners, returns, bool(PUB_FN.match(line))))
        code = LITERAL.sub("", line).split("//")[0]
        depth += code.count("{") - code.count("}")
        if impls and depth > impls[-1][1]:
            impls[-1][2] = True
        while impls and impls[-1][2] and depth <= impls[-1][1]:
            impls.pop()
    return out


def main():
    declaring = sorted(glob.glob("crates/*/src/**/*.rs", recursive=True)) + ["src/lib.rs"]
    whole = sorted(glob.glob("crates/*/examples/*.rs")) + sorted(glob.glob("benchmark/src/**/*.rs", recursive=True))
    texts = {p: production_lines(p, False) for p in declaring}
    texts.update({p: production_lines(p, True) for p in whole})
    joined = {p: "\n".join(lines) for p, lines in texts.items()}

    every = [(path, *d) for path in declaring for d in declarations(path, texts[path])]
    decls = [(path, name, owners) for path, name, owners, _, public in every if public]
    declared = collections.Counter(name for _, name, _ in decls)
    words = {p: set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)) for p, text in joined.items()}
    calls = {p: {m.group(2) for m in CALL.finditer(text) if not m.group(1)} for p, text in joined.items()}

    # Grow each file's named words by the return types of what it calls,
    # until no call adds one.
    for p in texts:
        grown = True
        while grown:
            grown = False
            for _, name, owners, returns, _ in every:
                if not returns <= words[p] and name in calls[p] and words[p] & set(owners):
                    words[p] |= returns
                    grown = True

    found = 0
    for path, name, owners in decls:
        use = re.compile(r"(?<![A-Za-z0-9_])" + name + r"\(")
        decl = re.compile(r"\bfn\s+" + name + r"\b")
        files, shown = texts, name
        if declared[name] > 1:
            shown = f"{owners[0]}::{name}"
            files = {p: lines for p, lines in texts.items() if words[p] & set(owners)}
        if not any(use.search(l) and not decl.search(l) for lines in files.values() for l in lines):
            print(f"{path}: {shown}")
            found += 1
    print(f"{found} public functions with no caller outside the tests", file=sys.stderr)


if __name__ == "__main__":
    main()
