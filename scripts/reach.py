#!/usr/bin/env python3
"""Transitive name scan: which public items of the library crates are reached.

Roots are the non-test code of `exa-bench` (the experiments), the benchmark
(`exabench/src`) and the examples. An item of one of the eleven library
crates, `exa-apps` included, is *reached* when its name occurs as an
identifier in code that is itself reached; a method is reached by
`Type::name`, or by a `.name` call once its type is reached. Reaching an item makes its body
reached, and reaching a type makes the bodies of its trait impls reached.
Test code (`#[cfg(test)]` items, test-only module files, `tests/`
directories), comments, string literals and `use` lines are never scanned.

The scan matches names, not types, so it is a heuristic: a `.len()` call on
any receiver reaches the `len` of every reached type. It prints, per crate,
the public items that nothing reaches and that are not on the "Survivors"
list in DESIGN.md, then the total. Run it from anywhere:

    python3 scripts/reach.py            # counts per crate
    python3 scripts/reach.py --list     # plus every unexplained item
    python3 scripts/reach.py --check    # exit 1 unless the total is 0
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIBRARY_CRATES = ["apps", "core", "fft", "hal", "linalg", "machine", "mpi",
                  "serve", "shoc", "telemetry", "tune"]
ROOT_DIRS = ["crates/bench/src", "exabench/src", "examples"]

IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
METHOD_CALL = re.compile(r"(?<!\.)\.(?!\.)\s*([A-Za-z_][A-Za-z0-9_]*)")
# `Type::name` and `Type::<T>::name`; the lookahead lets `a::B::c` yield
# both (a, B) and (B, c).
PATH = re.compile(
    r"([A-Za-z_][A-Za-z0-9_]*)\s*(?=(?:::\s*<[^;{}]*?>\s*)?::\s*([A-Za-z_][A-Za-z0-9_]*))")
ITEM = re.compile(r"\b(fn|struct|enum|union|trait|type|const|static|impl|mod)\b")


def blank_comments_and_strings(src):
    """Replace comments, string and char literals by spaces (offsets kept)."""
    out = list(src)
    i, n = 0, len(src)

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = src[i]
        if src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif src.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if src.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif src.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            blank(i, j)
            i = j
        elif c == "r" and re.match(r'r#*"', src[i:i + 8]) and (
                i == 0 or not (src[i - 1].isalnum() or src[i - 1] == "_")):
            hashes = len(re.match(r'r(#*)"', src[i:]).group(1))
            end = src.find('"' + "#" * hashes, i + 2 + hashes)
            j = n if end < 0 else end + 1 + hashes
            blank(i, j)
            i = j
        elif c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            blank(i, j + 1)
            i = j + 1
        elif c == "'":
            m = re.match(r"'(\\.|\\u\{[0-9a-fA-F]+\}|\\x..|[^\\'])'", src[i:])
            if m:
                blank(i, i + m.end())
                i += m.end()
            else:
                i += 1  # a lifetime
        else:
            i += 1
    return "".join(out)


def match_close(text, open_at):
    """Index just past the bracket that closes the one at `open_at`."""
    pairs = {"{": "}", "(": ")", "[": "]"}
    stack = [pairs[text[open_at]]]
    i = open_at + 1
    while i < len(text) and stack:
        c = text[i]
        if c in pairs:
            stack.append(pairs[c])
        elif stack and c == stack[-1]:
            stack.pop()
        i += 1
    return i


def item_end(text, start):
    """End of the item whose keyword is at `start`: its body's `}` or `;`."""
    i, depth = start, 0
    while i < len(text):
        c = text[i]
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif depth == 0 and c == "{":
            return match_close(text, i)
        elif depth == 0 and c == ";":
            return i + 1
        i += 1
    return len(text)


def attr_start(text, kw_at):
    """Start of the item whose keyword is at `kw_at`, with its attributes
    and visibility."""
    i = kw_at
    while True:
        head = text[:i].rstrip()
        m = re.search(r"(pub(\s*\([^)]*\))?|unsafe|async|const|extern|default)$",
                      head)
        if m:
            i = m.start()
            continue
        if head.endswith("]"):
            j = head.rfind("#[")
            if j >= 0:
                i = j
                continue
        return len(head)


def strip_test_code(text):
    """Blank every `#[cfg(test)]` / `#[test]` item. Returns the text and the
    names of test-only `mod x;` declarations."""
    test_mods = []
    for m in reversed(list(re.finditer(r"#\[(cfg\(test\)|test)\]", text))):
        k = ITEM.search(text, m.end())
        if not k:
            continue
        end = item_end(text, k.start())
        if k.group(1) == "mod":
            name = IDENT.match(text, text.find(" ", k.start()) + 1)
            if name and text[end - 1] == ";":
                test_mods.append(name.group(0))
        text = text[:m.start()] + re.sub(r"[^\n]", " ", text[m.start():end]) + text[end:]
    return text, test_mods


def rust_files(rel):
    base = os.path.join(ROOT, rel)
    if os.path.isfile(base):
        return [base]
    files = []
    for d, _, names in os.walk(base):
        files += [os.path.join(d, f) for f in sorted(names) if f.endswith(".rs")]
    return sorted(files)


def load(path):
    with open(path, encoding="utf-8") as f:
        return blank_comments_and_strings(f.read())


def drop_use_lines(text):
    return re.sub(r"(?m)^\s*(pub(\([^)]*\))?\s+)?use\s[^;]*;", "", text)


def library_files():
    """(crate, path, non-test text) for every library source file."""
    out = []
    for crate in LIBRARY_CRATES:
        texts, test_only = {}, set()
        for path in rust_files(f"crates/{crate}/src"):
            text, mods = strip_test_code(load(path))
            texts[path] = text
            test_only |= {os.path.join(os.path.dirname(path), m + ".rs")
                          for m in mods}
        out += [(crate, p, t) for p, t in texts.items() if p not in test_only]
    return out


class Item:
    def __init__(self, crate, path, line, kind, name, owner, public, body):
        self.crate, self.path, self.line, self.kind = crate, path, line, kind
        self.name, self.owner, self.public, self.body = name, owner, public, body

    def label(self):
        return f"{self.owner}::{self.name}" if self.owner else self.name


def impl_self_type(header):
    """`impl<T> Trait for Foo<T>` -> ("Trait", "Foo"); `impl Foo` -> (None, "Foo")."""
    header = re.sub(r"^impl\s*(<[^{]*?>)?", "", header.strip())
    header = re.split(r"\bwhere\b", header)[0]
    trait = None
    if re.search(r"\bfor\b", header):
        trait, header = re.split(r"\bfor\b", header, maxsplit=1)
        names = IDENT.findall(re.sub(r"<.*", "", trait))
        trait = names[-1] if names else None
    names = IDENT.findall(re.sub(r"<.*", "", header.strip()))
    return trait, (names[-1] if names else "?")


def scan_items(crate, path, text, lo, hi, owner, out, impls):
    """Collect items of text[lo:hi]; recurse into impl, mod and trait bodies."""
    i = lo
    while True:
        m = ITEM.search(text, i, hi)
        if not m:
            return
        kind, kw = m.group(1), m.start()
        start = attr_start(text, kw)
        end = min(item_end(text, kw), hi)
        head = text[start:kw]
        public = bool(re.search(r"\bpub\b(?!\s*\((crate|super|self|in)\b)", head))
        brace = text.find("{", kw, end)
        if kind == "impl":
            header = text[kw:brace if brace >= 0 else end]
            trait, ty = impl_self_type(header)
            if trait:
                impls.append((ty, text[kw:end]))
            else:
                scan_items(crate, path, text, brace + 1, end - 1, ty, out, impls)
        elif kind == "mod":
            if brace >= 0:
                scan_items(crate, path, text, brace + 1, end - 1, owner, out, impls)
        else:
            name = IDENT.search(text, m.end())
            if name is None:
                return
            if kind == "const" and name.group(0) == "fn":
                name = IDENT.search(text, name.end())
            line = text.count("\n", 0, kw) + 1
            out.append(Item(crate, path, line, kind, name.group(0), owner, public,
                            text[kw:end]))
        i = end if end > m.end() else m.end()


def survivors():
    """Names in backticks before the ` — ` of each bullet under DESIGN.md's
    "Survivors" heading."""
    with open(os.path.join(ROOT, "DESIGN.md"), encoding="utf-8") as f:
        design = f.read()
    m = re.search(r"(?m)^#+ .*Survivors.*$", design)
    if not m:
        return set()
    section = re.split(r"(?m)^#+ ", design[m.end():])[0]
    names = set()
    for line in section.splitlines():
        if line.lstrip().startswith(("-", "*")):
            names |= set(re.findall(r"`([A-Za-z_][\w:]*)`", line.split(" — ")[0]))
    return names


def main():
    items, impls = [], []
    for crate, path, text in library_files():
        scan_items(crate, path, text, 0, len(text), None, items, impls)
    names, calls, paths = set(), set(), set()

    def reach(text, owner=None):
        text = drop_use_lines(text)
        if owner:
            text = re.sub(r"\bSelf\b", owner, text)
        names.update(IDENT.findall(text))
        calls.update(METHOD_CALL.findall(text))
        paths.update(PATH.findall(text))

    def is_reached(it):
        if not it.owner:
            return it.name in names
        # A method is reached by `Type::name`, or by a `.name` call once its
        # type is reached: `new` alone must not reach every constructor.
        return (it.owner, it.name) in paths or (it.name in calls and it.owner in names)

    for rel in ROOT_DIRS:
        for path in rust_files(rel):
            reach(strip_test_code(load(path))[0])
    reached, impls_done = set(), set()
    changed = True
    while changed:
        changed = False
        for it in items:
            if id(it) not in reached and is_reached(it):
                reached.add(id(it))
                reach(it.body, it.owner)
                changed = True
        for k, (ty, body) in enumerate(impls):
            if k not in impls_done and ty in names:
                impls_done.add(k)
                reach(body, ty)
                changed = True

    keep = survivors()
    dead = [it for it in items if it.public and id(it) not in reached
            and it.label() not in keep and it.name not in keep]
    dead.sort(key=lambda it: (it.crate, it.path, it.line))
    print("unexplained unreached pub items per crate:")
    for crate in LIBRARY_CRATES:
        print(f"  exa-{crate:<10} {sum(it.crate == crate for it in dead):4d}")
    print(f"  total          {len(dead):4d}")
    if "--list" in sys.argv:
        for it in dead:
            rel = os.path.relpath(it.path, ROOT)
            print(f"{rel}:{it.line}: {it.kind} {it.label()}")
    return 1 if "--check" in sys.argv and dead else 0


if __name__ == "__main__":
    sys.exit(main())
