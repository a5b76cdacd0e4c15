#!/usr/bin/env python3
"""Compiler-judged reachability: which public items of the library crates are reached.

Roots are the non-test code of `exa-bench` (the experiments), the umbrella
crate, the examples and the benchmark (`exabench/`). The script copies the
sources to `target/reach/src`, demotes every `pub` item and `pub use` of the
eleven library crates, `exa-apps` included, to `pub(crate)` (each name of a
`pub use a::{B, C}` list is re-exported on its own), and runs `cargo check`
on the workspace's libs, bins and examples and on `exabench/Cargo.toml`, with
its own target dir `target/reach/target` (the checkout and its builds are
never written). Each privacy error points at the definition it could not
reach, and the item whose `pub` starts at or before that span gets it
back; a re-export of a demoted item (E0364/E0365) names no definition, so
its `use` path is followed to the module that defines it. A type in the
signature of a restored item (`private_interfaces`) is restored too. The
check reruns until it is clean; the `dead_code` warnings then left in the
library crates are the items that nothing but tests reaches, with the
private helpers and fields only they use, and the `unused_imports` warnings
on a demoted `pub use` are the re-exports no root names. Those not on the
"Survivors" list in DESIGN.md are printed per crate, then the total. Run it
from anywhere:

    python3 scripts/reach.py            # counts per crate
    python3 scripts/reach.py --list     # plus every unexplained item
    python3 scripts/reach.py --check    # exit 1 unless the total is 0
"""

import bisect
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, "target", "reach")
SRC = os.path.join(SCRATCH, "src")
LIBRARY_CRATES = ["apps", "core", "fft", "hal", "linalg", "machine", "mpi",
                  "serve", "shoc", "telemetry", "tune"]
SOURCE_DIRS = ("crates/", "vendor/", "src/", "examples/", "tests/", "exabench/")
CHECKS = [["--workspace", "--lib", "--bins", "--examples"],
          ["--manifest-path", "exabench/Cargo.toml"]]
# The `pub` of an item, at the start of a line or after a `;` (a split list).
PUB_ITEM = re.compile(
    r"(?m)(?:^|;)[ \t]*(pub)(?=\s+(?:(?:unsafe|async|const|extern(?:\s+\"\w+\")?)\s+)*"
    r"(?:fn|struct|enum|union|trait|type|const|static|mod|use)\b)")
# Diagnostics whose secondary spans and notes point at the definition of an
# item they could not reach.
PRIVACY = ("E0603", "E0624", "E0616", "E0451", "private_interfaces", "private_bounds")
USE_LIST = re.compile(r"\bpub use ([\w:]+)::\{([^{}]*)\};")
IMPL_TYPE = re.compile(r"\bimpl\b(?:\s*<.*?>)?\s+(?:.*\bfor\s+)?(\w+)")


def sources():
    """Every tracked or new, unignored file the builds read, relative to the
    root."""
    out = subprocess.run(["git", "ls-files", "-co", "--exclude-standard"],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    return [f for f in out.stdout.splitlines()
            if (f in ("Cargo.toml", "Cargo.lock") or f.startswith(SOURCE_DIRS))
            and os.path.isfile(os.path.join(ROOT, f))]


def library_file(rel):
    parts = rel.split("/")
    return len(parts) > 3 and parts[0] == "crates" and parts[1] in LIBRARY_CRATES \
        and parts[2] == "src" and rel.endswith(".rs")


def demote(text, keep):
    """`text` with each name of a `pub use` list re-exported by a statement
    of its own on the name's line, and the `pub` of every item but the
    `keep`-th ones turned into `pub(crate)`; plus the (line, column) at which
    each item's `pub` stands in the result. A re-export named like a module
    of the same file stays `pub`: a use of the demoted name would resolve to
    the module, and rustc would report no privacy error to restore it by."""
    text = USE_LIST.sub(lambda m: re.sub(
        r"[\w:]+(?:\s+as\s+\w+)?", lambda leaf: f"pub use {m.group(1)}::{leaf.group(0)};",
        m.group(2)).replace(",", ""), text)
    mods = set(re.findall(r"(?m)^[ \t]*(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)", text))
    sites, out, at, shifted = [], [], 0, (0, 0)
    for k, m in enumerate(PUB_ITEM.finditer(text)):
        start = m.start(1)
        line = text.count("\n", 0, start) + 1
        shift = shifted[1] if shifted[0] == line else 0
        sites.append((line, start - text.rfind("\n", 0, start) + shift))
        out.append(text[at:m.end(1)])
        at = m.end(1)
        named = re.match(r"pub\s+use\s+[\w:]*?(\w+)\s*;", text[start:])
        if k not in keep and not (named and named.group(1) in mods):
            out.append("(crate)")
            shifted = (line, shift + len("(crate)"))
    return "".join(out) + text[at:], sites


def sync(files, restored):
    """Write the demoted copy, touching only files whose content changed so
    cargo stays incremental; returns {file: sites of its `pub` items}."""
    items = {}
    for rel in files:
        with open(os.path.join(ROOT, rel), encoding="utf-8") as f:
            text = f.read()
        if library_file(rel):
            text, items[rel] = demote(text, restored.get(rel, set()))
        dst = os.path.join(SRC, rel)
        try:
            with open(dst, encoding="utf-8") as f:
                if f.read() == text:
                    continue
        except FileNotFoundError:
            os.makedirs(os.path.dirname(dst), exist_ok=True)
        with open(dst, "w", encoding="utf-8") as f:
            f.write(text)
    keep = set(files)
    for d, _, names in os.walk(SRC):
        for name in names:
            path = os.path.join(d, name)
            if os.path.relpath(path, SRC) not in keep:
                os.remove(path)
    return items


def check():
    """Compiler messages of every check, each with its spans resolved to
    paths relative to the copy."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(SCRATCH, "target"))
    msgs = []
    for args in CHECKS:
        out = subprocess.run(["cargo", "check", "--offline", "--keep-going", "-q",
                              "--message-format=json"] + args,
                             cwd=SRC, env=env, capture_output=True, text=True)
        base = os.path.dirname(os.path.join(SRC, args[-1])) if "--manifest-path" in args else SRC
        for line in out.stdout.splitlines():
            m = json.loads(line)
            if m.get("reason") != "compiler-message":
                continue
            m = m["message"]
            stack = [m]
            while stack:
                node = stack.pop()
                for span in node["spans"]:
                    span["rel"] = os.path.relpath(
                        os.path.realpath(os.path.join(base, span["file_name"])), SRC)
                stack += node["children"]
            msgs.append(m)
        if out.returncode and not any(m["level"] == "error" for m in msgs):
            sys.exit(f"reach: cargo check {' '.join(args)} failed:\n{out.stderr}")
    return msgs


def code(m):
    return (m.get("code") or {}).get("code")


def highlighted(span):
    t = span["text"][0]
    return t["text"][t["highlight_start"] - 1:t["highlight_end"] - 1]


def definition_spans(m):
    """The spans of a privacy error that point at a definition: its secondary
    spans and its notes' spans, never the use site it is reported at."""
    yield from (span for span in m["spans"] if not span["is_primary"])
    for child in m["children"]:
        yield from child["spans"]


def site(items, rel, line, col):
    """(file, k) of the `k`-th `pub` item of `rel`, the last one starting at
    or before (line, col); None outside the library crates."""
    k = bisect.bisect_right(items.get(rel, []), (line, col)) - 1
    return (rel, k) if k >= 0 else None


def module_file(rel, path):
    """The file of module `path` (`a::b`, from a `use`) as seen from `rel`."""
    segs = path.split("::")
    crate = re.fullmatch(r"exa_(\w+)", segs[0])
    if crate and crate.group(1) in LIBRARY_CRATES:
        rel, segs = f"crates/{crate.group(1)}/src/lib.rs", segs[1:]
    for seg in segs:
        base = os.path.dirname(rel) if os.path.basename(rel) in ("lib.rs", "mod.rs") \
            else rel[:-3]
        rel = next((f for f in (f"{base}/{seg}.rs", f"{base}/{seg}/mod.rs")
                    if os.path.isfile(os.path.join(SRC, f))), None)
        if rel is None:
            return None
    return rel


def reexported(items, span):
    """(file, k) of the item the `pub use a::B` at `span` re-exports: the
    demoted item called `B` in module `a`'s file, which a module defines
    once."""
    path, name = re.split(r"\s+as\s+", highlighted(span))[0].rsplit("::", 1)
    target = module_file(span["rel"], path)
    if target is None:
        return None
    with open(os.path.join(SRC, target), encoding="utf-8") as f:
        text = f.read()
    m = re.search(rf"(?m)^pub\(crate\)\s+(?:use\s[^;]*\b|(?:[\w\"]+\s+)*?){name}\b", text)
    return m and site(items, target, text.count("\n", 0, m.start()) + 1, 1)


def survivors():
    """Labels (`name` or `Type::name`) in backticks before the ` — ` of each
    bullet under DESIGN.md's "Survivors" heading."""
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


def unused_reexports(msgs):
    """(file, line, label) of every demoted `pub use` in a library crate that
    nothing reaches, labelled with the name it re-exports."""
    found = set()
    for m in msgs:
        if m["level"] != "warning" or code(m) != "unused_imports":
            continue
        for span in m["spans"]:
            t = span["text"][0] if span["text"] else {"text": "", "highlight_start": 1}
            before = t["text"][:t["highlight_start"] - 1]
            if span["is_primary"] and library_file(span["rel"]) \
                    and re.search(r"\bpub\(crate\) use\s+$", before):
                name = re.split(r"\s+as\s+", highlighted(span))[-1].rsplit("::", 1)[-1]
                found.add((span["rel"], span["line_start"], name))
    return found


def unreached(msgs):
    """(file, line, label) of every unused item or re-export in a library
    crate; a method is labelled with the type of its impl block."""
    found = unused_reexports(msgs)
    for m in msgs:
        if m["level"] != "warning" or code(m) != "dead_code":
            continue
        owner = None
        for span in m["spans"]:
            impl = IMPL_TYPE.search(span["text"][0]["text"]) if span["text"] else None
            if not span["is_primary"] and impl:
                owner = impl.group(1)
        for span in m["spans"]:
            if span["is_primary"] and library_file(span["rel"]):
                label = f"{owner}::{highlighted(span)}" if owner else highlighted(span)
                found.add((span["rel"], span["line_start"], label))
    return sorted(found)


def main():
    files = sources()
    restored = {}
    while True:
        items = sync(files, restored)
        msgs = check()
        errors = [m for m in msgs if m["level"] == "error"]
        found = set()
        for m in msgs:
            if code(m) in ("E0364", "E0365"):
                found |= {reexported(items, s) for s in m["spans"] if s["is_primary"]}
            if code(m) in PRIVACY:
                found |= {site(items, s["rel"], s["line_start"], s["column_start"])
                          for s in definition_spans(m)}
        grew = False
        for rel, k in filter(None, found):
            if k not in restored.setdefault(rel, set()):
                restored[rel].add(k)
                grew = True
        if not grew and errors:
            sys.exit("reach: errors no restored `pub` explains:\n"
                     + "".join(m["rendered"] for m in errors))
        if not grew:
            break

    keep = survivors()
    dead = [(f, n, label) for f, n, label in unreached(msgs) if label not in keep]
    print("unexplained unreached pub items per crate:")
    for crate in LIBRARY_CRATES:
        count = sum(f.split("/")[1] == crate for f, _, _ in dead)
        print(f"  exa-{crate:<10} {count:4d}")
    print(f"  total          {len(dead):4d}")
    if "--list" in sys.argv:
        for f, n, label in dead:
            print(f"{f}:{n}: {label}")
    return 1 if "--check" in sys.argv and dead else 0


if __name__ == "__main__":
    sys.exit(main())
