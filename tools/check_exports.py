#!/usr/bin/env python3
"""Fail when a name exported from a library interface has no caller.

For every `val`, `module` and `module type` declared in lib/*/*.mli, the
name must appear in some .ml or .mli file under lib, bin, bench,
perfbench, test or examples other than the declaring module's own
.ml/.mli.  Comments, string literals and char literals are stripped
before searching, so a name mentioned only in prose does not count.  A
name that another module happens to share counts as used: the check is
a word search, not a resolver.

Usage: check_exports.py [ROOT]   (ROOT defaults to the current directory)

Exit status 0 when every exported name has a caller (or is allowed
below), 1 otherwise, listing each offending Module.name.
"""

import os
import re
import sys

SEARCH_DIRS = ["lib", "bin", "bench", "perfbench", "test", "examples"]

# Module.name -> why it stays exported with no caller in the searched
# code.  Only names that the README or documentation alone shows to
# users belong here.
ALLOW = {
}

IDENT_CHAR = re.compile(r"[A-Za-z0-9_']")


def _skip_string(src, i):
    """src[i] is the opening '"'; return the index after the closing one."""
    i += 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\\":
            i += 2
        elif c == '"':
            return i + 1
        else:
            i += 1
    return n


def _quoted_string(src, i):
    """If a {id|...|id} literal starts at src[i], return its end, else None."""
    m = re.compile(r"\{([a-z_]*)\|").match(src, i)
    if not m:
        return None
    close = "|" + m.group(1) + "}"
    j = src.find(close, m.end())
    return len(src) if j < 0 else j + len(close)


def _char_literal(src, i):
    """If a char literal starts at src[i] (a quote), return its end, else None.

    A quote that follows an identifier character is a prime in that
    identifier (x'), and a quote not closed two characters on is a type
    variable ('a), so neither is a literal."""
    if i > 0 and IDENT_CHAR.match(src[i - 1]):
        return None
    if src.startswith("\\", i + 1):
        m = re.compile(r"'\\([\\'\"ntbr ]|[0-9]{3}|x[0-9A-Fa-f]{2}|o[0-7]{3}|u\{[0-9A-Fa-f]+\})'").match(src, i)
        return m.end() if m else None
    if i + 2 < len(src) and src[i + 2] == "'" and src[i + 1] != "\n":
        return i + 3
    return None


def strip(src):
    """Blank out comments (nested), string, quoted-string and char literals."""
    out = []
    i, n, depth = 0, len(src), 0
    while i < n:
        c = src[i]
        end = None
        if src.startswith("(*", i):
            depth += 1
            end = i + 2
        elif depth > 0 and src.startswith("*)", i):
            depth -= 1
            end = i + 2
        elif c == '"':
            end = _skip_string(src, i)
        elif c == "{":
            end = _quoted_string(src, i)
        elif c == "'":
            end = _char_literal(src, i)
        if end is not None:
            out.append(" ")
            i = end
        else:
            out.append(" " if depth > 0 and c != "\n" else c)
            i += 1
    return "".join(out)


DECL = re.compile(r"(?<!with\s)\b(?:val\s+([a-z_][A-Za-z0-9_']*)|module\s+(?:type\s+)?([A-Z][A-Za-z0-9_']*))")


def exported_names(stripped):
    """Names an interface declares with `val`, `module` or `module type`."""
    return list(dict.fromkeys(m.group(1) or m.group(2) for m in DECL.finditer(stripped)))


def module_of(path):
    """A module's implementation and interface share this key."""
    return os.path.splitext(path)[0]


def source_files(root):
    for d in SEARCH_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, d)):
            dirnames[:] = [x for x in dirnames if not x.startswith(("_build", "."))]
            for f in filenames:
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, f)


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    files = {}
    for path in source_files(root):
        with open(path, encoding="utf-8") as fh:
            files[path] = strip(fh.read())
    words = {p: set(re.findall(r"[A-Za-z_][A-Za-z0-9_']*", t)) for p, t in files.items()}

    interfaces = sorted(
        p for p in files
        if p.endswith(".mli")
        and os.path.dirname(os.path.dirname(p)) == os.path.join(root, "lib"))
    missing, total = [], 0
    for mli in interfaces:
        owner = module_of(mli)
        shown = os.path.basename(owner).capitalize()
        names = exported_names(files[mli])
        total += len(names)
        for name in names:
            qualified = shown + "." + name
            if qualified in ALLOW:
                continue
            if not any(name in ws for p, ws in words.items() if module_of(p) != owner):
                missing.append((mli, qualified))

    if missing:
        print("exported names with no caller outside their module:")
        for mli, qualified in missing:
            print("  %s  (%s)" % (qualified, os.path.relpath(mli, root)))
        print("%d of %d exported names have no caller: delete each, drop it from "
              "its .mli, or allow it in tools/check_exports.py with a reason"
              % (len(missing), total))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
