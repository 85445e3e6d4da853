#!/usr/bin/env python3
"""Fail when a name exported from a library interface has no caller.

For every `val`, `module` and `module type` declared in lib/*/*.mli, some
.ml or .mli file under lib, bin, bench, perfbench, test or examples
other than the declaring module's own .ml/.mli must use the name
through its module.  A file uses `name` of module `Mod` when

- it writes `Mod.name` (or `Alias.name`, where `Alias` is bound at the
  top level of a lib/ .ml to a module expression naming `Mod`, such as
  `module Paged_int = Repro_storage.Paged_store.Make (Key.Int)`), or
- it opens, includes or aliases `Mod` (`open`, `include`, `Mod.( )`,
  `module X = ...Mod...`, a functor parameter `(X : Mod.S)`, directly
  or through such an `Alias`) and the name appears in it as a word.

An interface that writes `include Mod...` exports Mod's names too, so a
use through it, or through an alias of it, counts for `Mod`.

A value that another module happens to share the name of is therefore
not a use.  Comments, string literals and char literals are stripped
before searching, so a name mentioned only in prose does not count.
This is still a text scan, not a resolver: inside a file that aliases
`Mod`, any word `name` counts.

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


MODULE_WORD = re.compile(r"\b[A-Z][A-Za-z0-9_']*")
# `module X = RHS` (or `let module X = RHS in`): the right-hand side
# runs to the end of its line, or is the next line when `=` ends one.
ALIAS = re.compile(r"([ \t]*)(?:let\s+)?module\s+(?:rec\s+)?([A-Z][A-Za-z0-9_']*)\s*=(.*)")
# the module paths a file opens, includes or takes as a functor parameter
OPENED = re.compile(
    r"\b(?:open|include)!?\s+([A-Z][A-Za-z0-9_'.]*)"
    r"|\b([A-Z][A-Za-z0-9_'.]*)\s*\.\s*\("
    r"|\(\s*[A-Z][A-Za-z0-9_']*\s*:\s*([A-Z][A-Za-z0-9_'.]*)")


def aliases(text):
    """(indent, name, module words of the right-hand side) per binding."""
    lines = text.split("\n") + [""]
    for i, line in enumerate(lines[:-1]):
        m = ALIAS.match(line)
        if m:
            rhs = m.group(3) if m.group(3).strip() else lines[i + 1]
            words = set(MODULE_WORD.findall(rhs))
            if not re.match(r"\s*(struct|functor|\()", rhs) and words:
                yield m.group(1), m.group(2), words


def named_modules(text):
    """Module words this file opens, includes or aliases."""
    named = set()
    for m in OPENED.finditer(text):
        named |= set(MODULE_WORD.findall(next(g for g in m.groups() if g)))
    for _, _, words in aliases(text):
        named |= words
    return named


def global_aliases(files, root):
    """name -> modules it stands for, from top-level lib/ aliases, closed
    under aliases of aliases."""
    table = {}
    lib = os.path.join(root, "lib") + os.sep
    for path, text in files.items():
        if path.startswith(lib) and path.endswith(".ml"):
            for indent, name, words in aliases(text):
                if not indent:
                    table.setdefault(name, set()).update(words)
    changed = True
    while changed:
        changed = False
        for name, words in table.items():
            extra = set().union(*(table.get(w, set()) for w in words)) - words
            if extra:
                words |= extra
                changed = True
    return table


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    files = {}
    for path in source_files(root):
        with open(path, encoding="utf-8") as fh:
            files[path] = strip(fh.read())
    words = {p: set(re.findall(r"[A-Za-z_][A-Za-z0-9_']*", t)) for p, t in files.items()}
    table = global_aliases(files, root)

    def expand(mods):
        return mods.union(*(table.get(m, set()) for m in mods))

    named = {p: expand(named_modules(t)) for p, t in files.items()}

    # Page_store -> {Paged_store}: an interface that includes another
    # exports its names too
    includers = {}
    for p, t in files.items():
        if p.endswith(".mli"):
            me = os.path.basename(module_of(p)).capitalize()
            for m in re.finditer(r"\binclude\s+([A-Z][A-Za-z0-9_']*)", t):
                includers.setdefault(m.group(1), set()).add(me)

    interfaces = sorted(
        p for p in files
        if p.endswith(".mli")
        and os.path.dirname(os.path.dirname(p)) == os.path.join(root, "lib"))
    missing, total = [], 0
    for mli in interfaces:
        owner = module_of(mli)
        shown = os.path.basename(owner).capitalize()
        # the module, every interface that includes it, and their aliases
        via = {shown} | includers.get(shown, set())
        heads = sorted(via | {a for a, mods in table.items() if mods & via})
        names = exported_names(files[mli])
        total += len(names)
        for name in names:
            qualified = shown + "." + name
            if qualified in ALLOW:
                continue
            use = re.compile(r"\b(?:%s)\s*\.\s*%s(?![A-Za-z0-9_'])"
                             % ("|".join(map(re.escape, heads)), re.escape(name)))
            if not any(
                    name in ws and (named[p] & via or use.search(files[p]))
                    for p, ws in words.items() if module_of(p) != owner):
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
