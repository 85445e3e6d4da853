#!/usr/bin/env python3
"""Tests for check_exports.py: each case writes a small source tree and
checks which exports the guard reports as having no caller.

Usage: test_check_exports.py   (exit status 0 when every case passes)
"""

import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

# Two modules export a value named `step`; only Bar's is ever called.
BASE = {
    "lib/a/foo.mli": "val step : int -> int\nval other : int\n",
    "lib/a/foo.ml": "let step x = x + 1\nlet other = 0\n",
    "lib/a/bar.mli": "val step : int\n",
    "lib/a/bar.ml": "let step = 1\n",
    "lib/a/use_other.ml": "let _ = Foo.other\n",
}

CASES = [
    # (name, extra files, names the guard must report)
    ("a same-named value of another module is no use",
     {"test/t.ml": "let _ = Bar.step\n"}, ["Foo.step"]),
    ("a qualified use counts",
     {"test/t.ml": "let _ = Bar.step + Foo.step 0\n"}, []),
    ("a qualified use through a library wrapper counts",
     {"test/t.ml": "let _ = Bar.step + Repro_a.Foo.step 0\n"}, []),
    ("a bare use in a file that opens the module counts",
     {"test/t.ml": "open Foo\nlet _ = Bar.step + step 0\n"}, []),
    ("a bare use in a file that aliases the module counts",
     {"test/t.ml": "module F = Repro_a.Foo\nlet _ = F.step Bar.step\n"}, []),
    ("a use through a top-level lib alias counts",
     {"lib/b/alias.ml": "module Foo_alias = Foo\n",
      "test/t.ml": "let _ = Alias.Foo_alias.step Bar.step\n"}, []),
    ("a name only in a comment or string is no use",
     {"test/t.ml": "(* Foo.step *)\nlet _ = (Bar.step, \"Foo.step\")\n"},
     ["Foo.step"]),
    ("a use through an interface that includes the module counts",
     {"lib/c/sig.mli": "module type S = sig val go : int end\n",
      "lib/c/sig.ml": "module type S = sig val go : int end\n",
      "lib/c/impl.mli": "include Sig.S\n",
      "lib/c/impl.ml": "let go = 0\n",
      "test/t.ml": "let _ = (Bar.step, Foo.step, Impl.go)\n"}, []),
]


def run(files):
    with tempfile.TemporaryDirectory() as root:
        for path, text in files.items():
            full = os.path.join(root, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w", encoding="utf-8") as fh:
                fh.write(text)
        r = subprocess.run(
            [sys.executable, os.path.join(HERE, "check_exports.py"), root],
            capture_output=True, text=True)
        reported = sorted(
            line.split()[0] for line in r.stdout.splitlines()
            if line.startswith("  "))
        return r.returncode, reported


def main():
    failed = 0
    for name, extra, expect in CASES:
        code, reported = run({**BASE, **extra})
        if reported != sorted(expect) or code != (1 if expect else 0):
            failed += 1
            print("FAIL %s: reported %s (exit %d), expected %s"
                  % (name, reported, code, sorted(expect)))
    if failed:
        print("check_exports: %d of %d cases fail" % (failed, len(CASES)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
