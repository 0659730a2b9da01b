#!/usr/bin/env python3
"""Diff the deterministic fields of fresh BENCH_*.json files against a
previous run's artifacts.

Usage:
    check_bench_regression.py BASELINE_DIR FRESH_DIR [NAME...]
    check_bench_regression.py [--tolerance REL] BASELINE_DIR FRESH_DIR
    check_bench_regression.py --self-test

BASELINE_DIR holds the previous run's BENCH_*.json files (any nesting
— artifact downloads place each artifact in its own subdirectory); the
newest match wins when a name appears more than once. FRESH_DIR holds
this run's files. NAMEs limit the comparison (e.g. "BENCH_tenant");
default is every BENCH_*.json present in FRESH_DIR or anywhere under
BASELINE_DIR.

Wall-clock-derived fields are stripped from both sides before
comparing via the declarative STRIP_PATTERNS list below; every
remaining field is deterministic by the benches' own two-pass gates,
so any difference is a real behaviour change, not noise. Every
pattern is "scheme:argument" with schemes key/substr/suffix; an
unknown scheme is a hard error, never a pattern that silently
matches nothing.

--tolerance REL compares numeric leaves with the given relative
tolerance instead of exact equality (default 0 = exact: the
deterministic fields are gated byte-identical by the benches, so
slack is only for ad-hoc comparisons).

--self-test runs the built-in unittest suite (registered with ctest
as test_check_bench_regression).

Exit status: 0 = no drift (or nothing to compare), 1 = drift,
2 = usage error. The check fails closed: an artifact that does not
parse, and one this run did not produce (named on the command line,
or present in the baseline), count as drift. Only a missing baseline
for a fresh file is a skip, so the first run after adding a bench
passes.
"""

import json
import pathlib
import sys

# Declarative wall-clock strip-list: "scheme:argument" per entry.
#   key:NAME     drop fields named exactly NAME
#   substr:TEXT  drop fields whose name contains TEXT
#   suffix:TEXT  drop fields whose name ends with TEXT
STRIP_PATTERNS = [
    "key:sec_per_iter",
    "key:hw_concurrency",
    "substr:wall",
    "substr:speedup",
    "suffix:_sec",      # wall_sec, containment_sec...
    "suffix:_per_sec",  # ops_per_sec, pages_per_sec...
    "suffix:_rate",     # scan_rate, raw_span_rate
    "suffix:_ms",       # elapsed_ms (BENCH_adaptive.json)
]

KNOWN_SCHEMES = ("key", "substr", "suffix")


def compile_strip_list(patterns):
    """Validate the strip-list and return a key -> bool predicate.

    Raises ValueError on an entry with a missing or unknown scheme —
    a typo'd pattern must fail loudly, not silently match nothing.
    """
    compiled = []
    for pattern in patterns:
        scheme, sep, arg = pattern.partition(":")
        if not sep or scheme not in KNOWN_SCHEMES or not arg:
            raise ValueError(
                "bad strip-list pattern %r: expected scheme:argument"
                " with scheme in %s" % (pattern, list(KNOWN_SCHEMES))
            )
        compiled.append((scheme, arg))

    def is_volatile(key):
        for scheme, arg in compiled:
            if scheme == "key" and key == arg:
                return True
            if scheme == "substr" and arg in key:
                return True
            if scheme == "suffix" and key.endswith(arg):
                return True
        return False

    return is_volatile


def strip_volatile(node, is_volatile):
    """Recursively drop volatile keys from a decoded JSON value."""
    if isinstance(node, dict):
        return {
            k: strip_volatile(v, is_volatile)
            for k, v in node.items()
            if not is_volatile(k)
        }
    if isinstance(node, list):
        return [strip_volatile(v, is_volatile) for v in node]
    return node


def numbers_match(old, new, tolerance):
    """Relative-tolerance comparison for numeric leaves."""
    if tolerance <= 0:
        return old == new
    scale = max(abs(old), abs(new))
    return abs(old - new) <= tolerance * max(scale, 1.0)


def is_number(value):
    # bool is an int subclass; True/False must compare exactly.
    return isinstance(value, (int, float)) and not isinstance(
        value, bool
    )


def diff(path, old, new, out, tolerance=0.0):
    """Collect human-readable differences between two stripped trees."""
    if is_number(old) and is_number(new):
        if not numbers_match(old, new, tolerance):
            out.append("  %s: %r -> %r" % (path, old, new))
        return
    if type(old) is not type(new):
        out.append("  %s: type %s -> %s" % (
            path, type(old).__name__, type(new).__name__))
        return
    if isinstance(old, dict):
        for key in sorted(set(old) | set(new)):
            sub = "%s.%s" % (path, key) if path else key
            if key not in old:
                out.append("  %s: added" % sub)
            elif key not in new:
                out.append("  %s: removed" % sub)
            else:
                diff(sub, old[key], new[key], out, tolerance)
    elif isinstance(old, list):
        if len(old) != len(new):
            out.append("  %s: length %d -> %d" % (
                path, len(old), len(new)))
        for i, (a, b) in enumerate(zip(old, new)):
            diff("%s[%d]" % (path, i), a, b, out, tolerance)
    elif old != new:
        out.append("  %s: %r -> %r" % (path, old, new))


def find_baseline(baseline_dir, name):
    """Newest file called `name` anywhere under the baseline dir."""
    matches = sorted(
        baseline_dir.rglob(name),
        key=lambda p: p.stat().st_mtime,
        reverse=True,
    )
    return matches[0] if matches else None


def compare_dirs(baseline_dir, fresh_dir, names, tolerance=0.0):
    """Compare the named artifacts; returns True when any drifted."""
    is_volatile = compile_strip_list(STRIP_PATTERNS)
    drift = False
    for name in names:
        fresh_path = fresh_dir / name
        if not fresh_path.is_file():
            drift = True
            print("%-20s MISSING (not produced by this run)" % name)
            continue
        base_path = find_baseline(baseline_dir, name)
        if base_path is None:
            print("%-20s SKIP (no baseline artifact)" % name)
            continue
        try:
            old = strip_volatile(
                json.loads(base_path.read_text()), is_volatile)
            new = strip_volatile(
                json.loads(fresh_path.read_text()), is_volatile)
        except (OSError, ValueError) as err:
            drift = True
            print("%-20s UNREADABLE (%s)" % (name, err))
            continue
        lines = []
        diff("", old, new, lines, tolerance)
        if lines:
            drift = True
            print("%-20s DRIFT (%d deterministic fields differ):"
                  % (name, len(lines)))
            for line in lines[:50]:
                print(line)
            if len(lines) > 50:
                print("  ... %d more" % (len(lines) - 50))
        else:
            print("%-20s OK" % name)
    return drift


def self_test():
    """The built-in unittest suite (ctest: test_check_bench_regression)."""
    import tempfile
    import unittest

    class StripListTest(unittest.TestCase):
        def test_known_schemes_match(self):
            vol = compile_strip_list(
                ["key:exact", "substr:wall", "suffix:_sec"])
            self.assertTrue(vol("exact"))
            self.assertFalse(vol("exact_not"))
            self.assertTrue(vol("total_wall_time"))
            self.assertTrue(vol("warmup_sec"))
            self.assertFalse(vol("seconds"))
            self.assertFalse(vol("caps_revoked"))

        def test_unknown_scheme_rejected(self):
            for bad in ("regex:.*_sec", "prefix", ":arg", "key:",
                        "glob:*_sec"):
                with self.assertRaises(ValueError):
                    compile_strip_list([bad])

        def test_default_patterns_compile(self):
            vol = compile_strip_list(STRIP_PATTERNS)
            self.assertTrue(vol("wall_sec"))
            self.assertTrue(vol("ops_per_sec"))
            self.assertTrue(vol("scan_rate"))
            self.assertTrue(vol("hw_concurrency"))
            self.assertTrue(vol("elapsed_ms"))
            self.assertFalse(vol("caps_examined"))
            # Deterministic fields the adaptive gate emits must
            # never be stripped as noise.
            self.assertFalse(vol("adaptive_ok"))
            self.assertFalse(vol("best_static"))

        def test_adaptive_artifact_shape(self):
            # BENCH_adaptive.json: elapsed_ms is the only volatile
            # field; the gate rows and verdicts survive the strip.
            vol = compile_strip_list(STRIP_PATTERNS)
            artifact = {
                "bench": "policy_sweep",
                "rows": [{"benchmark": "mcf", "adaptive": 1.01,
                          "best_static": 1.01}],
                "adaptive_ok": True,
                "deterministic": True,
                "elapsed_ms": 1234.5,
            }
            stripped = strip_volatile(artifact, vol)
            self.assertNotIn("elapsed_ms", stripped)
            self.assertEqual(
                stripped["rows"],
                [{"benchmark": "mcf", "adaptive": 1.01,
                  "best_static": 1.01}])
            self.assertTrue(stripped["adaptive_ok"])

        def test_strip_recurses(self):
            vol = compile_strip_list(["suffix:_sec"])
            tree = {"a": 1,
                    "wall_sec": 2.5,
                    "nested": [{"x": 1, "warm_sec": 9}]}
            self.assertEqual(
                strip_volatile(tree, vol),
                {"a": 1, "nested": [{"x": 1}]})

    class DiffTest(unittest.TestCase):
        def lines(self, old, new, tolerance=0.0):
            out = []
            diff("", old, new, out, tolerance)
            return out

        def test_identical_trees_are_clean(self):
            tree = {"a": [1, 2, {"b": "x"}], "c": 1.5}
            self.assertEqual(self.lines(tree, dict(tree)), [])

        def test_added_and_removed_keys_reported(self):
            out = self.lines({"a": 1, "gone": 2},
                             {"a": 1, "fresh": 3})
            self.assertIn("  fresh: added", out)
            self.assertIn("  gone: removed", out)

        def test_changed_value_reported_with_path(self):
            out = self.lines({"outer": {"inner": [1, 2]}},
                             {"outer": {"inner": [1, 3]}})
            self.assertEqual(out, ["  outer.inner[1]: 2 -> 3"])

        def test_list_length_change_reported(self):
            out = self.lines({"v": [1, 2]}, {"v": [1]})
            self.assertIn("  v: length 2 -> 1", out)

        def test_type_change_reported(self):
            out = self.lines({"v": "1"}, {"v": 1})
            self.assertEqual(len(out), 1)
            self.assertIn("type", out[0])

        def test_exact_by_default(self):
            self.assertEqual(
                self.lines({"v": 1.0}, {"v": 1.0 + 1e-12}),
                ["  v: 1.0 -> 1.000000000001"])

        def test_tolerance_accepts_small_drift(self):
            self.assertEqual(
                self.lines({"v": 100.0}, {"v": 100.5},
                           tolerance=1e-2), [])

        def test_tolerance_still_catches_large_drift(self):
            out = self.lines({"v": 100.0}, {"v": 120.0},
                             tolerance=1e-2)
            self.assertEqual(len(out), 1)

        def test_bools_always_exact(self):
            out = self.lines({"ok": True}, {"ok": False},
                             tolerance=1.0)
            self.assertEqual(len(out), 1)

    class CompareDirsTest(unittest.TestCase):
        def test_end_to_end_drift_and_skip(self):
            with tempfile.TemporaryDirectory() as tmp:
                root = pathlib.Path(tmp)
                (root / "base" / "sub").mkdir(parents=True)
                (root / "fresh").mkdir()
                (root / "base" / "sub" / "BENCH_x.json").write_text(
                    '{"caps": 5, "wall_sec": 1.0}')
                (root / "fresh" / "BENCH_x.json").write_text(
                    '{"caps": 5, "wall_sec": 9.0}')
                self.assertFalse(compare_dirs(
                    root / "base", root / "fresh", ["BENCH_x.json"]))
                (root / "fresh" / "BENCH_x.json").write_text(
                    '{"caps": 6, "wall_sec": 1.0}')
                self.assertTrue(compare_dirs(
                    root / "base", root / "fresh", ["BENCH_x.json"]))
                # No baseline: a skip, not a failure.
                (root / "fresh" / "BENCH_y.json").write_text('{"a": 1}')
                self.assertFalse(compare_dirs(
                    root / "base", root / "fresh", ["BENCH_y.json"]))

        def test_unreadable_fresh_artifact_is_drift(self):
            with tempfile.TemporaryDirectory() as tmp:
                root = pathlib.Path(tmp)
                (root / "base").mkdir()
                (root / "fresh").mkdir()
                (root / "base" / "BENCH_x.json").write_text(
                    '{"caps": 5}')
                (root / "fresh" / "BENCH_x.json").write_text(
                    '{"caps": 5,')
                self.assertTrue(compare_dirs(
                    root / "base", root / "fresh", ["BENCH_x.json"]))

        def test_named_missing_artifact_is_drift(self):
            with tempfile.TemporaryDirectory() as tmp:
                root = pathlib.Path(tmp)
                (root / "base").mkdir()
                (root / "fresh").mkdir()
                self.assertTrue(compare_dirs(
                    root / "base", root / "fresh", ["BENCH_gone.json"]))
                self.assertEqual(main(
                    ["prog", str(root / "base"), str(root / "fresh"),
                     "BENCH_gone"]), 1)

        def test_default_mode_checks_baseline_only_artifacts(self):
            with tempfile.TemporaryDirectory() as tmp:
                root = pathlib.Path(tmp)
                (root / "base" / "BENCH_all").mkdir(parents=True)
                (root / "fresh").mkdir()
                for name in ("BENCH_x.json", "BENCH_y.json"):
                    (root / "base" / "BENCH_all" / name).write_text(
                        '{"caps": 5}')
                (root / "fresh" / "BENCH_x.json").write_text(
                    '{"caps": 5}')
                argv = ["prog", str(root / "base"), str(root / "fresh")]
                self.assertEqual(main(argv), 1)
                (root / "fresh" / "BENCH_y.json").write_text(
                    '{"caps": 5}')
                self.assertEqual(main(argv), 0)

    suite = unittest.TestSuite()
    for case in (StripListTest, DiffTest, CompareDirsTest):
        suite.addTests(
            unittest.TestLoader().loadTestsFromTestCase(case))
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


def main(argv):
    argv = list(argv)
    if "--self-test" in argv:
        return self_test()
    tolerance = 0.0
    if "--tolerance" in argv:
        at = argv.index("--tolerance")
        try:
            tolerance = float(argv[at + 1])
        except (IndexError, ValueError):
            sys.stderr.write("--tolerance needs a number\n")
            return 2
        del argv[at:at + 2]
    if len(argv) < 3:
        sys.stderr.write(__doc__)
        return 2
    baseline_dir = pathlib.Path(argv[1])
    fresh_dir = pathlib.Path(argv[2])
    names = [n if n.endswith(".json") else n + ".json"
             for n in argv[3:]]
    if not names:
        names = sorted(
            {p.name for p in fresh_dir.glob("BENCH_*.json")}
            | {p.name for p in baseline_dir.rglob("BENCH_*.json")})
    if not names:
        print("no BENCH_*.json in %s or %s; nothing to compare"
              % (fresh_dir, baseline_dir))
        return 0

    if compare_dirs(baseline_dir, fresh_dir, names, tolerance):
        print("bench artifacts drifted from the previous run (changed "
              "deterministic fields, or a missing or unreadable file); "
              "if intended, this run's artifacts become the new "
              "baseline once merged")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
