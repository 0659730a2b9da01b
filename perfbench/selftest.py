"""Self-tests of the benchmark's own checks.

Run through `python3 perfbench/run.py --self-test`, which builds the
benchmark and runs the C++ policy-wrapper test first.
"""

import json
import unittest

import run


def perturb(text, index):
    """@p text with the value of its index-th `key=value` line changed."""
    lines = text.splitlines(keepends=True)
    key, value = lines[index].rstrip("\n").split("=", 1)
    lines[index] = f"{key}={value}0\n" if value else f"{key}=1\n"
    return "".join(lines)


class PercentileRule(unittest.TestCase):
    def tail(self, n):
        return run.tail_percentile([float(i) for i in range(1, n + 1)])

    def test_needs_ten_samples_beyond(self):
        self.assertEqual(self.tail(19), (0, 0.0))
        self.assertEqual(self.tail(20), (50, 10.0))
        self.assertEqual(self.tail(39), (50, 20.0))
        self.assertEqual(self.tail(40), (75, 30.0))
        self.assertEqual(self.tail(100), (90, 90.0))
        self.assertEqual(self.tail(199), (90, 180.0))
        self.assertEqual(self.tail(200), (95, 190.0))
        self.assertEqual(self.tail(1000), (99, 990.0))
        self.assertEqual(self.tail(100000), (99.99, 99990.0))

    def test_order_does_not_matter(self):
        xs = [float(i) for i in range(1, 101)]
        self.assertEqual(run.tail_percentile(list(reversed(xs))),
                         run.tail_percentile(xs))


class RealRun(unittest.TestCase):
    """Checks against one short traced run of spec_sweep at seed 0."""

    @classmethod
    def setUpClass(cls):
        cls.raw = run.run_binary(["--workload", "spec_sweep", "--seed", "0",
                                  "--seconds", "0", "--trace", "1",
                                  "--reps", "3"])
        cls.reference = json.loads(run.REFERENCE.read_text())
        cls.benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_run_matches_reference(self):
        correct, attempted, failed, errors = run.check_run(
            self.raw, self.reference, 0)
        self.assertEqual(errors, [])
        self.assertTrue(correct)
        self.assertGreater(attempted, 0)
        self.assertEqual(failed, 0)

    def test_one_field_perturbation_is_rejected(self):
        rep = self.raw["reps"][0]
        fields = len(rep["model_fp"].splitlines())
        self.assertGreater(fields, 50)
        for i in range(fields):
            errors = run.check_fingerprint(
                self.reference, "spec_sweep", 0, perturb(rep["model_fp"], i),
                rep["host_fp"])
            self.assertTrue(errors, f"field {i} perturbation accepted")

    def test_traced_repetition_must_match(self):
        raw = json.loads(json.dumps(self.raw))
        raw["reps"][1]["model_fp"] = perturb(raw["reps"][1]["model_fp"], 0)
        correct, attempted, failed, _ = run.check_run(raw, self.reference, 0)
        self.assertFalse(correct)
        self.assertEqual(failed, attempted)

    def test_wrong_seed_is_rejected(self):
        correct, _, _, _ = run.check_run(self.raw, self.reference, 1)
        self.assertFalse(correct)

    def test_metric_names_equal_benchmark_json(self):
        for trace, metrics, units in (
                (0, run.end_to_end(self.raw), run.END_TO_END),
                (1, run.per_layer(self.raw), run.PER_LAYER)):
            self.assertEqual(
                run.metric_names_match(metrics, self.benchmark, trace), [])
            key = "per_layer" if trace else "end_to_end"
            self.assertEqual({m["name"]: m["unit"]
                              for m in self.benchmark[key]}, units)
            # Both directions are checked: an extra or a missing name.
            extra = dict(metrics, bogus=1.0)
            self.assertTrue(
                run.metric_names_match(extra, self.benchmark, trace))
            missing = dict(metrics)
            missing.pop(next(iter(missing)))
            self.assertTrue(
                run.metric_names_match(missing, self.benchmark, trace))

    def test_layers_cover_the_timed_phase(self):
        m = run.per_layer(self.raw)
        self.assertGreater(m["revoke.busy_s"], 0)
        self.assertGreater(m["workload.replay_s"], 0)
        self.assertGreater(m["revoke.sweep_ns_per_page"], 0)
        self.assertLess(abs(m["trace.unattributed_s"]),
                        0.2 * m["trace.timed_s"])


class SerialTwin(unittest.TestCase):
    def test_threaded_revoke_models_its_serial_twin(self):
        args = ["--workload", "threaded_revoke", "--seed", "0",
                "--seconds", "0", "--trace", "0", "--reps", "1"]
        threaded = run.run_binary(args)["reps"][0]
        serial = run.run_binary(args + ["--serial-twin"])["reps"][0]
        self.assertEqual(threaded["model_fp"], serial["model_fp"])
        self.assertNotEqual(threaded["host_fp"], serial["host_fp"])


if __name__ == "__main__":
    unittest.main()
