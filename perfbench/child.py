"""One benchmark sample: a fresh process that runs `qcausal` stages in order.

    python3 perfbench/child.py --result FILE --run-id ID [--trace] --stages JSON

`--stages` is a JSON list of `qcausal` argument lists, for example
[["gen", ...], ["fit-ps", ...], ["adjust", ...], ["survival", ...]].  Each
goes through `qcausal.cli.main`, the entry point of the `qcausal` console
script, and the next starts only after the previous one has returned 0.
The result file holds the run id, each stage's exit code and its start and
end on the system-wide monotonic clock, the process's peak resident memory,
and, when traced, its spans, which all share the run id.

With `--trace`, the public functions listed in TRACED are replaced, from
outside the package, by wrappers that record one span per call:
[id, parent id, name, start, end, value].  Each stage's `main` call is the
root span `cli.<stage>`.  Spans stay in memory and are written once, with
the result, after the last stage.  `value` is the one number a few layers
report about their result (see VALUES).

Every sample, traced or not, also runs the speed probe (SpeedProbe): a
timer signal every PROBE_INTERVAL_S runs a fixed piece of work of about
0.7 ms and records when it started and how long it took.  run.py turns
those durations into the machine's speed over each phase of the sample
(see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import signal
import sys
import time

import numpy as np

PROBE_INTERVAL_S = 0.05
_PROBE_VECTOR = np.linspace(0.0, 1.0, 64)

# (module, attribute, span name).  qnn imports the circuit functions from
# quantum by name, so they are wrapped where qnn looks them up.
TRACED = (
    ("qnn", "fit", "qnn.fit"),
    ("qnn", "total_loss", "qnn.total_loss"),
    ("qnn", "predict_propensity", "qnn.predict_propensity"),
    ("qnn", "apply_circuit", "quantum.apply_circuit"),
    ("qnn", "expectation", "quantum.expectation"),
    ("qnn", "variance", "quantum.variance"),
    ("qnn", "sample_noisy_expectation", "quantum.sample_noisy_expectation"),
    ("cmaes", "minimize", "cmaes.minimize"),
    ("cmaes", "ask", "cmaes.ask"),
    ("cmaes", "tell", "cmaes.tell"),
    ("adjust", "genetic_match", "adjust.genetic_match"),
    ("adjust", "nearest_neighbor_match", "adjust.nearest_neighbor_match"),
    ("adjust", "compute_weights", "adjust.compute_weights"),
    ("adjust", "balance_report", "adjust.balance_report"),
    ("classical", "fit_logistic", "classical.fit_logistic"),
    ("classical", "fit_gbm", "classical.fit_gbm"),
    ("classical", "predict_gbm", "classical.predict_gbm"),
    ("survival", "kaplan_meier", "survival.kaplan_meier"),
    ("survival", "log_rank", "survival.log_rank"),
    ("survival", "concordance", "survival.concordance"),
    ("survival", "fit_cox", "survival.fit_cox"),
    ("survival", "fit_aalen", "survival.fit_aalen"),
    ("data", "load_cohort", "data.load_cohort"),
    ("data", "generate_synthetic_cohort", "data.generate_synthetic_cohort"),
    ("data", "write_cohort", "data.write_cohort"),
    ("metrics", "roc_and_auc", "metrics.roc_and_auc"),
)


def _match_rate(match) -> float:
    treated = len(match.pairs) + len(match.unmatched_treated)
    return len(match.pairs) / treated if treated else 0.0


# span name -> f(args, result) giving the span's value
VALUES = {
    "qnn.total_loss": lambda args, result: len(args[1]),  # rows scored
    "cmaes.minimize": lambda args, result: result.best_value,
    "adjust.genetic_match": lambda args, result: _match_rate(result),
    "adjust.nearest_neighbor_match": lambda args, result: _match_rate(result),
    "adjust.balance_report": lambda args, result: result.mean_abs_smd_after,
    "survival.fit_cox": lambda args, result: result.n_iter,
    "metrics.roc_and_auc": lambda args, result: result[1],
}


def probe_work() -> int:
    """Fixed work of about 0.7 ms: an interpreter loop, then small numpy calls,
    the two kinds of work the pipeline's hot paths are made of."""
    total = 0
    for i in range(4500):
        total += i * i % 7
    vector = _PROBE_VECTOR
    for _ in range(120):
        vector = np.sqrt(vector * 0.5 + 1.0)
    return total


class SpeedProbe:
    """Times probe_work at a fixed wall-clock interval while the stages run.

    The handler runs in the main thread between bytecodes, so a probe waits
    for a long C call to return; it never runs alongside the stages.
    """

    def __init__(self):
        self.samples = []  # [start, duration] on the system-wide monotonic clock

    def _handler(self, signum, frame):
        start = time.monotonic()
        probe_work()
        self.samples.append([start, time.monotonic() - start])

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Tracer:
    """Records the nested spans of one single-threaded process in memory."""

    def __init__(self):
        self.spans = []  # [id, parent id, name, start, end, value]
        self.stack = []

    def call(self, name, fn, args, kwargs):
        span = [len(self.spans), self.stack[-1] if self.stack else None, name, 0.0, 0.0, None]
        self.spans.append(span)
        self.stack.append(span[0])
        span[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self.stack.pop()
        value_of = VALUES.get(name)
        if value_of is not None:
            span[5] = value_of(args, result)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def install(self):
        for module_name, attr, name in TRACED:
            module = sys.modules[f"qcausal.{module_name}"]
            setattr(module, attr, self.wrap(name, getattr(module, attr)))


def run_stages(stage_argvs, tracer, stages) -> None:
    """Run each stage through qcausal.cli.main until one exits nonzero,
    appending its exit code and its start and end to `stages`."""
    import qcausal.cli

    for stage_argv in stage_argvs:
        start = time.monotonic()
        if tracer is None:
            code = qcausal.cli.main(stage_argv)
        else:
            root = "cli." + stage_argv[0].replace("-", "_")
            code = tracer.call(root, qcausal.cli.main, (stage_argv,), {})
        stages.append({"argv": stage_argv, "code": code, "start": start, "end": time.monotonic()})
        if code != 0:
            break


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("--run-id", required=True, help="identifier shared by this process's spans")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--stages", required=True, help="JSON list of qcausal argument lists")
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    import qcausal.cli
    import qcausal.survival  # noqa: F401  (the CLI imports it lazily; set-up pays for it here)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    stages = []
    try:
        run_stages(json.loads(args.stages), tracer, stages)
    finally:
        probe.stop()

    result = {
        "run_id": args.run_id,
        "stages": stages,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer is not None else [],
        "probe": probe.samples,
    }
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0 if all(stage["code"] == 0 for stage in stages) else 1


if __name__ == "__main__":
    sys.exit(main())
