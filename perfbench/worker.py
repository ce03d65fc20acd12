"""One benchmark repetition in a fresh interpreter.

Usage: worker.py SPAWNED_AT_NS MODE SPANS_PATH CONFIG...

SPAWNED_AT_NS is the parent's CLOCK_MONOTONIC reading just before it started
this process, so ``setup_s`` covers interpreter start, ``import treeuq`` and
config resolution. MODE is ``setup`` (stop after set-up), ``run`` (untraced)
or ``trace`` (wrap the layers and write spans to SPANS_PATH). Prints one JSON
object on standard output.
"""

import json
import resource
import sys
import time


def main() -> None:
    spawned_at_ns, mode, spans_path, *config_paths = sys.argv[1:]
    import treeuq

    configs = [treeuq.load_config(path) for path in config_paths]
    setup_s = (time.monotonic_ns() - int(spawned_at_ns)) / 1e9
    result = {"setup_s": setup_s, "treeuq_file": treeuq.__file__}
    if mode == "setup":
        import numpy
        import platform
        import scipy

        result["versions"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_name(numpy),
        }
        print(json.dumps(result))
        return

    if mode == "trace":
        from tracing import Tracer

        with Tracer() as tracer:
            result["experiments"] = _run(treeuq, configs, tracer)
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing
        tracer.write_spans(spans_path)
    else:
        result["experiments"] = _run(treeuq, configs, None)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


def _run(treeuq, configs, tracer) -> list[dict]:
    """Run every config once; with a tracer, root spans wrap each call."""
    run_experiment, emit_report = treeuq.run_experiment, treeuq.emit_report
    if tracer is not None:
        run_experiment = tracer.wrap("experiment.run_experiment", run_experiment)
        emit_report = tracer.wrap("experiment.emit_report", emit_report)
    experiments = []
    for index, config in enumerate(configs):
        if tracer is not None:
            tracer.request = index
        start = time.perf_counter()
        report = run_experiment(config)
        elapsed = time.perf_counter() - start
        text = emit_report(report)
        if tracer is not None:
            tracer.drain()
        experiments.append({
            "experiment_s": elapsed,
            "runtime_seconds": report.runtime_seconds,
            "report": text,
            "n_samples": None if report.bayesian is None else report.bayesian.n_samples,
            "folds": None if report.randomized is None else len(report.randomized.folds),
        })
    return experiments


def _blas_name(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    main()
