"""What a BENCH file (``tests/bench_primitives.py``) records besides its
timings: the machine block, as a delta between two files holds only when
their blocks agree, and no per-round samples."""

import os

import numpy as np
import pytest

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.hookimpl(optionalhook=True)  # tier-1 collects without pytest-benchmark
def pytest_benchmark_update_machine_info(config, machine_info):
    machine_info.pop("node", None)  # a host name identifies no hardware
    builds = np.show_config(mode="dicts")["Build Dependencies"]
    machine_info["fedmt"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_brand": machine_info.get("cpu", {}).get("brand_raw"),
        "numpy": np.__version__,
        "blas": {lib: {key: builds[lib].get(key)
                       for key in ("name", "version", "openblas configuration")}
                 for lib in ("blas", "lapack")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


@pytest.hookimpl(optionalhook=True)
def pytest_benchmark_update_json(config, benchmarks, output_json):
    # the file keeps each benchmark's median, quartiles and rounds, not
    # every round's time
    for bench in output_json["benchmarks"]:
        bench["stats"].pop("data", None)
