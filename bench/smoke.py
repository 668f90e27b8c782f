"""Smoke test of the benchmark at a tiny run length.

    python3 bench/smoke.py          # or: python3 -m pytest bench/smoke.py

Checks that every workload prints every metric named in BENCHMARK.json
with its unit, in both modes; that the result line's attempted and failed
repeat across seeds and modes; that the correctness gates fail when the
value under test is perturbed; and that the benchmark refuses to run, and
prints no result, without the package source next to it.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (the benchmark's modules sit next to this file)
from refs import ReferenceCache  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, Api  # noqa: E402

SECONDS = "0.2"


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, bench: Path = BENCH, seed: int = 7):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=bench.parent, capture_output=True, text=True, timeout=600)


def test_spec_matches_benchmark():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


def test_every_metric_printed_with_unit():
    spec = _spec()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[kind]}
        for workload in spec["workloads"]:
            proc = _bench(workload["name"], trace)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            lines = [line.strip() for line in proc.stdout.strip().splitlines()]
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True
            assert result["attempted"] >= 1
            assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
            for name, unit in expected.items():
                assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                           for line in lines[:-1]), (workload["name"], name)


def test_census_counts_repeat():
    """attempted and failed count the fixed census, whatever the seed or mode."""
    counts = set()
    for seed, trace in ((7, 0), (8, 0), (9, 1)):
        proc = _bench("oracle-contour", trace, seed=seed)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.add((result["attempted"], result["failed"]))
    assert len(counts) == 1, counts
    assert counts.pop()[0] == WORKLOADS["oracle-contour"].census


def _problems(workload_name: str, api, count: int) -> list[str]:
    workload = WORKLOADS[workload_name]
    items = workload.inputs(random.Random(7))
    calls = run.closed_loop(workload, api, [next(items) for _ in range(count)])
    refs = ReferenceCache(BENCH / ".refcache" / "refs.json")
    return run.check_outputs(workload, calls, refs)[1]


def test_gates_fail_on_perturbed_values():
    pearcey = run.import_package()
    import pearcey.cli
    import pearcey.tables

    api = run.default_api(pearcey)
    refs = ReferenceCache(BENCH / ".refcache" / "refs.json")

    def stub_oracle(factor):
        def oracle(x, y, config=None):
            return refs.get(x, y) * factor
        return oracle

    def stub_expansion(factor):
        def expansion(x, y, order=5):
            return SimpleNamespace(value=refs.get(x, y) * factor)
        return expansion

    for factor, failing in ((1.0, False), (1.0 + 1e-6, True)):
        stubbed = Api(**{**vars(api), "quadrature": stub_oracle(factor)})
        assert bool(_problems("oracle-contour", stubbed, 12)) is failing

    for factor, failing in ((1.1, False), (1.6, True)):
        stubbed = Api(**{**vars(api), "asymptotic": stub_expansion(factor)})
        assert bool(_problems("expansion-grid", stubbed, 6)) is failing

    # paper-tables: the CLI's own oracle returns the perturbed value
    assert not _problems("paper-tables", api, 16)
    saved = pearcey.cli.pearcey_quadrature, pearcey.tables.pearcey_quadrature
    pearcey.cli.pearcey_quadrature = stub_oracle(1.0 + 1e-6)
    pearcey.tables.pearcey_quadrature = stub_oracle(1.0 + 1e-6)
    try:
        problems = _problems("paper-tables", api, 16)
    finally:
        pearcey.cli.pearcey_quadrature, pearcey.tables.pearcey_quadrature = saved
    assert any(p.startswith("table 1 cell") for p in problems)
    assert any(p.startswith("oracle value") for p in problems)


def test_refuses_without_package_source():
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name,
                        ignore=shutil.ignore_patterns(".refcache", "out", "__pycache__"))
        proc = _bench("expansion-grid", 0, bare / BENCH.name)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
