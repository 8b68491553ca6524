"""The wikicomm benchmark: seeded corpora, measured runs, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload wide --seed 7 --seconds 45 --trace 0

Workloads (see corpus.SHAPES for their sizes):

* ``wide``  - 500 projects with short talk pages, sized by the reference
  member-count law, plus three of ~4000 members, run offline from pre-seeded
  ingest outputs. Network aggregation rescans every post once per project;
  the largest projects' dense walk matrices set the metrics time and the
  peak memory.
* ``crawl`` - a cold ``ingest`` through an in-process fake MediaWiki API (no
  real sleeping) and an offline replay of it from the warm cache: the only
  workload that runs the client, and the control on which parser, network
  and graph changes must not move ``run_s``.

Each sample is one fresh process per command (two for ``crawl``) doing only
the pipeline, so its peak memory and set-up time are its own. Samples (and,
untraced, a few set-up-only processes) repeat until ``--seconds`` of wall
time have passed; every sample's outputs are checked against the corpus plan
(see check.py). With ``--trace 0`` the last
line holds the end-to-end metrics (medians over samples); with ``--trace 1``
a discarded warm-up sample is followed by pairs of untraced and traced
samples, and it holds the per-layer metrics, the tracing overhead (the
median paired difference) and each layer's share of ``run_s``. Per-layer
metrics a workload does not exercise read 0 and are listed as
``not_exercised``. The line before it records the seed, corpus sizes,
per-stage shares, the fake API's own cost, host and library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0  # a run, its checks and its result must end within 180 s
SETUP_PROBES = 6  # set-up-only processes per end-to-end run, besides the samples
TRACE_PAIRS = 3  # untraced/traced sample pairs a traced run aims for
STAGES = ["ingest", "parse", "build", "quality", "metrics", "regress", "report"]
LAYERS = ["wikitext", "network", "graph", "quality", "stats", "client"]
# The per-layer metrics each workload exercises. The others read 0 by
# construction, not by measurement, and are listed in the info line.
EXERCISED = {
    "wide": lambda name: not name.startswith(("client.", "crawl.", "share.client")),
    "crawl": lambda name: name.startswith(
        ("client.", "crawl.", "trace.", "pipeline.ingest", "share.client", "share.wikitext",
         "share.pipeline_self", "wikitext.members_s")),
}
CHILD_ENV = {
    # One BLAS thread: the pipeline's numpy work is element-wise, and a
    # fixed setting keeps memory and timings comparable between hosts.
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Bench:
    def __init__(self, workload: str, seed: int, started: float) -> None:
        import check
        import corpus

        self.seed = seed
        self.started = started
        self.corpus = corpus.generate(workload, seed)
        self.expected = check.Expected(self.corpus)
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs = self.dir / "inputs"
        self.fakeapi = None
        if workload == "crawl":
            import fakeapi

            self.dir.mkdir(parents=True)
            self.fakeapi = self.dir / "fakeapi.json"
            self.fakeapi.write_text(json.dumps(fakeapi.dumps_of(self.corpus)), encoding="utf-8")
        else:
            self.corpus.write_inputs(self.inputs)
        os.sync()  # the first sample must not pay for writing back the inputs
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("WIKICOMM_")}
        self.env.update(CHILD_ENV, PYTHONPATH=str(ROOT / "src"))
        self.errors: list[str] = []
        self.absent: set[str] = set()
        self.hook_errors: set[str] = set()

    def _spawn(self, name: str, argv: list[str], config: dict, trace: bool,
               fakeapi: Path | None = None) -> dict | None:
        config_path = self.dir / f"{name}.config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        spec = {"argv": ["--config", str(config_path), *argv], "trace": trace,
                "seed": self.seed, "result": str(self.dir / f"{name}.result.json"),
                "fakeapi": str(fakeapi) if fakeapi else None}
        spec_path = self.dir / f"{name}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path), repr(time.monotonic())],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{name}: timed out after {timeout:.0f} s")
            return None
        result_path = Path(spec["result"])
        if proc.returncode != 0 or not result_path.exists():
            self.errors.append(f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        self.absent.update(result["absent"])
        self.hook_errors.update(result["hook_errors"])
        return result

    def sample(self, name: str, trace: bool) -> dict:
        """One checked sample: its processes' results, or ``ok`` False."""
        base = dict(self.corpus.config)
        if self.fakeapi is None:
            out = self.dir / name
            out.mkdir()
            for f in self.inputs.iterdir():
                shutil.copyfile(f, out / f.name)
            config = dict(base, output_dir=str(out), cache_dir=str(out / "cache"))
            results = [self._spawn(name, ["--offline", "run"], config, trace)]
            errors = self._check(self.expected.check_run, out) if results[0] else ["run failed"]
            shutil.rmtree(out)
        else:
            sample_dir = self.dir / name
            cache, cold, warm = sample_dir / "cache", sample_dir / "cold", sample_dir / "warm"
            results = [
                self._spawn(name + "-cold", ["ingest"],
                            dict(base, output_dir=str(cold), cache_dir=str(cache)),
                            trace, self.fakeapi),
                self._spawn(name + "-warm", ["--offline", "ingest"],
                            dict(base, output_dir=str(warm), cache_dir=str(cache)), trace),
            ]
            errors = self._check(self.expected.check_crawl, cold, warm) if all(results) else ["ingest failed"]
            shutil.rmtree(sample_dir)
        # Flush this sample's writes now, so that writeback does not land in
        # the next sample's time.
        os.sync()
        self.errors += [f"{name}: {e}" for e in errors]
        ok = not errors and all(results)
        return {"ok": ok, "trace": trace, "results": results if all(results) else []}

    @staticmethod
    def _check(check, *dirs: Path) -> list[str]:
        try:
            return check(*dirs)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"output check could not read the outputs: {exc!r}"]

    def setup_probe(self, n: int) -> dict | None:
        """Set-up time alone: ``--offline report`` on an empty work dir is the
        cheapest command that still imports wikicomm and loads the config."""
        out = self.dir / f"p{n}"
        result = self._spawn(f"p{n}", ["--offline", "report"],
                             dict(self.corpus.config, output_dir=str(out), cache_dir=str(out)),
                             False)
        shutil.rmtree(out, ignore_errors=True)
        return result


def layer_metrics(sample: dict) -> dict[str, float]:
    """Per-layer metrics of one traced sample (all its processes together)."""
    kinds: dict[str, dict] = {}
    counts: dict[str, float] = {}
    stage_self: dict[str, float] = {}
    layer_s: dict[str, float] = {}
    for result in sample["results"]:
        trace = result["trace"]
        for kind, entry in trace["kinds"].items():
            into = kinds.setdefault(kind, {"calls": 0, "s": 0.0, "max_s": 0.0})
            into["calls"] += entry["calls"]
            into["s"] += entry["s"]
            into["max_s"] = max(into["max_s"], entry["max_s"])
        for key, value in trace["counts"].items():
            counts[key] = max(counts.get(key, 0), value) if key.endswith("_max") else counts.get(key, 0) + value
        for key, value in trace["stage_self_s"].items():
            stage_self[key] = stage_self.get(key, 0.0) + value
        for key, value in trace["layer_s"].items():
            layer = "stats" if key == "special" else key
            layer_s[layer] = layer_s.get(layer, 0.0) + value

    def s(kind: str) -> float:
        return kinds.get(kind, {}).get("s", 0.0)

    def calls(kind: str) -> int:
        return kinds.get(kind, {}).get("calls", 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    c = lambda key: counts.get(key, 0)  # noqa: E731
    run_s = sum(r["run_s"] for r in sample["results"])
    api = [r["api"] for r in sample["results"] if "api" in r]
    requests = sum(a["requests"] for a in api)
    # Pages the crawl fetched; the replay reads the same pages from the cache.
    fetched = sum(r["trace"]["counts"].get("client.pages", 0) for r in sample["results"] if "api" in r)
    m = {
        "wikitext.pages": c("wikitext.pages"),
        "wikitext.bytes": c("wikitext.bytes"),
        "wikitext.posts": c("wikitext.posts"),
        "wikitext.mass_threads": c("wikitext.mass_threads"),
        "wikitext.parse_s": s("wikitext.parse"),
        "wikitext.mb_per_s": ratio(c("wikitext.bytes") / 1e6, s("wikitext.parse")),
        "wikitext.posts_per_s": ratio(c("wikitext.posts"), s("wikitext.parse")),
        "wikitext.write_s": s("wikitext.write"),
        "wikitext.members_s": s("wikitext.members"),
        "network.build_calls": calls("network.build"),
        "network.pairs_scanned": c("network.pairs_scanned"),
        "network.interactions_kept": c("network.interactions_kept"),
        "network.useful_ratio": ratio(c("network.interactions_kept"), c("network.pairs_scanned")),
        "network.build_s": s("network.build"),
        "graph.ei_calls": calls("graph.ei"),
        "graph.ei_s": s("graph.ei"),
        "graph.ei_max_s": kinds.get("graph.ei", {}).get("max_s", 0.0),
        "graph.nodes_max": c("graph.nodes_max"),
        "graph.networks_per_s": ratio(calls("graph.ei"), s("graph.ei")),
        "graph.edge_io_s": s("graph.edge_io"),
        "quality.rows_read": c("quality.rows_read"),
        "quality.read_s": s("quality.read"),
        "quality.score_s": s("quality.score"),
        "stats.fits": calls("stats.fit"),
        "stats.fit_s": s("stats.fit"),
        "stats.tests_s": s("stats.tests"),
        "special.cdf_calls": calls("special.cdf"),
        "special.cdf_s": s("special.cdf"),
        "client.requests": requests,
        "client.pages": fetched,
        "client.requests_per_page": ratio(requests, fetched),
        "client.cache_hits": c("client.cache_hits"),
        "client.cache_misses": c("client.cache_misses"),
        "client.retries": sum(a["retries"] for a in api),
        "client.backoff_sim_s": sum(a["backoff_sim_s"] for a in api),
        "client.cache_put_s": s("client.cache_put"),
        "client.cache_get_s": s("client.cache_get"),
    }
    for stage in STAGES:
        m[f"pipeline.{stage}_s"] = s(f"stage.{stage}")
        m[f"pipeline.{stage}.self_s"] = stage_self.get(stage, 0.0)
    for layer in LAYERS:
        m[f"share.{layer}"] = ratio(layer_s.get(layer, 0.0), run_s)
    m["share.pipeline_self"] = ratio(sum(stage_self.values()), run_s)
    if len(sample["results"]) == 2:
        m["crawl.ingest_s"] = sample["results"][0]["run_s"]
        m["crawl.replay_s"] = sample["results"][1]["run_s"]
    else:
        m["crawl.ingest_s"] = m["crawl.replay_s"] = 0.0
    return m


def fake_api_share(samples: list[dict]) -> dict:
    """What the in-process fake API adds to the cold crawl process: its time
    in ``get`` and the resident memory its loaded dumps take."""
    api = [r["api"] for s in samples for r in s["results"] if "api" in r]
    if not api:
        return {}
    return {"get_s": round(_median([a["get_s"] for a in api]), 4),
            "rss_growth_mb": round(_median([a["rss_growth_mb"] for a in api]), 2)}


def host_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # On SIGTERM, unwind: subprocess.run kills and reaps a running child, and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "wikicomm" / "__init__.py").is_file():
        print(f"no wikicomm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.append(str(ROOT / "tests"))  # oracles.py, the suite's independent walk metrics
    import corpus

    if args.workload not in corpus.SHAPES:
        print(f"unknown workload {args.workload!r}; have {sorted(corpus.SHAPES)}", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = manifest["per_layer" if args.trace else "end_to_end"]

    bench = Bench(args.workload, args.seed, started)
    samples: list[dict] = []
    probes: list[dict | None] = []
    warmup: list[dict] = []
    try:
        longest = 0.0
        if args.trace:
            # Discarded: the first process after the inputs are written runs
            # on colder caches than the ones after it, which would bias the
            # overhead.
            t0 = time.monotonic()
            warmup.append(bench.sample("warmup", False))
            longest = time.monotonic() - t0
        measured = 0.0
        while True:
            t0 = time.monotonic()
            # Traced runs alternate untraced and traced samples, in pairs.
            samples.append(bench.sample(f"s{len(samples)}", bool(args.trace) and len(samples) % 2 == 1))
            while not args.trace and len(probes) < min(SETUP_PROBES, 2 * len(samples)):
                probes.append(bench.setup_probe(len(probes)))
            took = time.monotonic() - t0
            measured += took
            longest = max(longest, took)
            enough = measured >= args.seconds and (not args.trace or len(samples) >= 2 * TRACE_PAIRS)
            if enough or time.monotonic() - started + 1.5 * longest > DEADLINE_S:
                break
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)

    def total(sample: dict) -> float:
        return sum(r["run_s"] for r in sample["results"])

    good = [s for s in samples if s["results"]]
    plain = [s for s in good if not s["trace"]]
    traced = [s for s in good if s["trace"]]
    run_s = [total(s) for s in plain]
    overhead = {}
    if args.trace:
        per_sample = [layer_metrics(s) for s in traced]
        values = {name: _median([m[name] for m in per_sample]) for name in per_sample[0]} if per_sample else {}
        values["trace.run_s"] = _median([total(s) for s in traced])
        # Each traced sample is paired with the untraced one just before it.
        diffs = [total(t) - total(u) for u, t in zip(samples[0::2], samples[1::2])
                 if u["results"] and t["results"]]
        values["trace.overhead_s"] = _median(diffs)
        # Unless every pair agrees in sign, the overhead is inside the
        # host's sample-to-sample noise and is reported as unresolved.
        overhead = {"paired_s": [round(d, 4) for d in diffs],
                    "resolved": len(diffs) >= TRACE_PAIRS and (min(diffs) > 0 or max(diffs) < 0)}
    else:
        values = {
            "run_s": _median(run_s),
            "peak_rss_mb": _median([max(r["rss_mb"] for r in s["results"]) for s in plain]),
            "setup_s": _median([r["setup_s"] for s in plain for r in s["results"]]
                               + [p["setup_s"] for p in probes if p]),
        }
    stage_s = {st: _median([sum(r["stages"].get(st, 0.0) for r in s["results"]) for s in plain])
               for st in STAGES}
    checked = warmup + samples
    failed = sum(1 for s in checked if not s["ok"]) + probes.count(None)
    attempted = len(checked) + len(probes)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "corpus": bench.corpus.sizes,
        "expected_edges": bench.expected.edge_count,
        "kept_projects": len(bench.expected.variables),
        "samples": len(samples), "warmup_samples": len(warmup), "setup_probes": len(probes),
        "fail_ratio": failed / attempted,
        "run_s_samples": [round(v, 4) for v in run_s],
        "stage_share": {st: round(v / _median(run_s), 4) for st, v in stage_s.items()
                        if v and run_s},
        "fake_api": fake_api_share(plain),
        "host": host_info(), "absent_hooks": sorted(bench.absent),
        "hook_errors": sorted(bench.hook_errors), "errors": bench.errors[:5],
    }
    if args.trace:
        info["trace_overhead"] = overhead
        info["not_exercised"] = [spec["name"] for spec in wanted
                                 if not EXERCISED[args.workload](spec["name"])]
    print(json.dumps(info, sort_keys=True))
    if not good:
        print("no sample produced a result", file=sys.stderr)
        return 1
    metrics = {}
    for spec in wanted:
        # A layer whose hooked names the package no longer has reads zero
        # (listed in absent_hooks) rather than dropping out of the result.
        metrics[spec["name"]] = {"value": float(values.get(spec["name"], 0.0)), "unit": spec["unit"]}
    unknown = sorted(set(values) - set(metrics))
    if unknown:
        print(f"metrics missing from BENCHMARK.json: {unknown}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
