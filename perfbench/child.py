"""One measured wikicomm process, started fresh by run.py for every sample.

    python3 child.py SPEC_JSON SPAWNED_AT

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it started
this process (a system-wide clock on Linux), so ``setup_s`` covers
interpreter start, importing wikicomm and loading the config: everything a
user waits for before the first stage. The benchmark's own set-up in this
process (hooks, the fake API's data) is timed and left out of it. The fake
API's time in ``get`` and the resident memory its loaded data takes are
reported apart, since the cold crawl's run time and peak memory include them.
"""

import sys
import time

SPAWNED_AT = float(sys.argv[2])

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import wikicomm.cli  # noqa: E402  (what the ``wikicomm`` command imports)


def _resident_mb() -> float:
    """Resident memory of this process now (``ru_maxrss`` is only the peak)."""
    with open("/proc/self/statm", encoding="ascii") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def main() -> int:
    bench_start = time.monotonic()
    with open(sys.argv[1], encoding="utf-8") as f:
        spec = json.load(f)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install_stages()
    if spec["trace"]:
        tracer.install_layers()
    fake = None
    if spec.get("fakeapi"):
        import fakeapi
        import wikicomm.pipeline as pipeline

        rss_before = _resident_mb()
        with open(spec["fakeapi"], encoding="utf-8") as f:
            fake = fakeapi.FakeMediaWiki(json.load(f), spec["seed"])
        fake_rss_mb = _resident_mb() - rss_before
        client_cls = pipeline.MediaWikiClient
        pipeline.MediaWikiClient = lambda config: client_cls(
            config, session=fake, sleep=fake.sleep, clock=fake.clock)
    bench_s = time.monotonic() - bench_start

    code = wikicomm.cli.main(spec["argv"])
    end = time.monotonic()
    first_stage = tracer.first_stage_start() or bench_start + bench_s
    summary = tracer.summary()
    result = {
        "exit": code,
        "setup_s": first_stage - SPAWNED_AT - bench_s,
        "run_s": end - first_stage,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stages": {k[len("stage."):]: v["s"] for k, v in summary["kinds"].items()
                   if k.startswith("stage.")},
        "trace": summary if spec["trace"] else None,
        "absent": summary["absent"],
        "hook_errors": summary["hook_errors"],
    }
    if fake is not None:
        result["api"] = {"requests": fake.requests, "retries": len(fake.refused),
                         "backoff_sim_s": fake.backoff_s, "get_s": fake.get_s,
                         "rss_growth_mb": fake_rss_mb}
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
