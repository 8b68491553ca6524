"""The names the benchmark's tracer patches still exist in the package.

``perfbench/tracer.py`` replaces names in ``wikicomm.pipeline`` and methods
of the client classes. A hooked name that a refactor renames makes its layer
read zero in the benchmark without failing the run; this test fails instead.
It skips when the tracer or its hook list is gone.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import wikicomm.pipeline as pipeline
from wikicomm.client import MediaWikiClient

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Hooks whose names the package dropped before this test was written; the
# tracer lists them as absent and their layers read zero.
RETIRED = {
    "wikicomm.pipeline.parse_talk_page",
    "wikicomm.pipeline.posts_to_records",
    "wikicomm.pipeline.write_posts_jsonl",
    "wikicomm.pipeline.build_network",
    "wikicomm.pipeline.dedupe_assessments",
    "wikicomm.pipeline.count_quality",
    "wikicomm.stats.f_cdf",
    "wikicomm.stats.t_cdf",
}


@pytest.fixture(scope="module")
def tracer():
    if not TRACER.exists():
        pytest.skip("perfbench/tracer.py is absent")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_hook_resolves(tracer):
    hooks = getattr(tracer, "LAYER_HOOKS", None)
    if hooks is None:
        pytest.skip("the tracer hooks no names")
    missing = []
    for path, attr, _ in hooks:
        module, _, cls = path.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        if f"{path}.{attr}" not in RETIRED and not callable(getattr(owner, attr, None)):
            missing.append(f"{path}.{attr}")
    assert missing == []


def test_client_and_stage_names_resolve(tracer):
    assert callable(MediaWikiClient.fetch_pages)
    assert pipeline.MediaWikiClient is MediaWikiClient
    assert list(pipeline.STAGES) == pipeline.STAGE_ORDER == [
        "ingest", "parse", "build", "quality", "metrics", "regress", "report"
    ]
    assert all(callable(stage) for stage in pipeline.STAGES.values())
