import pytest
from hypothesis import HealthCheck, settings

from lambdalab import GenConfig, generate, paper_corpus

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def corpus_1337():
    """The fixed random closed corpus the sweep criteria run over."""
    return generate(GenConfig(seed=1337, size_max=30), 1000)


@pytest.fixture(scope="session")
def paper_terms():
    return dict(paper_corpus())

