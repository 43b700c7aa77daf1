import pytest

from wildram import ff


@pytest.fixture
def fresh_embeddings():
    """An empty embedding cache for the test, the previous one restored after.

    Embeddings are chosen on first use and may depend on which were chosen
    before (ROADMAP D1), so a test that needs embeddings to commute starts
    from none.
    """
    saved = dict(ff._EMBED_CACHE)
    ff._EMBED_CACHE.clear()
    yield
    ff._EMBED_CACHE.clear()
    ff._EMBED_CACHE.update(saved)
