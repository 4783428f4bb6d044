import pytest

import geosid.quantizer


@pytest.fixture
def kmeans_fits(monkeypatch):
    """``(vectors, result)`` of every ``geosid.quantizer.kmeans_train`` call
    the test makes, in call order: a training walk's level inputs and fits."""
    fits = []
    real = geosid.quantizer.kmeans_train

    def record(vectors, *args, **kwargs):
        result = real(vectors, *args, **kwargs)
        fits.append((vectors, result))
        return result

    monkeypatch.setattr(geosid.quantizer, "kmeans_train", record)
    return fits
