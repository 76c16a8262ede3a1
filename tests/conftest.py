import pytest

from makers import make_cauchy, make_conjugate, make_logistic, make_softmax


@pytest.fixture
def cauchy_model():
    return make_cauchy()


@pytest.fixture
def logistic_model():
    return make_logistic()


@pytest.fixture
def softmax_model():
    return make_softmax()


@pytest.fixture
def conjugate_model():
    return make_conjugate()
