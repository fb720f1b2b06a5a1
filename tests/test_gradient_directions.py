"""Directional finite differences at the dimensions the CLI trains.

Criterion 01 checks a tiny model one coordinate at a time. At CLI dims
(ModelConfig's defaults: 300 words, 47 targets, over 230k parameters) that
costs too much, so these tests check projections of the gradient instead:
for a unit direction v, g . v against the central difference
(L(theta + eps v) - L(theta - eps v)) / 2 eps, two loss calls whatever the
size. Each direction lies in one named view of ModelParams, so a defect in
any one array's backward shows in its own view.
"""

import sys

import numpy as np
import pytest

from text2triple import model
from text2triple.model import ModelConfig, ModelParams
from text2triple.numerics import make_rng
from text2triple.vocab import TripleVocab

N_WORDS = 300
TVOCAB = TripleVocab(tuple(f"ent:{i}" for i in range(40)), tuple(f"rel:{i}" for i in range(6)))

# eps and the bound come from seeds 0-19 of each of the four setups below.
# At eps=1e-3 the worst relative error over every view but attn_w was
# 1.8e-6. Along attn_w the error is rounding (see
# test_attn_w_error_is_rounding_not_curvature), and 39 of the 40 attention
# cases read at most 4.8e-5. The 40th, B=8 seed 10, reads 9.8e-4, above the
# bound: its g . v is 6.8e-10, and its absolute error, 6.7e-13, is under
# the rounding floor u |L| / eps = 1.0e-12. The seeds the test runs, 3 and
# 17 with attention, read 4.1e-8 and 4.3e-6 there. Over seeds 0-7, a
# larger eps meets curvature: at 1e-2 the bias views read up to 2.7e-4. A
# smaller one meets rounding: at 1e-4 attn_w reads 4.1e-4. A defect shows
# far above the bound: the bridge_b gradient scaled by 1.05 reads 4.8e-2.
EPS = 1e-3
BOUND = 1e-4

# Uneven lengths; a 14-token row cut at max_src_len=10; a row of one token;
# in B=8, a row that repeats two tokens.
LENGTHS = {1: [14], 8: [14, 3, 7, 1, 10, 12, 5, 8]}


def cli_setup(attention, B, seed):
    """CLI-default dims; (config, params, sources, gold)."""
    config = ModelConfig(use_attention=attention, max_src_len=10)
    rng = make_rng(seed)
    params = ModelParams.init(config, N_WORDS, TVOCAB.n_targets, rng)
    sources = [[int(rng.integers(3, N_WORDS)) for _ in range(n)] for n in LENGTHS[B]]
    if B > 1:
        sources[1] = sources[1][:2] * 3
    n_ent = len(TVOCAB.entities)
    gold = np.array([(int(rng.integers(1, 1 + n_ent)),
                      int(rng.integers(1 + n_ent, TVOCAB.n_targets)),
                      int(rng.integers(1, 1 + n_ent))) for _ in sources])
    return config, params, sources, gold


def view_directions(config, rng):
    """(name, v) for each named view of ModelParams, in layout order: v is a
    unit vector over the whole parameter vector, non-zero only in that view."""
    layout = model._param_layout(config, N_WORDS, TVOCAB.n_targets)
    size = sum(int(np.prod(shape)) for _, shape in layout)
    pos = 0
    for name, shape in layout:
        n = int(np.prod(shape))
        v = np.zeros(size)
        v[pos:pos + n] = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        pos += n
        yield name, v


def central_difference(sources, gold, params, config, v, eps):
    def loss(vec):
        return model._loss_and_grads(sources, gold, params.like(vec), config, TVOCAB)[0]

    return (loss(params.vec + eps * v) - loss(params.vec - eps * v)) / (2 * eps)


@pytest.mark.parametrize("B", [1, 8])
@pytest.mark.parametrize("attention", [True, False], ids=["attention", "no-attention"])
def test_directional_derivatives_match_central_differences(attention, B):
    seed = 2 * B + attention
    config, params, sources, gold = cli_setup(attention, B, seed)
    _, grads = model._loss_and_grads(sources, gold, params, config, TVOCAB)
    errors = {}
    for name, v in view_directions(config, make_rng(100 + seed)):
        gv = grads.vec @ v
        fd = central_difference(sources, gold, params, config, v, EPS)
        errors[name] = abs(fd - gv) / max(abs(gv), abs(fd))
    assert len(errors) == (13 if attention else 12)
    assert max(errors.values()) < BOUND, errors


@pytest.mark.parametrize("B", [1, 8])
def test_attn_w_error_is_rounding_not_curvature(B):
    # Along attn_w the relative error at eps=1e-5 reads up to 3.7e-3 (seeds
    # 0-7), far above the other views. It is not a defect, which would not
    # depend on eps, and not curvature, which grows as eps^2. The absolute
    # error stays near the rounding floor of a difference of two losses,
    # u |L| / eps (at most 1.7x it over seeds 0-7 and eps 1e-5 to 1e-3), so
    # it falls 10x for each decade eps grows. It reads large only because at
    # init the near-uniform attention leaves g . v along attn_w at 1e-8 to
    # 2e-6.
    config, params, sources, gold = cli_setup(True, B, 7)
    loss, grads = model._loss_and_grads(sources, gold, params, config, TVOCAB)
    name, v = next((name, v) for name, v in view_directions(config, make_rng(107))
                   if name == "attn_w")
    gv = grads.vec @ v
    assert abs(gv) < 1e-5
    u = sys.float_info.epsilon / 2
    for eps in (1e-6, 1e-5, 1e-4, 1e-3):
        error = abs(central_difference(sources, gold, params, config, v, eps) - gv)
        assert error < 4 * u * abs(loss) / eps, (eps, error)
