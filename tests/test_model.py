"""Network blocks and the assembled two-stream segmenter: shapes along the
stride chain, receptive-field probes, residual identities, hand-counted
parameter formulas."""

import platform

import numpy as np
import pytest

import csdn
from csdn import layers
from csdn.autodiff import AutodiffError, Tensor, no_grad
from csdn.metrics import label_map
from csdn.model import (CSDN, AuxHead, ContextBlock, ConvBNAct, FusionBlock,
                        GELayerS1, GELayerS2, NetworkConfig, SegHead,
                        ShallowNet, StemBlock, count_parameters)
from csdn.phantom import generate_phantom


def rng_(seed):
    return np.random.Generator(np.random.PCG64(seed))


def x32(rng, *shape):
    return Tensor(rng.normal(size=shape).astype(np.float32))


# -- config -------------------------------------------------------------------


def test_config_guards():
    with pytest.raises(ValueError, match="even"):
        NetworkConfig(stem_channels=15)
    with pytest.raises(ValueError, match="at least one layer"):
        NetworkConfig(ge_layers=(2, 0, 4))


def test_preset_parameter_budgets():
    assert count_parameters(NetworkConfig.tiny()) < 100_000
    assert count_parameters(NetworkConfig.micro()) < 10_000
    ref = count_parameters(NetworkConfig.reference())
    assert 1_540_000 <= ref <= 1_880_000


# -- hand-counted parameter formulas ------------------------------------------


def cba_params(i, o, k, groups=1, act=True):
    # conv (no bias) + BN scale/shift + optional per-channel slope
    return o * (i // groups) * k * k + 2 * o + (o if act else 0)


def test_convbnact_count_matches_formula():
    for i, o, k, g, act in ((3, 8, 3, 1, True), (8, 8, 3, 8, False),
                            (16, 4, 1, 1, False)):
        m = ConvBNAct(i, o, k, groups=g, act=act, rng=rng_(0))
        assert m.num_parameters() == cba_params(i, o, k, g, act)


def test_stem_block_count_matches_formula():
    want = (cba_params(12, 16, 3) + cba_params(16, 8, 1) + cba_params(8, 8, 3)
            + cba_params(24, 16, 3))
    assert StemBlock(12, 16, rng_(0)).num_parameters() == want


def test_ge_s2_count_matches_formula():
    e = 16 * 6
    want = (cba_params(16, e, 3) + 2 * cba_params(e, e, 3, groups=e, act=False)
            + cba_params(e, 24, 1, act=False)
            + cba_params(16, 16, 3, groups=16, act=False)
            + cba_params(16, 24, 1, act=False) + 24)
    assert GELayerS2(16, 24, 6, rng_(0)).num_parameters() == want


def test_seg_head_count_matches_formula():
    want = cba_params(80, 80, 3) + (80 * 12 + 12)  # biased 1x1 to 4x classes
    assert SegHead(80, 80, 3, rng_(0)).num_parameters() == want


# -- stride chain -------------------------------------------------------------


def test_downsample_shape():
    net = CSDN(NetworkConfig.micro(), seed=0)
    z = net.downsample(Tensor.zeros((2, 3, 64, 64)))
    assert z.shape == (2, 12, 16, 16)


@pytest.mark.parametrize("size", [64, 128])
def test_tap_and_output_shapes(size):
    cfg = NetworkConfig.micro()
    net = CSDN(cfg, seed=0)
    net.eval()
    x = Tensor.zeros((1, 3, size, size))
    z = net.downsample(x)
    assert z.shape[2] == size // 4
    semantic, taps = net.deep(z)
    side = size // 16  # stem quarters the downsampled map
    assert taps[0].shape == (1, cfg.stem_channels, side, side)
    for tap, c in zip(taps[1:], cfg.ge_stage_channels):
        side = max(1, -(-side // 2))  # each stage halves, rounding up
        assert tap.shape == (1, c, side, side)
    assert semantic.shape == taps[-1].shape
    detail = net.shallow(z)
    assert detail.shape[2] == max(1, size // 32)
    out = net(x)
    assert out.main_logits.shape == (1, 3, size, size)
    assert out.aux_logits == []


def test_aux_heads_only_in_training():
    net = CSDN(NetworkConfig.micro(), seed=0)
    x = x32(rng_(0), 2, 3, 32, 32)
    out = net(x)
    assert len(out.aux_logits) == 4
    for a in out.aux_logits:
        assert a.shape == (2, 3, 32, 32)
    net.eval()
    assert net(x).aux_logits == []


def test_input_guards():
    net = CSDN(NetworkConfig.micro(), seed=0)
    with pytest.raises(ValueError, match="input frames"):
        net(Tensor.zeros((1, 2, 64, 64)))
    with pytest.raises(ValueError, match="multiple of 32"):
        net(Tensor.zeros((1, 3, 48, 64)))


def test_width_projections_only_when_needed():
    ref = CSDN(NetworkConfig.reference(), seed=0)
    assert ref.detail_proj is None  # 80 == 80
    assert ref.semantic_proj is not None  # 58 -> 80
    micro = CSDN(NetworkConfig.micro(), seed=0)
    assert micro.detail_proj is None and micro.semantic_proj is None


# -- block behavior -----------------------------------------------------------


def test_ge_s1_residual_identity_when_projection_zeroed():
    layer = GELayerS1(4, 2, rng_(1))
    layer.eval()
    layer.proj.conv.weight.data[:] = 0.0
    layer.act.alpha.data[:] = 1.0
    x = x32(rng_(2), 1, 4, 8, 8)
    assert np.array_equal(layer(x).data, x.data)


def test_ge_s1_receptive_field_is_local():
    layer = GELayerS1(4, 2, rng_(3))
    layer.eval()
    base = x32(rng_(4), 1, 4, 16, 16)
    bumped = Tensor(base.data.copy())
    bumped.data[0, :, 0, 0] += 1.0
    a, b = layer(base).data, layer(bumped).data
    # two padded 3x3 convs reach at most 2 pixels from the bump
    assert not np.array_equal(a, b)
    assert np.array_equal(a[..., 3:, 3:], b[..., 3:, 3:])


def test_context_block_receptive_field_is_global():
    blk = ContextBlock(4, rng_(5))
    blk.eval()
    base = x32(rng_(6), 1, 4, 16, 16)
    bumped = Tensor(base.data.copy())
    bumped.data[0, :, 0, 0] += 1.0
    a, b = blk(base).data, blk(bumped).data
    assert not np.array_equal(a[..., 15, 15], b[..., 15, 15])


def test_ge_s2_halves_and_widens():
    layer = GELayerS2(6, 10, 2, rng_(7))
    layer.eval()
    out = layer(x32(rng_(8), 2, 6, 16, 16))
    assert out.shape == (2, 10, 8, 8)
    odd = GELayerS2(6, 10, 2, rng_(7))
    odd.eval()
    assert odd(x32(rng_(8), 1, 6, 9, 9)).shape == (1, 10, 5, 5)


def test_stem_quarters_resolution():
    stem = StemBlock(12, 16, rng_(9))
    stem.eval()
    assert stem(x32(rng_(10), 1, 12, 32, 32)).shape == (1, 16, 8, 8)


def test_shallow_net_eighth_resolution():
    net = ShallowNet(12, (8, 10, 12), rng_(11))
    net.eval()
    assert net(x32(rng_(12), 1, 12, 64, 64)).shape == (1, 12, 8, 8)


def test_fusion_validates_inputs():
    fusion = FusionBlock(8, rng_(13))
    fusion.eval()
    detail = x32(rng_(14), 1, 8, 16, 16)
    ok = fusion(detail, x32(rng_(14), 1, 8, 4, 4))
    assert ok.shape == (1, 8, 16, 16)
    with pytest.raises(ValueError, match="1/4"):
        fusion(detail, x32(rng_(14), 1, 8, 8, 8))
    with pytest.raises(ValueError, match="channel width"):
        fusion(detail, x32(rng_(14), 1, 4, 4, 4))


def test_aux_head_shape():
    head = AuxHead(6, 4, 3, rng_(15))
    head.eval()
    assert head(x32(rng_(16), 2, 6, 4, 4), (64, 64)).shape == (2, 3, 64, 64)


# -- whole-network properties -------------------------------------------------


def test_same_seed_same_weights():
    a = CSDN(NetworkConfig.tiny(), seed=3)
    b = CSDN(NetworkConfig.tiny(), seed=3)
    for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)
    c = CSDN(NetworkConfig.tiny(), seed=4)
    diffs = sum(not np.array_equal(ta.data, tc.data)
                for (_, ta), (_, tc) in zip(a.named_parameters(),
                                            c.named_parameters()))
    assert diffs > 0


def test_eval_forward_is_deterministic():
    net = CSDN(NetworkConfig.micro(), seed=0)
    net.eval()
    x = x32(rng_(17), 1, 3, 64, 64)
    y1 = net(x).main_logits.data
    y2 = net(x).main_logits.data
    assert np.array_equal(y1, y2)


def test_count_parameters_equals_store_total():
    cfg = NetworkConfig.tiny()
    net = CSDN(cfg, seed=0)
    assert count_parameters(cfg) == sum(
        t.size() for _, t in net.named_parameters())


# -- eval-mode BN folding -----------------------------------------------------


def randomize_bn(net, seed):
    rng = rng_(seed)
    for name, tns in list(net.named_parameters()) + list(net.named_buffers()):
        shape, dt = tns.shape, tns.dtype
        if name.endswith("running_mean"):
            tns.data = rng.normal(0.0, 0.3, shape).astype(dt)
        elif name.endswith("running_var"):
            tns.data = rng.uniform(0.3, 3.0, shape).astype(dt)
        elif name.endswith("gamma"):
            tns.data = rng.uniform(0.5, 1.5, shape).astype(dt)
        elif name.endswith("beta"):
            tns.data = rng.normal(0.0, 0.2, shape).astype(dt)
    return net


def rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("preset", ["tiny", "desk"])
@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-4), (np.float64, 1e-10)])
def test_folded_eval_matches_unfolded(preset, dtype, tol):
    # the no_grad forward folds BN into the conv; with grad on, conv and BN
    # run apart. Same net, same split, so the folded path has its oracle.
    net = randomize_bn(CSDN(getattr(NetworkConfig, preset)(), seed=5,
                            dtype=dtype), 6)
    net.eval()
    frames = np.stack([generate_phantom(s, 64).frames for s in range(6)])
    x = Tensor(frames.astype(dtype))
    before = {n: tns.data.copy() for n, tns in net.named_parameters()}
    with no_grad():
        folded = net(x).main_logits.data
    unfolded = net(x).main_logits.data
    assert folded.dtype == dtype
    assert rel_err(folded, unfolded) <= tol
    for i in range(len(frames)):
        assert np.array_equal(label_map(folded[i]), label_map(unfolded[i]))
    for n, tns in net.named_parameters():  # the fold leaves weights alone
        assert np.array_equal(tns.data, before[n])


def count_ops(monkeypatch, net, x, op):
    seen = []
    orig = layers.record

    def counting(out, inputs, backward_fn, name):
        seen.append(name)
        return orig(out, inputs, backward_fn, name)

    monkeypatch.setattr(layers, "record", counting)
    net(x)
    monkeypatch.setattr(layers, "record", orig)
    return seen.count(op)


def test_no_grad_eval_folds_all_but_the_context_bn(monkeypatch):
    net = CSDN(NetworkConfig.reference(), seed=0)
    net.eval()
    x = x32(rng_(18), 1, 3, 64, 64)
    with no_grad():
        assert count_ops(monkeypatch, net, x, "batchnorm_eval") == 1
    assert count_ops(monkeypatch, net, x, "batchnorm_eval") == 59


def test_folded_eval_keeps_running_var_guard():
    net = CSDN(NetworkConfig.micro(), seed=0)
    net.eval()
    net.shallow.blocks[0].down.bn.running_var.data[0, 1] = 0.0
    with no_grad(), pytest.raises(AutodiffError, match="running_var"):
        net(x32(rng_(19), 1, 3, 64, 64))


@pytest.mark.skipif(platform.machine() != "x86_64"
                    or platform.libc_ver()[0] != "glibc",
                    reason="subnormals are flushed on x86-64 glibc only")
def test_import_flushes_float32_subnormals():
    # deep sigmoid gates underflow; arithmetic on subnormals is slow
    tiny = np.full(8, 1e-20, dtype=np.float32)
    assert csdn.FLUSH_SUBNORMALS
    assert not (tiny * tiny).any()  # 1e-40 would be subnormal
