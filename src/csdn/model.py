"""Two-stream segmentation network.

A downsampling front end (bicubic half-size resize, then space-to-channel
rearrangement) feeds two parallel branches: a three-block shallow branch
that keeps spatial detail, and a deep branch (stem, three inverted-
bottleneck stages, global-context tail) that trades resolution for
receptive field. A bidirectional gated fusion block merges them and a
sub-pixel head restores full resolution. Training mode adds four
auxiliary heads on the deep branch's intermediate taps.

Blocks build in float32 from the one seeded generator; ``CSDN`` casts the
tree once (``Module.astype``), so a float64 net starts from the float32
init, widened exactly.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, fields

import numpy as np

from . import layers
from .autodiff import Module, Tensor, add, grad_enabled, mul
from .layers import (BatchNorm2d, Conv2d, PReLU, concat_channels,
                     global_avg_pool, pixel_shuffle, pixel_unshuffle, pool2d,
                     resize, sigmoid)

# The task fixes both: three consecutive frames in, and background, EEM
# region and lumen out.
IN_FRAMES = 3
NUM_CLASSES = 3


@dataclass(frozen=True)
class NetworkConfig:
    """The widths and depths a preset sets."""

    shallow_channels: tuple[int, int, int] = (24, 40, 80)
    stem_channels: int = 16
    ge_stage_channels: tuple[int, int, int] = (24, 48, 58)
    ge_expansion: int = 6
    ge_layers: tuple[int, int, int] = (2, 3, 4)
    fusion_channels: int = 80
    head_channels: int = 80
    aux_channels: int = 40

    def __post_init__(self):
        if any(l < 1 for l in self.ge_layers):
            raise ValueError("each stage needs at least one layer")
        for f in fields(self):
            value = getattr(self, f.name)
            if min(value if isinstance(value, tuple) else (value,)) < 1:
                raise ValueError(f"{f.name} must be at least 1, got {value}")
        if self.stem_channels < 2 or self.stem_channels % 2:
            raise ValueError("stem_channels must be even and at least 2 "
                             "(half-width branch)")

    @staticmethod
    def reference() -> "NetworkConfig":
        """Full-size configuration; parameter count lands near 1.71M."""
        return NetworkConfig()

    @staticmethod
    def tiny() -> "NetworkConfig":
        """Gradient-check configuration, under 100K parameters."""
        return NetworkConfig(shallow_channels=(8, 10, 12), stem_channels=8,
                             ge_stage_channels=(8, 12, 16), ge_expansion=2,
                             fusion_channels=12, head_channels=12,
                             aux_channels=8)

    @staticmethod
    def micro() -> "NetworkConfig":
        """Smallest structurally complete configuration, for exhaustive
        finite-difference sweeps."""
        return NetworkConfig(shallow_channels=(3, 4, 4), stem_channels=4,
                             ge_stage_channels=(4, 4, 4), ge_expansion=2,
                             ge_layers=(1, 1, 1), fusion_channels=4,
                             head_channels=4, aux_channels=4)

    @staticmethod
    def desk() -> "NetworkConfig":
        """Mid-size configuration for CPU training runs."""
        return NetworkConfig(shallow_channels=(16, 24, 40), stem_channels=12,
                             ge_stage_channels=(16, 24, 32), ge_expansion=4,
                             fusion_channels=40, head_channels=40,
                             aux_channels=24)


@dataclass
class CsdnOutput:
    main_logits: Tensor
    aux_logits: list[Tensor] = field(default_factory=list)


# ConvBNAct -> its fold(), kept from the block's first no-grad eval call
# until the fold_scope ends; None outside any scope.
_folds: dict | None = None


@contextlib.contextmanager
def fold_scope():
    """Keep each ``ConvBNAct``'s batch-norm fold from its first no-grad
    eval call until the scope ends, also when the body raises. Enter it
    only around repeated forwards; a scope nested in another ends the
    outer memo, whose body then folds on every call. Weights and BN
    statistics must not change inside a scope, or the memo goes stale."""
    global _folds
    _folds = {}
    try:
        yield
    finally:
        _folds = None


class ConvBNAct(Module):
    """conv -> batch norm -> optional PReLU. The conv pads kernel // 2 and
    carries no bias (the BN shift absorbs it).

    BN and PReLU run as one recorded op (``layers.batchnorm`` through
    ``BatchNorm2d``). An eval-mode forward that records no graph instead
    runs one conv with the BN folded in (``fold``), made on every call.
    Inside ``fold_scope``, which the loops that repeat forwards enter, the
    fold is made on the block's first such call and kept until the scope
    ends, so the weights must not change inside it.
    """

    def __init__(self, in_c, out_c, kernel=3, stride=1, groups=1, act=True,
                 rng=None):
        super().__init__()
        self.conv = Conv2d(in_c, out_c, kernel, stride, kernel // 2, groups,
                           bias=False, rng=rng)
        self.bn = BatchNorm2d(out_c)
        self.act = PReLU(out_c) if act else None

    def fold(self) -> tuple[Tensor, Tensor]:
        """(weight * scale, shift): the conv weight and bias of conv then
        eval-mode BN, where scale * x + shift is the BN's eval affine map."""
        scale, shift = self.bn.eval_affine()
        return (Tensor(self.conv.weight.data * scale.reshape(-1, 1, 1, 1)),
                Tensor(shift))

    def __call__(self, x):
        if self.training or grad_enabled():
            alpha = None if self.act is None else self.act.alpha
            return self.bn(self.conv(x), alpha)
        folds = {} if _folds is None else _folds
        if self not in folds:
            folds[self] = self.fold()
        weight, shift = folds[self]
        conv = self.conv
        # layers.conv2d is looked up at call time, as in Conv2d.__call__, so
        # a wrapper installed on it sees the folded convs too.
        y = layers.conv2d(x, weight, shift, conv.stride, conv.padding,
                          conv.groups)
        return self.act(y) if self.act is not None else y


class ShallowBlock(Module):
    """One detail-branch block: stride-2 entry conv plus two stride-1 convs,
    all conv+BN+PReLU."""

    def __init__(self, in_c, out_c, rng):
        super().__init__()
        self.down = ConvBNAct(in_c, out_c, 3, 2, rng=rng)
        self.c1 = ConvBNAct(out_c, out_c, 3, 1, rng=rng)
        self.c2 = ConvBNAct(out_c, out_c, 3, 1, rng=rng)

    def __call__(self, x):
        return self.c2(self.c1(self.down(x)))


class ShallowNet(Module):
    def __init__(self, in_c, channels, rng):
        super().__init__()
        blocks = []
        prev = in_c
        for c in channels:
            blocks.append(ShallowBlock(prev, c, rng))
            prev = c
        self.blocks = blocks

    def __call__(self, x):
        for b in self.blocks:
            x = b(x)
        return x


class StemBlock(Module):
    """Entry of the deep branch: stride-2 conv, then a half-width conv path
    and a max-pool path in parallel, concatenated and fused. Spatial /4."""

    def __init__(self, in_c, stem_c, rng):
        super().__init__()
        half = stem_c // 2
        self.entry = ConvBNAct(in_c, stem_c, 3, 2, rng=rng)
        self.a1 = ConvBNAct(stem_c, half, 1, 1, rng=rng)
        self.a2 = ConvBNAct(half, half, 3, 2, rng=rng)
        self.fuse = ConvBNAct(stem_c + half, stem_c, 3, 1, rng=rng)

    def __call__(self, x):
        x = self.entry(x)
        a = self.a2(self.a1(x))
        b = pool2d("max", x, 3, 2, 1)
        return self.fuse(concat_channels([a, b]))


class GELayerS1(Module):
    """Stride-1 inverted bottleneck: expand 3x3 -> depthwise 3x3 -> project
    1x1, residual onto the input, PReLU after the sum."""

    def __init__(self, c, expansion, rng):
        super().__init__()
        e = c * expansion
        self.expand = ConvBNAct(c, e, 3, 1, rng=rng)
        self.dw = ConvBNAct(e, e, 3, 1, groups=e, act=False, rng=rng)
        self.proj = ConvBNAct(e, c, 1, 1, act=False, rng=rng)
        self.act = PReLU(c)

    def __call__(self, x):
        return self.act(add(x, self.proj(self.dw(self.expand(x)))))


class GELayerS2(Module):
    """Stride-2 inverted bottleneck with a depthwise shortcut; halves the
    spatial size and may change width."""

    def __init__(self, c_in, c_out, expansion, rng):
        super().__init__()
        e = c_in * expansion
        self.expand = ConvBNAct(c_in, e, 3, 1, rng=rng)
        self.dw1 = ConvBNAct(e, e, 3, 2, groups=e, act=False, rng=rng)
        self.dw2 = ConvBNAct(e, e, 3, 1, groups=e, act=False, rng=rng)
        self.proj = ConvBNAct(e, c_out, 1, 1, act=False, rng=rng)
        self.short_dw = ConvBNAct(c_in, c_in, 3, 2, groups=c_in, act=False,
                                  rng=rng)
        self.short_proj = ConvBNAct(c_in, c_out, 1, 1, act=False, rng=rng)
        self.act = PReLU(c_out)

    def __call__(self, x):
        main = self.proj(self.dw2(self.dw1(self.expand(x))))
        short = self.short_proj(self.short_dw(x))
        return self.act(add(main, short))


class ContextBlock(Module):
    """Global-context tail: normalized global average broadcast back onto
    the map, then a 3x3 refinement. Every output pixel sees every input."""

    def __init__(self, c, rng):
        super().__init__()
        self.gap_bn = BatchNorm2d(c)
        self.point = ConvBNAct(c, c, 1, 1, rng=rng)
        self.refine = ConvBNAct(c, c, 3, 1, rng=rng)

    def __call__(self, x):
        g = self.point(self.gap_bn(global_avg_pool(x)))
        return self.refine(add(x, g))


class DeepNet(Module):
    def __init__(self, in_c, cfg: NetworkConfig, rng):
        super().__init__()
        s3, s4, s5 = cfg.ge_stage_channels
        e = cfg.ge_expansion
        self.stem = StemBlock(in_c, cfg.stem_channels, rng)

        def stage(c_in, c_out, layers):
            mods = [GELayerS2(c_in, c_out, e, rng)]
            mods += [GELayerS1(c_out, e, rng) for _ in range(layers - 1)]
            return mods

        self.stage3 = stage(cfg.stem_channels, s3, cfg.ge_layers[0])
        self.stage4 = stage(s3, s4, cfg.ge_layers[1])
        self.stage5 = stage(s4, s5, cfg.ge_layers[2])
        self.context = ContextBlock(s5, rng)

    def __call__(self, x):
        taps = [self.stem(x)]
        y = taps[0]
        for st in (self.stage3, self.stage4, self.stage5):
            for layer in st:
                y = layer(y)
            taps.append(y)
        return self.context(y), taps


class FusionBlock(Module):
    """Bidirectional gated merge of the detail map (/8) and semantic map
    (/32). Each stream gates the other through a sigmoid; the compressed
    product is resampled back to detail resolution and the sum refined."""

    def __init__(self, c, rng):
        super().__init__()
        self.d_dw = ConvBNAct(c, c, 3, 1, groups=c, act=False, rng=rng)
        self.d_pt = Conv2d(c, c, 1, 1, 0, bias=True, rng=rng)
        self.d_down = ConvBNAct(c, c, 3, 2, act=False, rng=rng)
        self.s_gate = ConvBNAct(c, c, 3, 1, act=False, rng=rng)
        self.s_dw = ConvBNAct(c, c, 3, 1, groups=c, act=False, rng=rng)
        self.s_pt = Conv2d(c, c, 1, 1, 0, bias=True, rng=rng)
        self.out = ConvBNAct(c, c, 3, 1, act=False, rng=rng)

    def __call__(self, detail: Tensor, semantic: Tensor) -> Tensor:
        dh, dw = detail.shape[2:]
        expect = (max(1, dh // 4), max(1, dw // 4))
        if semantic.shape[2:] != expect:
            raise ValueError(f"semantic {semantic.shape[2:]} must be 1/4 of "
                             f"detail {detail.shape[2:]}")
        if detail.shape[1] != semantic.shape[1]:
            raise ValueError("fusion inputs must share a channel width")
        d1 = self.d_pt(self.d_dw(detail))
        g1 = sigmoid(resize(self.s_gate(semantic), dh, dw, "bilinear"))
        p1 = mul(d1, g1)
        d2 = pool2d("avg", self.d_down(detail), 3, 2, 1)
        g2 = sigmoid(self.s_pt(self.s_dw(semantic)))
        p2 = resize(mul(d2, g2), dh, dw, "bilinear")
        return self.out(add(p1, p2))


class SegHead(Module):
    """3x3 refinement, 1x1 to 4x classes, sub-pixel x2, bilinear to target."""

    def __init__(self, in_c, head_c, num_classes, rng):
        super().__init__()
        self.conv = ConvBNAct(in_c, head_c, 3, 1, rng=rng)
        self.point = Conv2d(head_c, 4 * num_classes, 1, 1, 0, bias=True,
                            rng=rng)

    def __call__(self, x, target_hw):
        y = pixel_shuffle(self.point(self.conv(x)), 2)
        return resize(y, target_hw[0], target_hw[1], "bilinear")


class AuxHead(Module):
    """Light supervision head for a deep tap: 3x3, 1x1, bilinear to target."""

    def __init__(self, in_c, aux_c, num_classes, rng):
        super().__init__()
        self.conv = ConvBNAct(in_c, aux_c, 3, 1, rng=rng)
        self.point = Conv2d(aux_c, num_classes, 1, 1, 0, bias=True, rng=rng)

    def __call__(self, x, target_hw):
        y = self.point(self.conv(x))
        return resize(y, target_hw[0], target_hw[1], "bilinear")


class CSDN(Module):
    def __init__(self, config: NetworkConfig, seed: int | None = 0,
                 dtype=np.float32):
        """With ``seed=None`` every conv weight starts at zero and nothing
        is drawn: the tree for a caller that fills every tensor."""
        super().__init__()
        self.config = config
        rng = None if seed is None else np.random.Generator(np.random.PCG64(seed))
        down_c = IN_FRAMES * 4  # after the 2x2 space-to-channel step
        c3 = config.shallow_channels[2]
        s5 = config.ge_stage_channels[2]
        f = config.fusion_channels

        self.shallow = ShallowNet(down_c, config.shallow_channels, rng)
        self.deep = DeepNet(down_c, config, rng)
        self.detail_proj = (ConvBNAct(c3, f, 1, 1, act=False, rng=rng)
                            if c3 != f else None)
        self.semantic_proj = (ConvBNAct(s5, f, 1, 1, act=False, rng=rng)
                              if s5 != f else None)
        self.fusion = FusionBlock(f, rng)
        self.head = SegHead(f, config.head_channels, NUM_CLASSES, rng)
        tap_c = [config.stem_channels] + list(config.ge_stage_channels)
        self.aux_heads = [AuxHead(c, config.aux_channels, NUM_CLASSES, rng)
                          for c in tap_c]
        self.astype(dtype)

    def downsample(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        y = resize(x, h // 2, w // 2, "bicubic")
        return pixel_unshuffle(y, 2)

    def __call__(self, x: Tensor) -> CsdnOutput:
        n, c, h, w = x.shape
        if c != IN_FRAMES:
            raise ValueError(f"expected {IN_FRAMES} input frames, got {c}")
        if h % 32 or w % 32:
            raise ValueError(f"input size {h}x{w} must be a multiple of 32")
        z = self.downsample(x)
        detail = self.shallow(z)
        semantic, taps = self.deep(z)
        if self.detail_proj is not None:
            detail = self.detail_proj(detail)
        if self.semantic_proj is not None:
            semantic = self.semantic_proj(semantic)
        fused = self.fusion(detail, semantic)
        main = self.head(fused, (h, w))
        aux = []
        if self.training:
            aux = [head(tap, (h, w))
                   for head, tap in zip(self.aux_heads, taps)]
        return CsdnOutput(main_logits=main, aux_logits=aux)


def count_parameters(config: NetworkConfig) -> int:
    """Number of learnable scalars in a network built from ``config``
    (BN running statistics excluded)."""
    return CSDN(config, seed=None).num_parameters()
