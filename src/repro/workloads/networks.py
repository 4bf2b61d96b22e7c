"""Built-in DNN workloads used throughout the paper's evaluation.

The paper evaluates on ResNet18 (medium tensors), Vision Transformer
(large tensors), MobileNetV3-Small (small tensors), GPT-2 (large language
model), and synthetic maximum-utilisation matrix-vector multiplications.
Layer shapes follow the original publications; where the paper's figures
only depend on the qualitative size class of the workload (e.g. Fig. 14's
"large / medium / small tensor size"), exact parity with every variant of
a network is not required, but the shapes below are the standard ones.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

from repro.utils.errors import WorkloadError
from repro.workloads.layer import (
    ActivationStyle,
    Layer,
    conv2d_layer,
    depthwise_conv2d_layer,
    matmul_layer,
)


@dataclass(frozen=True)
class Network:
    """An ordered collection of DNN layers forming one workload."""

    name: str
    layers: Tuple[Layer, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise WorkloadError(f"network {self.name!r} has no layers")

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def total_macs(self) -> int:
        """Total MACs across all layers."""
        return sum(layer.total_macs for layer in self.layers)

    @property
    def total_weights(self) -> int:
        """Total weight elements across all layers."""
        from repro.workloads.einsum import TensorRole

        return sum(layer.tensor_size(TensorRole.WEIGHTS) for layer in self.layers)

    def layer_named(self, name: str) -> Layer:
        """Look up a layer by name."""
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise WorkloadError(f"network {self.name!r} has no layer named {name!r}")

    def scaled_batch(self, batch: int) -> "Network":
        """Copy of the network with the batch dimension N scaled (where present)."""
        scaled = []
        for layer in self.layers:
            if "N" in layer.einsum.dimensions:
                einsum = layer.einsum.with_dimensions(N=batch)
                scaled.append(
                    Layer(
                        einsum=einsum,
                        input_bits=layer.input_bits,
                        weight_bits=layer.weight_bits,
                        output_bits=layer.output_bits,
                        activation_style=layer.activation_style,
                        weight_sparsity=layer.weight_sparsity,
                    )
                )
            else:
                scaled.append(layer)
        return Network(name=f"{self.name}_batch{batch}", layers=tuple(scaled))


# ----------------------------------------------------------------------
# ResNet18 (He et al., 2016) — 21 weight layers for 224x224 ImageNet input.
# ----------------------------------------------------------------------
def resnet18(batch: int = 1) -> Network:
    """ResNet18 for 224x224 inputs: 20 conv layers + final FC (21 layers).

    Downsample (1x1 stride-2 projection) convolutions of the residual
    branches are included, matching the 21-layer count in the paper's
    Fig. 6.
    """
    layers: List[Layer] = [
        conv2d_layer("conv1", 3, 64, 112, 112, 7, batch,
                     activation_style=ActivationStyle.IMAGE_DENSE_UNSIGNED),
        # Stage 1: two basic blocks at 56x56, 64 channels.
        conv2d_layer("conv2_1a", 64, 64, 56, 56, 3, batch),
        conv2d_layer("conv2_1b", 64, 64, 56, 56, 3, batch),
        conv2d_layer("conv2_2a", 64, 64, 56, 56, 3, batch),
        conv2d_layer("conv2_2b", 64, 64, 56, 56, 3, batch),
        # Stage 2: 128 channels at 28x28 (first block downsamples).
        conv2d_layer("conv3_1a", 64, 128, 28, 28, 3, batch),
        conv2d_layer("conv3_1b", 128, 128, 28, 28, 3, batch),
        conv2d_layer("conv3_ds", 64, 128, 28, 28, 1, batch),
        conv2d_layer("conv3_2a", 128, 128, 28, 28, 3, batch),
        conv2d_layer("conv3_2b", 128, 128, 28, 28, 3, batch),
        # Stage 3: 256 channels at 14x14.
        conv2d_layer("conv4_1a", 128, 256, 14, 14, 3, batch),
        conv2d_layer("conv4_1b", 256, 256, 14, 14, 3, batch),
        conv2d_layer("conv4_ds", 128, 256, 14, 14, 1, batch),
        conv2d_layer("conv4_2a", 256, 256, 14, 14, 3, batch),
        conv2d_layer("conv4_2b", 256, 256, 14, 14, 3, batch),
        # Stage 4: 512 channels at 7x7.
        conv2d_layer("conv5_1a", 256, 512, 7, 7, 3, batch),
        conv2d_layer("conv5_1b", 512, 512, 7, 7, 3, batch),
        conv2d_layer("conv5_ds", 256, 512, 7, 7, 1, batch),
        conv2d_layer("conv5_2a", 512, 512, 7, 7, 3, batch),
        conv2d_layer("conv5_2b", 512, 512, 7, 7, 3, batch),
        # Classifier.
        matmul_layer("fc", 1000, 512, batch,
                     activation_style=ActivationStyle.CNN_SPARSE_UNSIGNED),
    ]
    return Network(name="resnet18", layers=tuple(layers))


# ----------------------------------------------------------------------
# Vision Transformer (ViT-Base/16, Dosovitskiy et al.) — large matmul tensors.
# ----------------------------------------------------------------------
def vit_base(sequence_length: int = 197, blocks: int = 12) -> Network:
    """ViT-Base/16: patch embedding + ``blocks`` encoder blocks.

    Each encoder block contributes QKV projection, attention output
    projection, and the two MLP matmuls.  Attention score/value matmuls are
    activation-activation products; CiM macros keep weights stationary so,
    like the paper, we model the weight-bearing matmuls.
    """
    hidden = 768
    mlp = 3072
    layers: List[Layer] = [
        matmul_layer("patch_embed", hidden, 3 * 16 * 16, sequence_length,
                     activation_style=ActivationStyle.IMAGE_DENSE_UNSIGNED),
    ]
    for block in range(blocks):
        prefix = f"block{block}"
        layers.extend(
            [
                matmul_layer(f"{prefix}_qkv", 3 * hidden, hidden, sequence_length),
                matmul_layer(f"{prefix}_attn_out", hidden, hidden, sequence_length),
                matmul_layer(f"{prefix}_mlp1", mlp, hidden, sequence_length),
                matmul_layer(f"{prefix}_mlp2", hidden, mlp, sequence_length),
            ]
        )
    layers.append(matmul_layer("head", 1000, hidden, 1))
    return Network(name="vit_base", layers=tuple(layers))


# ----------------------------------------------------------------------
# MobileNetV3-Small — small tensors, depthwise-separable convolutions.
# ----------------------------------------------------------------------
def mobilenet_v3_small(batch: int = 1) -> Network:
    """A representative subset of MobileNetV3-Small's inverted residual stack.

    Shapes follow Howard et al. (2019) Table 2.  Squeeze-excite and
    hard-swish element-wise stages contribute negligible MACs and are
    omitted, as is standard in accelerator evaluations.
    """
    layers: List[Layer] = [
        conv2d_layer("conv_stem", 3, 16, 112, 112, 3, batch,
                     activation_style=ActivationStyle.IMAGE_DENSE_UNSIGNED),
        # bneck 1: 16 -> 16, stride 2, kernel 3
        conv2d_layer("bneck1_expand", 16, 16, 56, 56, 1, batch),
        depthwise_conv2d_layer("bneck1_dw", 16, 56, 56, 3, batch),
        conv2d_layer("bneck1_project", 16, 16, 56, 56, 1, batch),
        # bneck 2: 16 -> 24
        conv2d_layer("bneck2_expand", 16, 72, 56, 56, 1, batch),
        depthwise_conv2d_layer("bneck2_dw", 72, 28, 28, 3, batch),
        conv2d_layer("bneck2_project", 72, 24, 28, 28, 1, batch),
        # bneck 3: 24 -> 24
        conv2d_layer("bneck3_expand", 24, 88, 28, 28, 1, batch),
        depthwise_conv2d_layer("bneck3_dw", 88, 28, 28, 3, batch),
        conv2d_layer("bneck3_project", 88, 24, 28, 28, 1, batch),
        # bneck 4: 24 -> 40, kernel 5
        conv2d_layer("bneck4_expand", 24, 96, 28, 28, 1, batch),
        depthwise_conv2d_layer("bneck4_dw", 96, 14, 14, 5, batch),
        conv2d_layer("bneck4_project", 96, 40, 14, 14, 1, batch),
        # bneck 5/6: 40 -> 40
        conv2d_layer("bneck5_expand", 40, 240, 14, 14, 1, batch),
        depthwise_conv2d_layer("bneck5_dw", 240, 14, 14, 5, batch),
        conv2d_layer("bneck5_project", 240, 40, 14, 14, 1, batch),
        # bneck 8: 40 -> 48
        conv2d_layer("bneck8_expand", 40, 120, 14, 14, 1, batch),
        depthwise_conv2d_layer("bneck8_dw", 120, 14, 14, 5, batch),
        conv2d_layer("bneck8_project", 120, 48, 14, 14, 1, batch),
        # bneck 10: 48 -> 96, stride 2
        conv2d_layer("bneck10_expand", 48, 288, 14, 14, 1, batch),
        depthwise_conv2d_layer("bneck10_dw", 288, 7, 7, 5, batch),
        conv2d_layer("bneck10_project", 288, 96, 7, 7, 1, batch),
        # bneck 11: 96 -> 96
        conv2d_layer("bneck11_expand", 96, 576, 7, 7, 1, batch),
        depthwise_conv2d_layer("bneck11_dw", 576, 7, 7, 5, batch),
        conv2d_layer("bneck11_project", 576, 96, 7, 7, 1, batch),
        # Head.
        conv2d_layer("conv_head", 96, 576, 7, 7, 1, batch),
        matmul_layer("classifier1", 1024, 576, batch,
                     activation_style=ActivationStyle.CNN_SPARSE_UNSIGNED),
        matmul_layer("classifier2", 1000, 1024, batch,
                     activation_style=ActivationStyle.CNN_SPARSE_UNSIGNED),
    ]
    return Network(name="mobilenet_v3_small", layers=tuple(layers))


# ----------------------------------------------------------------------
# GPT-2 (small, 124M) — large language model with 12 transformer blocks.
# ----------------------------------------------------------------------
def gpt2_small(sequence_length: int = 1024, blocks: int = 12) -> Network:
    """GPT-2 small: 12 decoder blocks with hidden size 768.

    Weight-bearing matmuls per block: QKV projection, attention output
    projection, and the two MLP matmuls, evaluated for a full sequence of
    ``sequence_length`` tokens (one forward pass over the context).
    """
    hidden = 768
    mlp = 4 * hidden
    layers: List[Layer] = []
    for block in range(blocks):
        prefix = f"block{block}"
        layers.extend(
            [
                matmul_layer(f"{prefix}_qkv", 3 * hidden, hidden, sequence_length),
                matmul_layer(f"{prefix}_attn_out", hidden, hidden, sequence_length),
                matmul_layer(f"{prefix}_mlp1", mlp, hidden, sequence_length),
                matmul_layer(f"{prefix}_mlp2", hidden, mlp, sequence_length),
            ]
        )
    layers.append(matmul_layer("lm_head", 50257, hidden, 1))
    return Network(name="gpt2_small", layers=tuple(layers))


# ----------------------------------------------------------------------
# Synthetic maximum-utilisation workload.
# ----------------------------------------------------------------------
def conv_workload(
    height: int,
    width: int,
    channels: int,
    kernel: int = 3,
    filters: int = 0,
    batch: int = 1,
) -> Network:
    """A single-convolution workload at an arbitrary feature-map geometry.

    The convolution maps ``channels`` input channels to ``filters`` output
    channels (defaulting to ``channels``) over a ``height x width`` output
    feature map with a ``kernel x kernel`` window — a one-layer probe for
    sizing CiM macros against convolutional tensor shapes without pulling
    in a whole network.  Resolvable by name through :func:`load_network`
    (``conv_<h>x<w>x<c>[_k<kernel>][_f<filters>]``), which is how service
    requests reach it.
    """
    if height < 1 or width < 1 or channels < 1:
        raise WorkloadError("conv workload needs positive feature-map dimensions")
    if kernel < 1:
        raise WorkloadError("conv workload needs a positive kernel size")
    filters = filters or channels
    name = f"conv_{height}x{width}x{channels}"
    if kernel != 3:
        name += f"_k{kernel}"
    if filters != channels:
        name += f"_f{filters}"
    layer = conv2d_layer(
        name, channels, filters, height, width, kernel, batch,
        activation_style=ActivationStyle.CNN_SPARSE_UNSIGNED,
    )
    return Network(name=name, layers=(layer,))


def matrix_vector_workload(rows: int, cols: int, repeats: int = 1) -> Network:
    """A matrix-vector multiply whose dimensions exactly match a CiM array.

    This is the paper's "maximum-utilisation workload": the reduction
    dimension matches the number of array rows and the output dimension
    matches the number of array columns, so every cell is used every
    activation.
    """
    if rows < 1 or cols < 1:
        raise WorkloadError("matrix-vector workload needs positive dimensions")
    if repeats < 1:
        raise WorkloadError("matrix-vector workload needs at least one repeat")
    layer = matmul_layer(
        f"mvm_{rows}x{cols}", m=cols, k=rows, n=repeats,
        activation_style=ActivationStyle.CNN_SPARSE_UNSIGNED,
    )
    return Network(name=f"mvm_{rows}x{cols}", layers=(layer,))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_NETWORKS: Dict[str, Callable[[], Network]] = {
    "resnet18": resnet18,
    "vit_base": vit_base,
    "mobilenet_v3_small": mobilenet_v3_small,
    "gpt2_small": gpt2_small,
}


#: ``mvm_<rows>x<cols>[_x<repeats>]``: the matrix-vector workload names.
_MVM_NAME = re.compile(r"mvm_(\d+)x(\d+)(?:_x(\d+))?")


def list_networks() -> List[str]:
    """Names of the built-in networks."""
    return sorted(_NETWORKS)


@functools.lru_cache(maxsize=1024)
def canonical_mvm_name(name: str) -> str:
    """One spelling per matrix-vector workload.

    ``mvm_032x32``, ``mvm_32x32_x1`` and ``mvm_32x32`` load one network,
    so they are respelled with decimal numbers without leading zeros, as
    :func:`matrix_vector_workload` names the network, and with the
    ``_x<repeats>`` suffix only when it is not 1 (``_x0`` stays, and
    fails to load).  Other names are returned unchanged.  Memoised: the
    evaluation service respells every request naming an MVM workload,
    store hits included.
    """
    match = _MVM_NAME.fullmatch(name)
    if match is None:
        return name
    rows, cols, repeats = match.groups()
    spelled = f"mvm_{int(rows)}x{int(cols)}"
    repeats = int(repeats) if repeats else 1
    return spelled if repeats == 1 else f"{spelled}_x{repeats}"


def load_network(name: str) -> Network:
    """Instantiate a built-in network by name.

    Besides the fixed registry, parameterised synthetic workloads resolve
    by pattern: ``mvm_<rows>x<cols>`` (optionally ``..._x<repeats>``) is
    the maximum-utilisation matrix-vector workload at that geometry, and
    ``conv_<h>x<w>x<c>`` (optionally ``..._k<kernel>`` and/or
    ``..._f<filters>``) is a single convolution over an ``h x w`` output
    feature map with ``c`` input channels.  This is the lookup the
    evaluation service uses to resolve request workloads by name, so a
    request can ask for any array-matched MVM or conv probe without the
    service shipping layer shapes inline.
    """
    try:
        factory = _NETWORKS[name]
    except KeyError:
        match = _MVM_NAME.fullmatch(name)
        if match:
            rows, cols, repeats = (int(g) if g else 1 for g in match.groups())
            return matrix_vector_workload(rows, cols, repeats=repeats)
        match = re.fullmatch(
            r"conv_(\d+)x(\d+)x(\d+)(?:_k(\d+))?(?:_f(\d+))?", name
        )
        if match:
            height, width, channels = (int(g) for g in match.groups()[:3])
            kernel = int(match.group(4)) if match.group(4) else 3
            filters = int(match.group(5)) if match.group(5) else 0
            return conv_workload(
                height, width, channels, kernel=kernel, filters=filters
            )
        raise WorkloadError(
            f"unknown network {name!r}; available: {', '.join(list_networks())}, "
            "mvm_<rows>x<cols>[_x<repeats>], or "
            "conv_<h>x<w>x<c>[_k<kernel>][_f<filters>]"
        ) from None
    return factory()
