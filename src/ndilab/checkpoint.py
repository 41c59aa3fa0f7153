"""Binary model checkpoints.

Layout (all integers little-endian):
  magic     8 bytes  b"NDILABCK"
  version   uint32   currently 1
  kind      16 bytes ascii, nul-padded ("made", "ebm", "softmax_policy", ...)
  hdr_len   uint32   followed by hdr_len bytes of UTF-8 JSON (sorted keys):
                     layer widths, standardization statistics, hyperparameters
  n_arrays  uint32
  per array: ndim uint32, dims uint64 x ndim, float64 row-major data

The JSON header carries everything needed to rebuild the model object; the
arrays are its parameters in declaration order.
"""
from __future__ import annotations

import json
import math
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = b"NDILABCK"
VERSION = 1


def save_checkpoint(path, kind: str, header: dict, arrays: list) -> None:
    kind_b = kind.encode("ascii")
    if len(kind_b) > 16:
        raise ValueError("kind tag too long")
    hdr = json.dumps(header, sort_keys=True).encode("utf-8")
    chunks = [MAGIC, struct.pack("<I", VERSION), kind_b.ljust(16, b"\0"),
              struct.pack("<I", len(hdr)), hdr, struct.pack("<I", len(arrays))]
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
        chunks.append(arr.astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_checkpoint(path) -> tuple[str, dict, list]:
    buf = Path(path).read_bytes()
    if buf[:8] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    try:
        return _parse_checkpoint(buf)
    except (struct.error, ValueError) as err:
        raise ValueError(f"{path}: unreadable checkpoint ({err})") from err


def _parse_checkpoint(buf: bytes) -> tuple[str, dict, list]:
    off = 8
    (version,) = struct.unpack_from("<I", buf, off)
    off += 4
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    kind = buf[off:off + 16].rstrip(b"\0").decode("ascii")
    off += 16
    (hdr_len,) = struct.unpack_from("<I", buf, off)
    off += 4
    header = json.loads(buf[off:off + hdr_len].decode("utf-8"))
    off += hdr_len
    (n_arrays,) = struct.unpack_from("<I", buf, off)
    off += 4
    arrays = []
    for _ in range(n_arrays):
        (ndim,) = struct.unpack_from("<I", buf, off)
        off += 4
        shape = struct.unpack_from(f"<{ndim}Q", buf, off) if ndim else ()
        off += 8 * ndim
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(buf, dtype="<f8", count=count, offset=off).reshape(shape)
        off += 8 * count
        arrays.append(arr.copy())
    return kind, header, arrays


# -- model-specific wrappers -------------------------------------------------


def save_density_model(path, model, extra: dict | None = None) -> None:
    from .density import EbmModel, MadeModel
    header = {"mean": model.standardizer.mean.tolist(),
              "std": model.standardizer.std.tolist(), **(extra or {}),
              "dim": model.dim, "spectral_norm": model.net.spectral_norm,
              "sn_sigma": [layer.sigma for layer in model.net.layers]}
    if isinstance(model, MadeModel):
        header.update(n_components=model.n_components, ordering=model.ordering.tolist(),
                      hidden=model.net.widths[1:-1])
    elif isinstance(model, EbmModel):
        header.update(widths=model.net.widths)
    else:
        raise TypeError(f"not a density model: {type(model)!r}")
    save_checkpoint(path, model.kind, header, model.params())


@contextmanager
def _model_contents(path):
    """The (kind, header, arrays) of the checkpoint at ``path``, for a block
    that rebuilds a model from them. Non-finite arrays, and header keys,
    header values or arrays that do not fit the model, raise ``ValueError``
    naming the file."""
    kind, header, arrays = load_checkpoint(path)
    try:
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValueError("non-finite parameter values")
        yield kind, header, arrays
    except KeyError as err:
        raise ValueError(f"{path}: header has no {err} entry") from err
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path}: {err}") from err


def load_density_model(path):
    """Rebuild a density model from its checkpoint, with the ``_model_contents``
    checks; non-finite statistics and spectral-norm sigmas that are not finite
    numbers > 0 also raise ``ValueError`` naming the file."""
    from .density import EbmModel, MadeModel, Standardizer
    with _model_contents(path) as (kind, header, arrays):
        if kind == "made":
            model = MadeModel(header["dim"], hidden=tuple(header["hidden"]),
                              n_components=header["n_components"],
                              ordering=np.array(header["ordering"]),
                              spectral_norm=header["spectral_norm"])
        elif kind == "ebm":
            model = EbmModel(header["dim"], hidden=tuple(header["widths"][1:-1]),
                             spectral_norm=header["spectral_norm"])
        else:
            raise ValueError(f"not a density checkpoint: kind {kind!r}")
        model.net.set_params(arrays)
        layers, sigmas = model.net.layers, header["sn_sigma"]
        if not isinstance(sigmas, list) or len(sigmas) != len(layers):
            raise ValueError(f"expected {len(layers)} sn_sigma values, got {sigmas!r}")
        if not all(isinstance(s, (int, float)) and not isinstance(s, bool)
                   and math.isfinite(s) and s > 0 for s in sigmas):
            raise ValueError(f"sn_sigma values must be finite numbers > 0, got {sigmas!r}")
        std = Standardizer(np.array(header["mean"], dtype=np.float64),
                           np.array(header["std"], dtype=np.float64))
        if std.mean.shape != (model.dim,) or std.std.shape != (model.dim,):
            raise ValueError(f"standardizer statistics do not match dim {model.dim}")
        if not (np.isfinite(std.mean).all() and np.isfinite(std.std).all()
                and (std.std > 0).all()):
            raise ValueError("standardizer statistics must be finite, with std > 0")
        for layer, sigma in zip(layers, sigmas):
            layer.sigma = sigma
        model.standardizer = std
        return model


def save_softmax_policy(path, policy, extra: dict | None = None) -> None:
    save_checkpoint(path, "softmax_policy", extra or {}, [policy.logits])


def load_softmax_policy(path):
    from .mdp import SoftmaxPolicy
    with _model_contents(path) as (kind, header, arrays):
        if kind != "softmax_policy":
            raise ValueError(f"not a softmax policy checkpoint: kind {kind!r}")
        if len(arrays) != 1 or arrays[0].ndim != 2:
            raise ValueError("expected one (states, actions) logits array")
        return SoftmaxPolicy(arrays[0]), header


def save_gaussian_policy(path, policy, extra: dict | None = None) -> None:
    header = {"state_dim": policy.state_dim, "action_dim": policy.action_dim,
              "widths": policy.mean_net.widths, **(extra or {})}
    save_checkpoint(path, "gaussian_policy", header,
                    policy.mean_net.params() + [policy.log_std])


def load_gaussian_policy(path):
    from .mdp import GaussianPolicy
    with _model_contents(path) as (kind, header, arrays):
        if kind != "gaussian_policy":
            raise ValueError(f"not a gaussian policy checkpoint: kind {kind!r}")
        policy = GaussianPolicy(header["state_dim"], header["action_dim"],
                                hidden=tuple(header["widths"][1:-1]))
        policy.mean_net.set_params(arrays[:-1])
        if arrays[-1].shape != policy.log_std.shape:
            raise ValueError(f"log_std has shape {arrays[-1].shape}, "
                             f"expected {policy.log_std.shape}")
        policy.log_std[...] = arrays[-1]
        return policy, header
