"""Training engine: Adam with step-decayed learning rate, epoch loop,
validation hooks, and checkpointing.

Weight decay is the coupled (gradient-added) form and touches only
tensors named "*.weight"; normalization scales/shifts and activation
slopes are exempt. A decoupled variant is available behind a flag.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .autodiff import AutodiffError, ParameterStore, Tensor, backward
from .losses import LossConfig, hybrid_loss
from .metrics import evaluate
from .model import CSDN
from .phantom import AugmentConfig, Dataset, batches
from .serial import _write_atomic, load_checkpoint, save_checkpoint


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    batch_size: int = 16
    lr0: float = 1e-3
    lr_step: int = 100
    lr_factor: float = 0.5
    weight_decay: float = 1e-4
    decoupled_decay: bool = False
    seed: int = 0
    checkpoint_every: int = 1
    val_every: int = 5
    augment: str = "full"  # full | mild | none

    def __post_init__(self):
        for key in ("epochs", "lr_step", "val_every", "checkpoint_every"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if self.batch_size < 2:  # batch norm needs two samples per batch
            raise ValueError("batch_size must be >= 2")
        if not 0.0 < self.lr_factor <= 1.0:
            raise ValueError("lr_factor must lie in (0, 1]")
        # each check is written so that NaN fails it
        if not (self.lr0 > 0 and math.isfinite(self.lr0)):
            raise ValueError("lr0 must be finite and > 0")
        if not (self.weight_decay >= 0 and math.isfinite(self.weight_decay)):
            raise ValueError("weight_decay must be finite and >= 0")
        if self.augment not in ("full", "mild", "none"):
            raise ValueError("augment must be one of full, mild, none")

    def augment_cfg(self) -> AugmentConfig | None:
        if self.augment == "full":
            return AugmentConfig()
        if self.augment == "mild":
            return AugmentConfig.mild()
        return None


def lr_at_epoch(epoch: int, cfg: TrainConfig) -> float:
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return cfg.lr0 * cfg.lr_factor ** (epoch // cfg.lr_step)


# Adam's moment decays and denominator floor (Kingma and Ba, 2014).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Bias-corrected Adam over a ParameterStore, with selective L2 decay.

    Each moment is one flat buffer, decayed tensors first so the decay is
    one slice; ``m[name]`` and ``v[name]`` are views into it. Parameters
    stay owned by their tensors, and a step writes each update into
    ``p.data`` in place."""

    def __init__(self, store: ParameterStore, weight_decay: float = 1e-4,
                 decoupled: bool = False):
        self.store = store
        self.weight_decay = weight_decay
        self.decoupled = decoupled
        self.step_count = 0
        named = list(store.items())
        self._decayed = [p for n, p in named if self.decayed(n)]
        self._order = sorted(named, key=lambda item: not self.decayed(item[0]))
        self._span, off = {}, 0
        for name, p in self._order:
            self._span[name] = slice(off, off + p.data.size)
            off += p.data.size
        self._dtype = (np.result_type(*(p.data for _, p in named))
                       if named else np.float64)
        self._m = np.zeros(off, self._dtype)
        self._v = np.zeros(off, self._dtype)
        self.m = {n: self._m[self._span[n]].reshape(p.data.shape)
                  for n, p in named}
        self.v = {n: self._v[self._span[n]].reshape(p.data.shape)
                  for n, p in named}

    @staticmethod
    def decayed(name: str) -> bool:
        return name.endswith(".weight")

    def load_state(self, state: dict):
        self.step_count = int(state["step"])
        for moments, saved in ((self.m, state["m"]), (self.v, state["v"])):
            for n in moments:
                if n not in saved:
                    raise ValueError(
                        f"optimizer state missing moments for {n!r}")
                if saved[n].shape != moments[n].shape:
                    raise ValueError(
                        f"optimizer moment shape mismatch for {n!r}")
                moments[n][...] = saved[n]

    def step(self, grads: dict[str, Tensor], lr: float):
        """One update; the learning rate (finite) and every gradient
        (present, shape, finite) are checked before any parameter, moment
        or step count changes."""
        if not math.isfinite(lr):
            raise AutodiffError(f"non-finite learning rate {lr}")
        for name, p in self.store.items():
            if name not in grads:
                raise ValueError(f"no gradient supplied for {name!r}")
            g = grads[name].data
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter "
                                 f"{p.data.shape} for {name!r}")
        flat = [grads[n].data.ravel() for n, _ in self._order]
        g = np.concatenate(flat, dtype=self._dtype) if flat else self._m.copy()
        if not np.isfinite(g).all():
            name = next(n for n in self.store.names()
                        if not np.isfinite(g[self._span[n]]).all())
            raise AutodiffError(f"non-finite gradient for {name!r}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        wd = self.weight_decay if self._decayed else 0.0
        if wd:
            wp = np.concatenate([p.data.ravel() for p in self._decayed],
                                dtype=self._dtype)
            wp *= wd
            if not self.decoupled:
                g[:wp.size] += wp
        m, v = self._m, self._v
        u = (1.0 - BETA1) * g
        m *= BETA1
        m += u
        np.multiply(g, 1.0 - BETA2, out=u)
        u *= g
        v *= BETA2
        v += u
        np.divide(v, bc2, out=u)  # update = (m / bc1) / (sqrt(v / bc2) + eps)
        np.sqrt(u, out=u)
        u += EPS
        np.divide(m, bc1, out=g)
        g /= u
        if wd and self.decoupled:
            g[:wp.size] += wp
        g *= lr
        for name, p in self._order:
            p.data -= g[self._span[name]].reshape(p.data.shape)


@dataclass
class EpochLog:
    epoch: int
    loss: float
    lr: float
    val_dsc_lumen: float | None = None
    val_dsc_eem: float | None = None
    val_hd95_lumen: float | None = None
    val_hd95_eem: float | None = None

    def csv_row(self) -> str:
        def fmt(v):
            return "" if v is None else f"{v:.6f}"
        return (f"{self.epoch},{self.loss:.6f},{self.lr:.8f},"
                f"{fmt(self.val_dsc_lumen)},{fmt(self.val_dsc_eem)},"
                f"{fmt(self.val_hd95_lumen)},{fmt(self.val_hd95_eem)}")


LOG_HEADER = ("epoch,loss,lr,val_dsc_lumen,val_dsc_eem,"
              "val_hd95_lumen,val_hd95_eem")


def _log_before(path: str, start_epoch: int) -> str:
    """The header and the complete rows of the log at ``path`` (if any)
    for epochs before ``start_epoch``. A row is complete when it ends in a
    newline and has every column, so a row torn by a crash is dropped."""
    rows = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            # past the header; a torn row follows the last newline
            lines = fh.read().split("\n")[1:-1]
        width = LOG_HEADER.count(",")
        for line in lines:
            epoch = line.split(",", 1)[0]
            if (line.count(",") == width and epoch.isdigit()
                    and int(epoch) < start_epoch):
                rows.append(line + "\n")
    return LOG_HEADER + "\n" + "".join(rows)


def _epoch_seed(master_seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence([master_seed, epoch])
               .generate_state(1)[0])


def check_train_split(dataset: Dataset):
    """Refuse a training split without the two samples batch norm needs."""
    if not dataset.train:
        raise ValueError("training split is empty")
    if len(dataset.train) < 2:
        raise ValueError("training split has 1 sample; batch norm needs 2")


def train(net: CSDN, dataset: Dataset, cfg: TrainConfig,
          loss_cfg: LossConfig, out_dir: str | None = None,
          quiet: bool = False, start_epoch: int = 0,
          opt_state: dict | None = None, best_val_dsc: float = -1.0,
          global_step: int = 0) -> list[EpochLog]:
    """Run the epoch loop; returns the per-epoch log. When out_dir is set,
    writes log.csv, last.ckpt, and best.ckpt (best mean validation DSC);
    log.csv first keeps only its rows before ``start_epoch``, so a resume
    drops the rows logged after the checkpoint it starts from."""
    check_train_split(dataset)
    # a trailing single sample is never batched: it trains in other epochs
    full, rest = divmod(len(dataset.train), cfg.batch_size)
    n_batches = full + (rest > 1)
    store = net.parameter_store()
    opt = Adam(store, weight_decay=cfg.weight_decay,
               decoupled=cfg.decoupled_decay)
    if opt_state is not None:
        opt.load_state(opt_state)
    aug = cfg.augment_cfg()
    logs: list[EpochLog] = []
    log_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        log_path = os.path.join(out_dir, "log.csv")
        _write_atomic(log_path, _log_before(log_path, start_epoch).encode())

    for epoch in range(start_epoch, cfg.epochs):
        lr = lr_at_epoch(epoch, cfg)
        net.train()
        losses = []
        t0 = time.time()
        seed = _epoch_seed(cfg.seed, epoch)
        for batch_id, (frames, labels) in enumerate(itertools.islice(
                batches(dataset.train, cfg.batch_size, seed, aug), n_batches)):
            x = Tensor(frames, dtype=net.dtype)
            try:
                out = net(x)
                loss = hybrid_loss(out, labels, loss_cfg)
            except AutodiffError as e:
                raise AutodiffError(
                    f"non-finite loss at epoch {epoch} batch {batch_id} "
                    f"(lr {lr:g}): {e}") from e
            store.zero_grad()
            grads = backward(loss, store)
            opt.step(grads, lr)
            losses.append(loss.item())
            global_step += 1
        entry = EpochLog(epoch=epoch, loss=float(np.mean(losses)), lr=lr)

        last_epoch = epoch == cfg.epochs - 1
        if dataset.val and (last_epoch or (epoch + 1) % cfg.val_every == 0):
            rep = evaluate(net, dataset.val)
            entry.val_dsc_lumen = rep.lumen_dsc
            entry.val_dsc_eem = rep.eem_dsc
            entry.val_hd95_lumen = rep.lumen_hd95_mm
            entry.val_hd95_eem = rep.eem_hd95_mm
            mean_dsc = 0.5 * (rep.lumen_dsc + rep.eem_dsc)
            if out_dir is not None and mean_dsc > best_val_dsc:
                best_val_dsc = mean_dsc
                save_checkpoint(os.path.join(out_dir, "best.ckpt"), net, opt,
                                epoch=epoch, global_step=global_step,
                                master_seed=cfg.seed,
                                best_val_dsc=best_val_dsc)
        logs.append(entry)
        if not quiet:
            val = ""
            if entry.val_dsc_lumen is not None:
                val = (f" val_dsc l={entry.val_dsc_lumen:.4f} "
                       f"e={entry.val_dsc_eem:.4f}")
            print(f"epoch {epoch:3d} loss {entry.loss:.4f} lr {lr:.2e}"
                  f" ({time.time() - t0:.1f}s){val}", flush=True)
        if out_dir is not None:
            with open(log_path, "a") as fh:
                fh.write(entry.csv_row() + "\n")
            if (epoch + 1) % cfg.checkpoint_every == 0 or last_epoch:
                save_checkpoint(os.path.join(out_dir, "last.ckpt"), net, opt,
                                epoch=epoch, global_step=global_step,
                                master_seed=cfg.seed,
                                best_val_dsc=best_val_dsc)
    return logs


def load_resume(path: str, cfg: TrainConfig) -> tuple[CSDN, dict]:
    """Load and check the run saved at ``path``: (net, the keyword
    arguments that make ``train`` continue it). The data order and
    augmentation follow the master seed, so ``cfg.seed`` must be the
    checkpoint's. Nothing is written."""
    net, opt_state, trailer = load_checkpoint(path)
    if trailer["master_seed"] != cfg.seed:
        raise ValueError(f"{path}: checkpoint was trained with seed "
                         f"{trailer['master_seed']}, config has seed "
                         f"{cfg.seed}")
    if opt_state is None:
        print("warning: checkpoint has no optimizer state; "
              "training restarts with fresh moments", flush=True)
    return net, dict(start_epoch=trailer["epoch"] + 1, opt_state=opt_state,
                     best_val_dsc=trailer["best_val_dsc"],
                     global_step=trailer["global_step"])


def resume(path: str, dataset: Dataset, cfg: TrainConfig,
           loss_cfg: LossConfig, out_dir: str | None = None,
           quiet: bool = False) -> list[EpochLog]:
    """Continue the run saved at ``path`` (see ``load_resume``)."""
    net, state = load_resume(path, cfg)
    return train(net, dataset, cfg, loss_cfg, out_dir, quiet=quiet, **state)
