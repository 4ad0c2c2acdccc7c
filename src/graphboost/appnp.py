"""APPNP weak classifier: a two-layer MLP head followed by personalized
PageRank propagation, trained full-batch with Adam on a weighted
cross-entropy loss.

Forward pass, with Ahat the normalized adjacency and a the teleport
probability:

    H0 = W2 @ dropout(relu(W1 @ x + b1)) + b2        (per row)
    Z(0) = H0
    Z(l+1) = (1 - a) * Ahat @ Z(l) + a * H0,  l = 0..k-1

Gradients are computed by hand in double precision; Ahat is constant and
symmetric, so the backward pass through the propagation is the same
propagation applied to the gradient.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, TrainingDiverged
from .graph import SparseAdjacency
from .rng import substream

# Each propagation step costs one multiply per pass; without a bound, a
# model file claiming 2**70 steps would make predict never finish.
MAX_PROP_STEPS = 10_000


@dataclass(frozen=True)
class AppnpConfig:
    hidden_dim: int = 64
    prop_steps: int = 10
    teleport: float = 0.1
    dropout: float = 0.1
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.teleport <= 1.0:
            raise DataError("teleport probability must be in (0, 1]")
        if not 0 <= self.prop_steps <= MAX_PROP_STEPS:
            raise DataError(f"prop_steps must be in [0, {MAX_PROP_STEPS}]")
        if not 0.0 <= self.dropout < 1.0:
            raise DataError("dropout must be in [0, 1)")

    def to_dict(self) -> dict:
        return {"hidden_dim": self.hidden_dim, "prop_steps": self.prop_steps,
                "teleport": self.teleport, "dropout": self.dropout,
                "learning_rate": self.learning_rate,
                "weight_decay": self.weight_decay,
                "max_epochs": self.max_epochs, "patience": self.patience,
                "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "AppnpConfig":
        return cls(**d)


@dataclass
class AppnpModel:
    w1: np.ndarray  # H x M
    b1: np.ndarray  # H
    w2: np.ndarray  # K x H
    b2: np.ndarray  # K
    config: AppnpConfig

    def copy_weights(self) -> tuple:
        return (self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())


@dataclass
class TrainReport:
    epochs_run: int
    best_val_error: float
    final_train_loss: float
    early_stopped: bool


@dataclass
class ForwardCache:
    x: np.ndarray
    a1: np.ndarray
    dmask: np.ndarray | None
    hd: np.ndarray
    h0: np.ndarray
    z: np.ndarray
    model: AppnpModel
    adjacency: SparseAdjacency


def init_model(config: AppnpConfig, n_features: int, n_classes: int) -> AppnpModel:
    """He-uniform first layer, Glorot-uniform second, zero biases."""
    rng = substream(config.seed, "init")
    h, m, k = config.hidden_dim, n_features, n_classes
    lim1 = math.sqrt(6.0 / m)
    w1 = rng.uniform(-lim1, lim1, size=(h, m))
    lim2 = math.sqrt(6.0 / (h + k))
    w2 = rng.uniform(-lim2, lim2, size=(k, h))
    return AppnpModel(w1, np.zeros(h), w2, np.zeros(k), config)


def propagate(h0: np.ndarray, adjacency: SparseAdjacency, teleport: float,
              steps: int) -> np.ndarray:
    """k steps of the personalized PageRank recurrence, run in the graph's
    sorted frame so that rows are gathered and scattered once, not per
    step."""
    if teleport == 1.0 or steps == 0:
        return h0.copy()
    z = adjacency.to_sorted(h0)
    restart = teleport * z
    for _ in range(steps):
        z = adjacency.matmul(z, sorted_frame=True)
        z *= 1.0 - teleport
        z += restart
    return adjacency.from_sorted(z)


def propagation_limit(h0: np.ndarray, adjacency: SparseAdjacency,
                      teleport: float) -> np.ndarray:
    """Closed-form fixed point a * (I - (1-a) Ahat)^-1 @ H0 (dense solve,
    small instances only)."""
    dense = adjacency.to_dense()
    system = np.eye(adjacency.n) - (1.0 - teleport) * dense
    return teleport * np.linalg.solve(system, h0)


def forward(model: AppnpModel, x: np.ndarray, adjacency: SparseAdjacency,
            dropout_rng: np.random.Generator | None = None) -> tuple[np.ndarray, ForwardCache]:
    """Logits over all nodes plus the cache needed for the backward pass.

    Dropout (inverted scaling) is applied inside the MLP only, and only
    when a generator is supplied.
    """
    if adjacency.n != x.shape[0]:
        raise DataError("adjacency and feature matrix disagree on node count")
    cfg = model.config
    a1 = x @ model.w1.T + model.b1
    r = np.maximum(a1, 0.0)
    dmask = None
    if dropout_rng is not None and cfg.dropout > 0.0:
        keep = 1.0 - cfg.dropout
        dmask = (dropout_rng.random(r.shape) < keep) / keep
        hd = r * dmask
    else:
        hd = r
    h0 = hd @ model.w2.T + model.b2
    z = propagate(h0, adjacency, cfg.teleport, cfg.prop_steps)
    return z, ForwardCache(x, a1, dmask, hd, h0, z, model, adjacency)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(z: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(z))


def loss(z: np.ndarray, y: np.ndarray, w: np.ndarray, mask: np.ndarray,
         weight_decay: float, model: AppnpModel) -> float:
    """Weighted softmax cross-entropy over masked rows plus L2 decay."""
    w_masked = w[mask]
    total = w_masked.sum()
    if total <= 0.0:
        raise DataError("masked sample weights sum to zero")
    logp = _log_softmax(z[mask])
    ce = -logp[np.arange(logp.shape[0]), y[mask]]
    reg = weight_decay * (np.sum(model.w1 ** 2) + np.sum(model.w2 ** 2))
    return float(np.dot(w_masked, ce) / total + reg)


def backward(cache: ForwardCache, y: np.ndarray, w: np.ndarray,
             mask: np.ndarray, weight_decay: float) -> dict:
    """Exact gradients of ``loss`` for (w1, b1, w2, b2)."""
    model = cache.model
    cfg = model.config
    w_masked = w[mask]
    total = w_masked.sum()
    if total <= 0.0:
        raise DataError("masked sample weights sum to zero")

    g = np.zeros_like(cache.z)
    probs = softmax(cache.z[mask])
    probs[np.arange(probs.shape[0]), y[mask]] -= 1.0
    g[mask] = probs * (w_masked / total)[:, None]

    # Z(k) = P @ H0 with P = a * sum_{l<k} ((1-a) Ahat)^l + ((1-a) Ahat)^k.
    # P is a polynomial in the symmetric Ahat, so it is symmetric too and
    # dH0 = P @ dZ is the forward propagation applied to the gradient.
    dh0 = propagate(g, cache.adjacency, cfg.teleport, cfg.prop_steps)

    dw2 = dh0.T @ cache.hd + 2.0 * weight_decay * model.w2
    db2 = dh0.sum(axis=0)
    dhd = dh0 @ model.w2
    dr = dhd if cache.dmask is None else dhd * cache.dmask
    da1 = dr * (cache.a1 > 0.0)
    dw1 = da1.T @ cache.x + 2.0 * weight_decay * model.w1
    db1 = da1.sum(axis=0)
    return {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


def _weighted_label_error(labels: np.ndarray, y: np.ndarray, w: np.ndarray,
                          mask: np.ndarray) -> float:
    wm = w[mask]
    total = wm.sum()
    if total <= 0.0:
        raise DataError("masked sample weights sum to zero")
    return float(np.dot(wm / total, labels[mask] != y[mask]))


def train_weak(config: AppnpConfig, x: np.ndarray, adjacency: SparseAdjacency,
               y: np.ndarray, w: np.ndarray, train_mask: np.ndarray,
               val_mask: np.ndarray,
               n_classes: int | None = None) -> tuple[AppnpModel, TrainReport]:
    """Adam with a cosine-annealed learning rate and early stopping on the
    weighted validation error; returns the best-validation parameters."""
    train_mask = np.asarray(train_mask, dtype=bool)
    val_mask = np.asarray(val_mask, dtype=bool)
    if np.any(train_mask & val_mask):
        raise DataError("train and validation masks overlap")
    if not val_mask.any():
        raise DataError("validation mask is empty")

    if n_classes is None:
        n_classes = int(y.max()) + 1
    model = init_model(config, x.shape[1], n_classes)
    dropout_rng = substream(config.seed, "dropout")

    def val_error() -> float:
        z, _ = forward(model, x, adjacency)
        return _weighted_label_error(np.argmax(z, axis=1), y, w, val_mask)

    if config.max_epochs == 0:
        z0, _ = forward(model, x, adjacency)
        init_loss = loss(z0, y, w, train_mask, config.weight_decay, model)
        return model, TrainReport(0, val_error(), init_loss, False)

    params = {"w1": model.w1, "b1": model.b1, "w2": model.w2, "b2": model.b2}
    adam_m = {k: np.zeros_like(v) for k, v in params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    best_err = float("inf")
    best_weights = model.copy_weights()
    best_epoch = -1
    final_loss = float("nan")
    epochs_run = 0
    early_stopped = False

    for epoch in range(config.max_epochs):
        lr = config.learning_rate * 0.5 * (1.0 + math.cos(
            math.pi * epoch / config.max_epochs))
        z, cache = forward(model, x, adjacency, dropout_rng=dropout_rng)
        final_loss = loss(z, y, w, train_mask, config.weight_decay, model)
        if not math.isfinite(final_loss):
            culprit = "loss"
            for name, arr in (("hidden", cache.a1), ("head", cache.h0),
                              ("propagated", cache.z)):
                if not np.all(np.isfinite(arr)):
                    culprit = f"{name} activations"
                    break
            raise TrainingDiverged(
                f"non-finite {culprit} at epoch {epoch}", epoch=epoch)
        grads = backward(cache, y, w, train_mask, config.weight_decay)
        t = epoch + 1
        for k, p in params.items():
            adam_m[k] = beta1 * adam_m[k] + (1 - beta1) * grads[k]
            adam_v[k] = beta2 * adam_v[k] + (1 - beta2) * grads[k] ** 2
            m_hat = adam_m[k] / (1 - beta1 ** t)
            v_hat = adam_v[k] / (1 - beta2 ** t)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        epochs_run = epoch + 1

        err = val_error()
        if err < best_err:
            best_err = err
            best_weights = model.copy_weights()
            best_epoch = epoch
        else:
            if err == best_err:
                # a tie keeps the later, more-converged parameters but does
                # not reset the patience clock
                best_weights = model.copy_weights()
            if epoch - best_epoch >= config.patience:
                early_stopped = True
                break

    model.w1, model.b1, model.w2, model.b2 = best_weights
    return model, TrainReport(epochs_run, best_err, final_loss, early_stopped)


def predict(model: AppnpModel, x: np.ndarray,
            adjacency: SparseAdjacency) -> tuple[np.ndarray, np.ndarray]:
    """Hard labels (argmax, lowest index on ties) and softmax probabilities."""
    z, _ = forward(model, x, adjacency)
    probs = softmax(z)
    return np.argmax(z, axis=1), probs
