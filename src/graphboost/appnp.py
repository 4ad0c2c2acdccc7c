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

The arithmetic works on stacks of C learners that differ only in their
graph: weights of C x H x M and C x K x H, hidden activations of C x N x H,
and one ``GraphStack`` for the graphs. The dense products multiply by
contiguous copies of the transposed weights, and the bias gradients are
products with a row of ones. ``np.matmul`` calls BLAS once per slice, and
every other operation is elementwise or reduces within a slice, so each
slice holds the bits of a one-graph computation. Learners trained under
one seed start from the same weights and draw the same dropout masks, so
``train_candidates`` trains up to ``BLOCK_SIZE`` graphs at once, with one
C x N x H activation buffer per block, and runs up to ``workers`` such
blocks at once on threads. ``forward``, ``backward``, ``propagate`` and
``train_weak`` are the C = 1 case of the same code, and
``predict_labels`` labels a stack of trained learners with it.

Training works in the propagation frame of ``GraphStack``: class-major
C x K x N, each learner's rows in its graph's sorted order. The MLP head's
output H0 (C x N x K, row order) is gathered into it, and the training
and validation logits, their log-softmax, the logit gradient dZ and the
validation labels never leave it. Over K classes, the class maximum,
softmax sum and argmax are then elementwise operations between K lines of
N values instead of reductions along a short last axis, which cost far
more per element; the softmax sum adds the K lines in class order. Each
learner's loss terms and validation rows are read back in row order
through flat indices made once per block, and every weighted sum adds
them in that order. Only dH0 leaves the frame, back to row order, because
the parameter gradients multiply it with the row-ordered activations.
``loss`` and ``backward`` use the same code on a one-learner frame in row
order.
"""

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DataError, TrainingDiverged
from .graph import GraphStack, SparseAdjacency
from .rng import substream

# Each propagation step costs one multiply per pass; without a bound, a
# model file claiming 2**70 steps would make predict never finish.
MAX_PROP_STEPS = 10_000

# Learners trained together. A block holds one C x N x H activation
# buffer, so memory grows with it, and ``train_candidates`` keeps up to
# ``workers`` blocks live at once. Past a few learners the per-call
# overhead a larger block saves is already small.
BLOCK_SIZE = 4

_PARAMS = ("w1", "b1", "w2", "b2")


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
        if self.hidden_dim < 1:
            raise DataError("hidden_dim must be at least 1")
        if self.max_epochs < 0:
            raise DataError("max_epochs must be at least 0")
        if not 0.0 < self.teleport <= 1.0:
            raise DataError("teleport probability must be in (0, 1]")
        if not 0 <= self.prop_steps <= MAX_PROP_STEPS:
            raise DataError(f"prop_steps must be in [0, {MAX_PROP_STEPS}]")
        if not 0.0 <= self.dropout < 1.0:
            raise DataError("dropout must be in [0, 1)")
        if self.patience < 0:
            raise DataError("patience must be at least 0")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise DataError("weight_decay must be finite and at least 0")
        if not (math.isfinite(self.learning_rate)
                and self.learning_rate > 0.0):
            raise DataError("learning_rate (config key weak_learning_rate) "
                            "must be finite and above 0")


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


def _stacked(model: AppnpModel) -> dict:
    """The model's parameters as stacks of one learner (views)."""
    return {name: getattr(model, name)[None] for name in _PARAMS}


def _transposed(w: np.ndarray) -> np.ndarray:
    """The C x B x A contiguous transpose of stacked C x A x B weights.
    ``np.matmul`` multiplies by it several times faster than by the
    transposed view, with different bits."""
    return np.ascontiguousarray(w.transpose(0, 2, 1))


def _preactivation(p: dict, x: np.ndarray, out=None) -> np.ndarray:
    """x @ W1^T + b1 for every learner of the stack ``p``: C x N x H."""
    out = np.matmul(x, _transposed(p["w1"]), out=out)
    out += p["b1"][:, None, :]
    return out


def _hidden(p: dict, x: np.ndarray, out=None) -> np.ndarray:
    """relu(x @ W1^T + b1): C x N x H."""
    out = _preactivation(p, x, out)
    return np.maximum(out, 0.0, out=out)


def _head(p: dict, hd: np.ndarray) -> np.ndarray:
    """hd @ W2^T + b2: C x N x K."""
    h0 = np.matmul(hd, _transposed(p["w2"]))
    h0 += p["b2"][:, None, :]
    return h0


def _dropout_mask(rng: np.random.Generator, shape: tuple,
                  rate: float) -> np.ndarray:
    """Inverted-dropout multipliers: 0 or 1 / keep."""
    keep = 1.0 - rate
    return (rng.random(shape) < keep) / keep


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Log-softmax over the class axis -2 of a class-major (..., K, N)
    array. Its class sum adds one line of N values at a time."""
    shifted = z - z.max(axis=-2, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-2, keepdims=True))


def _class_argmax(z: np.ndarray) -> np.ndarray:
    """``np.argmax`` over the class axis -2 of a class-major (..., K, N)
    array: the first maximum wins, and so does the first NaN."""
    best = z[..., 0, :]
    labels = np.zeros(best.shape, dtype=np.int64)
    for j in range(1, z.shape[-2]):
        row = z[..., j, :]
        # row > best, or row is NaN; but a NaN, once best, stays best
        np.putmask(labels, ~(row <= best) & (best == best), j)
        # the value of the class labelled so far, up to the sign of a zero
        best = np.maximum(best, row)
    return labels


class _Targets:
    """The labels and sample weights of the rows of ``mask``, placed for
    the class-major (C, K, N) logits of C learners: ``at[c, i]`` is
    c * N plus the position of row i in learner c's frame.

    The methods work on whole frames, elementwise, except for the index
    passes that read the masked rows back in row order, so that each
    learner's weighted sum adds its terms in the order of the rows,
    whatever its graph's sort, and the one that subtracts 1 at each masked
    row's true class. The index arrays are C x (masked rows); nothing is
    C x K x N but the frames.
    """

    def __init__(self, at: np.ndarray, y: np.ndarray, w: np.ndarray,
                 mask: np.ndarray, n_classes: int):
        c, n = at.shape
        self._w = w[mask]
        self._total = self._w.sum()
        if self._total <= 0.0:
            raise DataError("masked sample weights sum to zero")
        self._share = self._w / self._total
        self._at = at[:, mask]
        self._y = y[mask]
        # flat position of logp[c, y_i, position of row i] in the frame
        self._true = self._at + (np.arange(c)[:, None] * (n_classes - 1)
                                 + self._y) * n
        weight = np.zeros(c * n)
        weight[self._at] = self._share
        self._weight = weight.reshape(c, 1, n)
        outside = np.ones(c * n, dtype=bool)
        outside[self._at] = False
        self._outside = outside.reshape(c, 1, n)

    def losses(self, logp: np.ndarray, p: dict,
               weight_decay: float) -> list[float]:
        """``loss`` of every learner of the stack ``p``, from the
        log-softmax of its logits."""
        ce = -np.take(logp, self._true)
        # one dot and one decay term per learner, as in a one-graph run
        return [float(np.dot(self._w, ce[c]) / self._total + weight_decay * (
            np.sum(p["w1"][c] ** 2) + np.sum(p["w2"][c] ** 2)))
            for c in range(ce.shape[0])]

    def gradient(self, logp: np.ndarray) -> np.ndarray:
        """d(loss)/dZ of the cross-entropy term, in the frame, from the
        log-softmax ``logp`` of the logits."""
        dz = np.exp(logp, order="C")  # so that the flat view below is one
        dz.reshape(-1)[self._true] -= 1.0
        dz *= self._weight
        # The weight is 0 outside the mask, and the product 0.0, unless a
        # non-finite logit there made its softmax NaN.
        if np.isnan(dz).any():
            np.copyto(dz, 0.0, where=self._outside)
        return dz

    def errors(self, labels: np.ndarray) -> list[float]:
        """Weighted error rate of each learner's (C, N) labels, given in
        its frame."""
        wrong = np.take(labels, self._at) != self._y
        return [float(np.dot(self._share, row)) for row in wrong]


def _row_frame(z: np.ndarray, y: np.ndarray, w: np.ndarray,
               mask: np.ndarray) -> tuple:
    """N x K logits in row order as the frame of one learner whose sort is
    the identity, with the targets of the rows of ``mask``."""
    n, k = z.shape
    return (np.ascontiguousarray(z.T)[None],
            _Targets(np.arange(n)[None], y, w, mask, k))


def _param_grads(p: dict, x: np.ndarray, hd: np.ndarray,
                 dmask: np.ndarray | None, dh0: np.ndarray,
                 weight_decay: float, scratch=None) -> dict:
    """Exact gradients of ``loss`` for the stacked (w1, b1, w2, b2), given
    the dropped-out hd = relu(a1) * dmask and dH0. dA1 is built in
    ``scratch`` (C x N x H) when one is given; it may be the buffer that
    holds hd."""
    # the bias gradients are row sums, taken as products with a ones row:
    # a sum over the middle axis runs an inner loop only K or H long
    ones = np.ones((1, x.shape[0]))
    dw2 = np.matmul(dh0.transpose(0, 2, 1), hd)
    dw2 += 2.0 * weight_decay * p["w2"]
    db2 = np.matmul(ones, dh0)[:, 0]
    # The ReLU mask a1 > 0, taken before dA1 overwrites hd. Where dmask is
    # 0, hd is 0 or NaN even if a1 > 0, but dA1 there has already been
    # multiplied by 0, and a further factor of 0 or 1 leaves its bits as
    # they are; elsewhere hd > 0 exactly where a1 > 0.
    active = hd > 0.0
    da1 = np.matmul(dh0, p["w2"], out=scratch)
    if dmask is not None:
        da1 *= dmask
    da1 *= active
    dw1 = np.matmul(da1.transpose(0, 2, 1), x)
    dw1 += 2.0 * weight_decay * p["w1"]
    return {"w1": dw1, "b1": np.matmul(ones, da1)[:, 0], "w2": dw2,
            "b2": db2}


def propagate(h0: np.ndarray, adjacency: SparseAdjacency, teleport: float,
              steps: int) -> np.ndarray:
    """k steps of the personalized PageRank recurrence on one graph, for a
    length-N vector or an N x K matrix."""
    stacked = h0.reshape(1, h0.shape[0], -1)
    z = GraphStack([adjacency], stacked.shape[2]).propagate(
        stacked, teleport, steps)
    return z.reshape(h0.shape)


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
    p = _stacked(model)
    r = _hidden(p, x)
    dmask = None
    hd = r
    if dropout_rng is not None and cfg.dropout > 0.0:
        dmask = _dropout_mask(dropout_rng, r.shape[1:], cfg.dropout)
        hd = r * dmask
    h0 = _head(p, hd)[0]
    z = propagate(h0, adjacency, cfg.teleport, cfg.prop_steps)
    return z, ForwardCache(x, dmask, hd[0], h0, z, model, adjacency)


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a (..., N, K) array."""
    return np.exp(_log_softmax(np.swapaxes(z, -1, -2))).swapaxes(-1, -2)


def loss(z: np.ndarray, y: np.ndarray, w: np.ndarray, mask: np.ndarray,
         weight_decay: float, model: AppnpModel) -> float:
    """Weighted softmax cross-entropy over masked rows plus L2 decay."""
    frame, targets = _row_frame(z, y, w, mask)
    (value,) = targets.losses(_log_softmax(frame), _stacked(model),
                              weight_decay)
    return value


def backward(cache: ForwardCache, y: np.ndarray, w: np.ndarray,
             mask: np.ndarray, weight_decay: float) -> dict:
    """Exact gradients of ``loss`` for (w1, b1, w2, b2)."""
    cfg = cache.model.config
    frame, targets = _row_frame(cache.z, y, w, mask)
    dz = targets.gradient(_log_softmax(frame))[0].T
    # Z(k) = P @ H0 with P = a * sum_{l<k} ((1-a) Ahat)^l + ((1-a) Ahat)^k.
    # P is a polynomial in the symmetric Ahat, so it is symmetric too and
    # dH0 = P @ dZ is the forward propagation applied to the gradient.
    dh0 = propagate(dz, cache.adjacency, cfg.teleport, cfg.prop_steps)
    grads = _param_grads(_stacked(cache.model), cache.x, cache.hd[None],
                         cache.dmask, dh0[None], weight_decay)
    return {name: grad[0] for name, grad in grads.items()}


def train_weak(config: AppnpConfig, x: np.ndarray, adjacency: SparseAdjacency,
               y: np.ndarray, w: np.ndarray, train_mask: np.ndarray,
               val_mask: np.ndarray,
               n_classes: int | None = None) -> tuple[AppnpModel, TrainReport]:
    """Adam with a cosine-annealed learning rate and early stopping on the
    weighted validation error; returns the best-validation parameters.
    Raises TrainingDiverged when the training loss turns non-finite."""
    (outcome,) = train_candidates(config, x, [adjacency], y, w, train_mask,
                                  val_mask, n_classes)
    if isinstance(outcome, TrainingDiverged):
        raise outcome
    return outcome


def train_candidates(config: AppnpConfig, x: np.ndarray, adjacencies: list,
                     y: np.ndarray, w: np.ndarray, train_mask: np.ndarray,
                     val_mask: np.ndarray, n_classes: int | None = None,
                     workers: int = 0) -> list:
    """``train_weak`` on every graph of ``adjacencies``, ``BLOCK_SIZE``
    graphs at a time, with up to ``workers`` blocks at once on threads.

    Returns one entry per graph, in order: ``(model, report)``, or the
    ``TrainingDiverged`` that ``train_weak`` raises for that graph. Each
    entry equals a one-graph ``train_weak`` run bit for bit, whatever
    ``workers`` is.
    """
    train_mask = np.asarray(train_mask, dtype=bool)
    val_mask = np.asarray(val_mask, dtype=bool)
    if np.any(train_mask & val_mask):
        raise DataError("train and validation masks overlap")
    if not val_mask.any():
        raise DataError("validation mask is empty")
    if any(a.n != x.shape[0] for a in adjacencies):
        raise DataError("adjacency and feature matrix disagree on node count")
    if n_classes is None:
        n_classes = int(y.max()) + 1
    blocks = [adjacencies[start:start + BLOCK_SIZE]
              for start in range(0, len(adjacencies), BLOCK_SIZE)]

    def train(block):
        return _train_block(config, x, block, y, w, train_mask, val_mask,
                            n_classes)

    return [outcome for outcomes in _map_threads(train, blocks, workers)
            for outcome in outcomes]


def _map_threads(fn, items: list, workers: int) -> list:
    """``[fn(item) for item in items]`` on up to ``workers`` threads.

    Items are handed out in order, one at a time, to whichever thread is
    free; the calling thread works too, so at most
    ``min(workers, len(items), os.cpu_count()) - 1`` threads start, and
    none for ``workers`` 0 or 1. If a call raises, no further item is
    handed out; once every thread has finished, the error of the first
    failed item is raised. Every earlier item was handed out before it and
    has run to the end, so that is the error a serial loop raises.
    """
    threads = min(workers, len(items), os.cpu_count() or 1)
    if threads <= 1:
        return [fn(item) for item in items]
    results: list = [None] * len(items)
    errors: dict = {}
    todo = iter(enumerate(items))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                i, item = (None, None) if errors else next(todo, (None, None))
            if i is None:
                return
            try:
                results[i] = fn(item)
            except BaseException as exc:  # re-raised by the calling thread
                with lock:
                    errors[i] = exc
                return

    helpers = [threading.Thread(target=work, name=f"graphboost-block-{n}")
               for n in range(1, threads)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def _diverged(p: dict, row: int, x: np.ndarray, h0: np.ndarray,
              z: np.ndarray, epoch: int) -> TrainingDiverged:
    """The error for learner ``row`` of the stack, naming the first
    non-finite activation."""
    culprit = "loss"
    one = {name: v[row:row + 1] for name, v in p.items()}
    for name, arr in (("hidden", _preactivation(one, x)), ("head", h0[row]),
                      ("propagated", z[row])):
        if not np.all(np.isfinite(arr)):
            culprit = f"{name} activations"
            break
    return TrainingDiverged(f"non-finite {culprit} at epoch {epoch}",
                            epoch=epoch)


def _train_block(config: AppnpConfig, x: np.ndarray, adjacencies: list,
                 y: np.ndarray, w: np.ndarray, train_mask: np.ndarray,
                 val_mask: np.ndarray, n_classes: int) -> list:
    """Train one learner per graph, all at once; see ``train_candidates``.

    Every learner keeps its row of the stacks until the block ends. A
    learner that stops early or diverges is marked done: it still computes,
    but nothing of it is recorded any more. Slices are independent, so the
    other rows get the same bits as without it.
    """
    size = len(adjacencies)
    init = init_model(config, x.shape[1], n_classes)
    p = {name: np.repeat(getattr(init, name)[None], size, axis=0)
         for name in _PARAMS}
    n = x.shape[0]
    stack = GraphStack(adjacencies, n_classes)
    # Logits stay in the graphs' frames; only dH0 goes back to row order.
    # at[c, i] = c * N + the position of row i in graph c's frame.
    at = stack.from_frame(np.arange(size * n).reshape(size, n))
    targets = _Targets(at, y, w, train_mask, n_classes)
    val = _Targets(at, y, w, val_mask, n_classes)
    # The only C x N x H buffer. Each epoch it holds r = relu(a1) for the
    # current parameters, then the dropped-out hd (in place), then dA1;
    # the validation forward leaves r in it for the next epoch.
    r = _hidden(p, x, out=np.empty((size, n, config.hidden_dim)))

    def logits(h0):
        return stack.run(stack.to_frame(h0), config.teleport,
                         config.prop_steps)

    def val_errors(z):
        return val.errors(_class_argmax(z))

    if config.max_epochs == 0:
        z = logits(_head(p, r))
        losses = targets.losses(_log_softmax(z), p, config.weight_decay)
        errors = val_errors(z)
        return [(AppnpModel(*init.copy_weights(), config),
                 TrainReport(0, errors[i], losses[i], False))
                for i in range(size)]

    adam_m = {name: np.zeros_like(v) for name, v in p.items()}
    adam_v = {name: np.zeros_like(v) for name, v in p.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    dropout_rng = substream(config.seed, "dropout")

    best = {name: v.copy() for name, v in p.items()}
    best_err = [float("inf")] * size
    best_epoch = [-1] * size
    final_loss = [float("nan")] * size
    epochs_run = [0] * size
    early_stopped = [False] * size
    outcomes: list = [None] * size
    done = [False] * size

    for epoch in range(config.max_epochs):
        lr = config.learning_rate * 0.5 * (1.0 + math.cos(
            math.pi * epoch / config.max_epochs))
        dmask = None
        hd = r
        if config.dropout > 0.0:
            dmask = _dropout_mask(dropout_rng, r.shape[1:], config.dropout)
            hd = np.multiply(r, dmask, out=r)
        h0 = _head(p, hd)
        z = logits(h0)
        logp = _log_softmax(z)
        losses = targets.losses(logp, p, config.weight_decay)
        for i, v in enumerate(losses):
            if done[i]:
                continue
            if math.isfinite(v):
                final_loss[i] = v
            else:
                outcomes[i] = _diverged(p, i, x, h0, z, epoch)
                done[i] = True
        if all(done):
            break

        # Free each C x N x K array once it is dead: any one still alive
        # adds its size to the block's peak.
        dz = targets.gradient(logp)
        del h0, z, logp
        dh0 = stack.from_frame(stack.run(dz, config.teleport,
                                         config.prop_steps))
        del dz
        grads = _param_grads(p, x, hd, dmask, dh0, config.weight_decay,
                             scratch=hd)
        del dh0
        t = epoch + 1
        for name, param in p.items():
            adam_m[name] = beta1 * adam_m[name] + (1 - beta1) * grads[name]
            adam_v[name] = (beta2 * adam_v[name]
                            + (1 - beta2) * grads[name] ** 2)
            m_hat = adam_m[name] / (1 - beta1 ** t)
            v_hat = adam_v[name] / (1 - beta2 ** t)
            param -= lr * m_hat / (np.sqrt(v_hat) + eps)

        r = _hidden(p, x, out=r)
        for i, err in enumerate(val_errors(logits(_head(p, r)))):
            if done[i]:
                continue
            epochs_run[i] = t
            if err <= best_err[i]:
                # a tie keeps the later, more-converged parameters but
                # does not reset the patience clock
                for name in _PARAMS:
                    best[name][i] = p[name][i]
            if err < best_err[i]:
                best_err[i], best_epoch[i] = err, epoch
            elif epoch - best_epoch[i] >= config.patience:
                early_stopped[i] = done[i] = True
        if all(done):
            break

    for i in range(size):
        if outcomes[i] is None:
            weights = (best[name][i].copy() for name in _PARAMS)
            outcomes[i] = (AppnpModel(*weights, config),
                           TrainReport(epochs_run[i], best_err[i],
                                       final_loss[i], early_stopped[i]))
    return outcomes


def predict_labels(models: list, x: np.ndarray, adjacencies: list) -> np.ndarray:
    """Hard labels of ``models[c]`` on ``adjacencies[c]`` for every c, as a
    C x N array; row c equals ``predict(models[c], x, adjacencies[c])[0]``
    bit for bit.

    The models must share teleport and prop_steps. Each model's MLP head
    runs on its own, exactly as in ``forward``, so models of different
    hidden widths can share a block; the heads of ``BLOCK_SIZE`` models at
    a time are propagated in one ``GraphStack`` pass, labelled in its
    frame, and only the labels go back to row order. No softmax is
    computed.
    """
    if len(models) != len(adjacencies):
        raise DataError("need one graph per model")
    if any(a.n != x.shape[0] for a in adjacencies):
        raise DataError("adjacency and feature matrix disagree on node count")
    if len({(m.config.teleport, m.config.prop_steps) for m in models}) > 1:
        raise DataError("stacked models must share teleport and prop_steps")
    labels = np.empty((len(models), x.shape[0]), dtype=np.int64)
    for start in range(0, len(models), BLOCK_SIZE):
        block = models[start:start + BLOCK_SIZE]
        h0 = np.stack([_head(p, _hidden(p, x))[0]
                       for p in map(_stacked, block)])
        stack = GraphStack(adjacencies[start:start + BLOCK_SIZE], h0.shape[2])
        z = stack.run(stack.to_frame(h0), block[0].config.teleport,
                      block[0].config.prop_steps)
        labels[start:start + len(block)] = stack.from_frame(_class_argmax(z))
    return labels


def predict(model: AppnpModel, x: np.ndarray,
            adjacency: SparseAdjacency) -> tuple[np.ndarray, np.ndarray]:
    """Hard labels (argmax, lowest index on ties) and softmax probabilities.
    The one-learner reference for ``predict_labels``."""
    z, _ = forward(model, x, adjacency)
    probs = softmax(z)
    return np.argmax(z, axis=1), probs
