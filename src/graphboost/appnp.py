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
``train_candidates`` trains its graphs in blocks, with one C x N x H
activation buffer per block, and runs up to ``workers`` blocks at once on
threads. Every epoch of a block runs a few Python loops over its learners,
which hold the interpreter lock, so ``_block_plan`` makes as few blocks as
the byte budget ``BLOCK_BYTES`` on that buffer allows, rounds their number
up to a multiple of the threads, and splits the graphs evenly among them.
The round's dropout masks are drawn once, by the first block to reach each
epoch, and shared by all blocks as packed bits (``_DropoutMasks``); each
block unpacks the masks it uses. A learner that diverges overflows, and
its NaNs spread through its slices only, so each block runs under one
``np.errstate`` that keeps numpy's overflow and invalid-value warnings
quiet, and its non-finite loss reports it. A block keeps its learners'
parameters as one C x P slab, a row per learner with named views of its
weights and biases, and its Adam moments, gradients and best parameters
as slabs of that shape, so that each Adam update is one pass over each
quantity. A learner stays in its block only while it trains: at the end of
the epoch in which it diverges, stops early or reaches ``max_epochs``, its
outcome is recorded and it leaves, and the block keeps only the other
learners' rows of every stack, with its graph stack and targets rebuilt
over their graphs, so no learner is computed after its last epoch.
``forward``, ``backward``, ``propagate`` and ``train_weak`` are the C = 1
case of the same code. Each epoch's validation forward pass labels every
row; a learner keeps the labels of the epoch whose parameters it keeps, so
a round's candidates need no labelling pass after training.

A prediction group is one ``StoredRun``: learners that share one
``graph.CandidateGraph`` over the stored rows, their teleport, prop_steps
and hidden width, made once and never saved; it rejects learners that
differ in any of the three. It keeps the graph and the learners' weights
in one stack, transposed and contiguous, so that each layer of their
heads is one ``np.matmul`` with the bits of a one-learner product. A
stored row's head does not depend on the graph, so it computes the K - 1
head differences of its learners over the stored rows once. It
propagates those C(K - 1) lines on the stored graph alone, as the lines
of a one-graph ``GraphStack``, the engine that training runs too, and
keeps the stored rows' labels and the k prefix sums of that run.
``new_labels`` joins new rows into its graph for the group's k steps, a
``graph.Cone``, and computes their differences for the new rows only;
``Cone.run`` places the stored and new lines on the cone and propagates
only the cone, seeded from those prefix sums, with the bits of a full run
over all rows, in blocks of learners whose lines over the cone fit
``BLOCK_BYTES``. New rows whose values overflow a model's head make its
propagated differences non-finite, inf - inf in the prefix sums, and
``new_labels`` raises ``DataError`` then, without numpy's warnings.

Training and prediction propagate K - 1 logit differences, not K
logits. Softmax, cross-entropy and argmax do not change when one value is
added to all logits of a row, and the propagation is linear and treats
every class line alike, so propagating H0[..., k] - H0[..., 0] for k >= 1
behind a line of zeros for class 0 gives the same loss, gradients and
labels in real arithmetic, and the same up to rounding in floats. For the
usual K = 2 that halves the propagation work. ``_class_argmax`` takes the
K - 1 differences, with class 0 an implicit zero. Back through it, class k
of dH0 is its propagated line of dZ, and class 0 is minus their sum.
``forward``, ``backward``, ``loss`` and ``predict`` stay the K-line
references, and a model keeps its K heads.

Training works in the propagation frame of ``GraphStack``: line-major
(K, C, N), class k of learner c at the rows in its graph's sorted order.
The differences of the MLP head's output H0 (C x N x K, row order) are
gathered into it, and the K x C x N training logits, their log-softmax,
the logit gradient dZ, the (K - 1) x C x N validation differences and the
validation labels never leave it; only log-softmax needs the zero line of
class 0. Over K classes, the class maximum, softmax sum and argmax are then
elementwise operations between K whole lines of C x N values instead of
reductions along a short last axis, which cost far more per element; the
softmax sum adds the K lines in class order. Labels take the smallest
integer type that holds K - 1. Each learner's loss terms and validation
rows are read back in row order through flat indices made once per block,
and every weighted sum adds them in that order. Each epoch, only dH0
leaves the frame, back to row order, because the parameter gradients
multiply it with the row-ordered activations; the labels of each learner's
best epoch go back once, when it leaves the block.
``loss`` and ``backward`` use the same code on a one-learner frame in row
order.
"""

import logging
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DataError, TrainingDiverged
from .graph import (CandidateGraph, GraphStack, SparseAdjacency, _map_threads,
                    _thread_count)
from .rng import substream

log = logging.getLogger("graphboost.appnp")

# Each propagation step costs one multiply per pass; without a bound, a
# model file claiming 2**70 steps would make predict never finish.
MAX_PROP_STEPS = 10_000

# The weights and every N x H activation grow with the hidden width; without
# a bound, a config or model file claiming 10**15 units fails in numpy's
# allocator, or before it, instead of as bad input.
MAX_HIDDEN_DIM = 10_000

# Byte budget of a block's largest per-learner buffer: the C x N x H
# activations in training, the K lines over a cone in labelling. It caps
# the learners per block, at 10 for training at N = 2000 and H = 16, and
# never below 1. A block runs the per-learner Python loops of every epoch,
# which hold the interpreter lock, so a few large blocks train a round
# faster than many small ones: on two threads the 16 distinct candidates
# of a ``fit-mixed`` round train in two blocks of 8. Memory grows with the
# block, and ``train_candidates`` keeps up to ``workers`` blocks live at
# once.
BLOCK_BYTES = 5 * 2**19

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
        if not 1 <= self.hidden_dim <= MAX_HIDDEN_DIM:
            raise DataError(f"hidden_dim must be in [1, {MAX_HIDDEN_DIM}]")
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


def _views(slab: np.ndarray, shapes: list) -> dict:
    """The stacked (w1, b1, w2, b2) of C learners as views of a (C, P)
    slab whose row c holds learner c's parameters flat, in that order,
    with the one-learner ``shapes``."""
    views, start = {}, 0
    for name, shape in zip(_PARAMS, shapes):
        stop = start + math.prod(shape)
        views[name] = slab[:, start:stop].reshape((len(slab),) + shape)
        start = stop
    return views


def _transposed(w: np.ndarray) -> np.ndarray:
    """The C x B x A contiguous transpose of stacked C x A x B weights.
    ``np.matmul`` multiplies by it several times faster than by the
    transposed view, with different bits."""
    return np.ascontiguousarray(w.transpose(0, 2, 1))


def _affine(x: np.ndarray, wt: np.ndarray, b: np.ndarray,
            out=None) -> np.ndarray:
    """x @ W^T + b for C learners, from their C x A x B contiguous
    transposed weights ``wt`` and C x B biases ``b``: C x N x B."""
    out = np.matmul(x, wt, out=out)
    out += b[:, None, :]
    return out


def _preactivation(p: dict, x: np.ndarray, out=None) -> np.ndarray:
    """x @ W1^T + b1 for every learner of the stack ``p``: C x N x H."""
    return _affine(x, _transposed(p["w1"]), p["b1"], out)


def _hidden(p: dict, x: np.ndarray, out=None) -> np.ndarray:
    """relu(x @ W1^T + b1): C x N x H."""
    out = _preactivation(p, x, out)
    return np.maximum(out, 0.0, out=out)


def _head(p: dict, hd: np.ndarray) -> np.ndarray:
    """hd @ W2^T + b2: C x N x K."""
    return _affine(hd, _transposed(p["w2"]), p["b2"])


def _dropout_mask(rng: np.random.Generator, shape: tuple,
                  rate: float) -> np.ndarray:
    """Inverted-dropout multipliers: 0 or 1 / keep."""
    keep = 1.0 - rate
    return (rng.random(shape) < keep) / keep


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Log-softmax over the class axis 0 of a line-major (K, ...) array.
    Its class sum adds one whole line at a time, in class order."""
    shifted = z - z.max(axis=0, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=0, keepdims=True))
    return shifted


def _class_argmax(d: np.ndarray) -> np.ndarray:
    """``np.argmax`` over K classes of logits given, up to one shift per
    element, by the K - 1 differences from class 0 of a line-major
    (K - 1, ...) array, class 0 being an implicit zero: the first maximum
    wins, and so does the first NaN. The labels are of the smallest
    integer type that holds K - 1, 1 byte up to 256 classes."""
    labels = np.zeros(d.shape[1:], dtype=np.min_scalar_type(len(d)))
    best = 0.0
    for j, row in enumerate(d, start=1):
        # row > best, or row is NaN; but a NaN, once best, stays best
        np.putmask(labels, ~(row <= best) & (best == best), j)
        # the value of the class labelled so far, up to the sign of a zero
        best = np.maximum(best, row)
    return labels


class _Targets:
    """The labels and sample weights of the rows of ``mask``, placed for
    the line-major (K, C, N) logits of C learners: ``at[c, i]`` is
    c * N plus the position of row i in learner c's frame.

    The methods work on whole frames, elementwise, except for the index
    passes that read the masked rows back in row order, so that each
    learner's weighted sum adds its terms in the order of the rows,
    whatever its graph's sort, and the one that subtracts 1 at each masked
    row's true class. The index arrays are C x (masked rows) and the
    weights (1, C, N); nothing is K x C x N but the frames.

    ``loss=False`` leaves out what only ``losses`` and ``gradient`` read,
    and ``errors=False`` what only ``errors`` reads.
    """

    def __init__(self, at: np.ndarray, y: np.ndarray, w: np.ndarray,
                 mask: np.ndarray, *, loss: bool = True, errors: bool = True):
        c, n = at.shape
        self._w = w[mask]
        self._total = self._w.sum()
        if self._total <= 0.0:
            raise DataError("masked sample weights sum to zero")
        self._share = self._w / self._total
        self._y = y[mask]
        at = at[:, mask]
        if errors:
            self._at = at
        if not loss:
            return
        # flat position of logp[y_i, c, position of row i] in the frame
        self._true = at + self._y * (c * n)
        weight = np.zeros(c * n)
        weight[at] = self._share
        self._weight = weight.reshape(1, c, n)
        outside = np.ones(c * n, dtype=bool)
        outside[at] = False
        self._outside = outside.reshape(1, c, n)

    def losses(self, logp: np.ndarray, p: dict,
               weight_decay: float) -> list[float]:
        """``loss`` of every learner of the stack ``p``, from the
        log-softmax of its logits."""
        ce = -np.take(logp, self._true)
        # one dot per learner and one decay sum per layer, each learner's
        # with the bits of a one-graph run
        decay = weight_decay * (np.sum(p["w1"] ** 2, axis=(1, 2))
                                + np.sum(p["w2"] ** 2, axis=(1, 2)))
        return [float(np.dot(self._w, ce[c]) / self._total + decay[c])
                for c in range(ce.shape[0])]

    def gradient(self, logp: np.ndarray) -> np.ndarray:
        """d(loss)/dZ of the cross-entropy term, in the frame, from the
        log-softmax ``logp`` of the logits, which it overwrites when it is
        C-contiguous."""
        # C order, so that the flat view below is one
        dz = np.exp(logp, out=logp if logp.flags.c_contiguous else None,
                    order="C")
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
    return (np.ascontiguousarray(z.T)[:, None],
            _Targets(np.arange(n)[None], y, w, mask))


def _differences(h0: np.ndarray) -> np.ndarray:
    """The K - 1 logit differences h0[..., k] - h0[..., 0], k >= 1, of head
    outputs ``h0`` with K classes on the last axis."""
    return h0[..., 1:] - h0[..., :1]


def _with_zero_line(d: np.ndarray) -> np.ndarray:
    """The (K, ...) logits, up to one shift per row, of (K - 1, ...)
    propagated differences ``d``: class 0 is a line of zeros."""
    return np.concatenate([np.zeros((1,) + d.shape[1:]), d])


def _frame_differences(stack: GraphStack, h0: np.ndarray, teleport: float,
                       steps: int) -> np.ndarray:
    """The propagated differences h0[..., k] - h0[..., 0], k >= 1, of the
    C x N x K head outputs ``h0``, as a (K - 1, C, N) frame of ``stack``:
    what ``_class_argmax`` labels from."""
    return stack.run(stack.to_frame(_differences(h0)), teleport, steps)


def _frame_logits(stack: GraphStack, h0: np.ndarray, teleport: float,
                  steps: int) -> np.ndarray:
    """The propagated logits of the C x N x K head outputs ``h0``, as a
    (K, C, N) frame of ``stack``, up to one shift per row: class 0 is a
    line of zeros, and class k >= 1 is the propagated difference
    h0[..., k] - h0[..., 0]."""
    return _with_zero_line(_frame_differences(stack, h0, teleport, steps))


def _frame_head_grad(stack: GraphStack, dz: np.ndarray, teleport: float,
                     steps: int) -> np.ndarray:
    """dH0 in row order, C x N x K and contiguous, through ``_frame_logits``
    from the gradient dZ of its (K, C, N) frame. Class 0 of the frame is
    constant, so its gradient is unused; every other class line is
    propagated back as dd, and since class 0 of the head enters every
    difference with a minus sign, dH0[..., 0] = -dd.sum(-1), summed in row
    order."""
    dd = stack.from_frame(stack.run(dz[1:], teleport, steps))
    return np.concatenate([-dd.sum(axis=-1, keepdims=True), dd], axis=-1)


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
    stack = GraphStack([adjacency])
    frame = stack.to_frame(h0.reshape(1, h0.shape[0], -1))
    return stack.from_frame(stack.run(frame, teleport, steps)).reshape(
        h0.shape)


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
    dz = targets.gradient(_log_softmax(frame))[:, 0].T
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
    model, report, _ = outcome
    return model, report


def train_candidates(config: AppnpConfig, x: np.ndarray, adjacencies: list,
                     y: np.ndarray, w: np.ndarray, train_mask: np.ndarray,
                     val_mask: np.ndarray, n_classes: int | None = None,
                     workers: int = 0) -> list:
    """``train_weak`` on every graph of ``adjacencies``, in the blocks of
    ``_block_plan``, with up to ``workers`` blocks at once on threads.

    Returns one entry per graph, in order: ``(model, report, labels)``, or
    the ``TrainingDiverged`` that ``train_weak`` raises for that graph.
    ``model`` and ``report`` equal a one-graph ``train_weak`` run bit for
    bit, whatever ``workers`` is. ``labels`` are the learner's hard labels
    of all N rows, in row order, from the validation forward pass that
    chose ``model``'s parameters (at ``max_epochs`` 0, the initial ones):
    ``StoredRun([model], ...).labels`` on that graph, bit for bit and of its
    type, 1 byte up to 256 classes.
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
    shape = (x.shape[0], config.hidden_dim)
    blocks = [adjacencies[s] for s in _block_plan(
        len(adjacencies), 8 * math.prod(shape), workers)]
    log.debug("training %d graphs in blocks of %s on %d thread(s)",
              len(adjacencies), [len(b) for b in blocks],
              _thread_count(workers, len(blocks)))
    masks = _DropoutMasks(config, shape)

    def train(block):
        # numpy's error state does not pass to the threads that run the
        # blocks, so each block enters its own scope
        with np.errstate(over="ignore", invalid="ignore"):
            return _train_block(config, x, block, y, w, train_mask,
                                val_mask, n_classes, masks)

    return [outcome for outcomes in _map_threads(train, blocks, workers)
            for outcome in outcomes]


def _block_plan(count: int, item_bytes: int, workers: int) -> list:
    """Slices that split ``count`` items, in order, into blocks for
    ``_map_threads``: blocks of at most ``BLOCK_BYTES // item_bytes``
    items, or of 1, and as few as that allows, their number rounded up to
    a multiple of the threads that will run them while there are items
    enough. Block sizes differ by at most 1, larger blocks first."""
    if count == 0:
        return []
    cap = max(1, BLOCK_BYTES // max(1, item_bytes))
    threads = _thread_count(workers, count)
    blocks = -(-count // cap)
    blocks = min(count, -(-blocks // threads) * threads)
    size, extra = divmod(count, blocks)
    bounds = [b * size + min(b, extra) for b in range(blocks + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


class _DropoutMasks:
    """The dropout multipliers of a round, one N x H mask per epoch,
    shared by all its blocks. Epoch e's mask is the (e + 1)-th
    ``_dropout_mask`` draw from the seed's "dropout" stream: the first
    block to reach epoch e draws it, under a lock, and it is kept as
    packed bits, N x H / 8 bytes. Every call unpacks its epoch's bits
    afresh, outside the lock; ``bits / keep`` has the bits of
    ``_dropout_mask``."""

    def __init__(self, config: AppnpConfig, shape: tuple):
        self._rng = substream(config.seed, "dropout")
        self._shape = shape
        self._keep = 1.0 - config.dropout
        self._packed: list = []
        self._lock = threading.Lock()

    def __call__(self, epoch: int) -> np.ndarray:
        with self._lock:
            while len(self._packed) <= epoch:
                self._packed.append(np.packbits(
                    self._rng.random(self._shape) < self._keep))
            packed = self._packed[epoch]
        bits = np.unpackbits(packed, count=math.prod(self._shape))
        return bits.reshape(self._shape) / self._keep


def _diverged(config: AppnpConfig, p: dict, row: int, x: np.ndarray,
              hd: np.ndarray, adjacency: SparseAdjacency,
              epoch: int) -> TrainingDiverged:
    """The error for learner ``row`` of the stack, naming the first
    non-finite activation. Its head and propagated activations are
    computed again here from the dropped-out hidden activations ``hd``,
    so that an epoch need not keep them."""
    culprit = "loss"
    one = {name: v[row:row + 1] for name, v in p.items()}
    h0 = _head(one, hd[row:row + 1])
    z = _frame_logits(GraphStack([adjacency]), h0, config.teleport,
                      config.prop_steps)
    for name, arr in (("hidden", _preactivation(one, x)), ("head", h0),
                      ("propagated", z)):
        if not np.all(np.isfinite(arr)):
            culprit = f"{name} activations"
            break
    return TrainingDiverged(f"non-finite {culprit} at epoch {epoch}",
                            epoch=epoch)


def _train_block(config: AppnpConfig, x: np.ndarray, adjacencies: list,
                 y: np.ndarray, w: np.ndarray, train_mask: np.ndarray,
                 val_mask: np.ndarray, n_classes: int,
                 masks: _DropoutMasks) -> list:
    """Train one learner per graph, all at once, with the dropout masks
    ``masks``; see ``train_candidates``.

    A learner stays in the block only while it trains. At the end of the
    epoch in which it diverges, stops early or reaches ``max_epochs``, it
    leaves: ``leave`` records its outcome, the other learners' rows of
    every stack move up, and the graph stack and targets are rebuilt over
    their graphs. Slices are independent, so they keep their bits.
    """
    init = init_model(config, x.shape[1], n_classes)
    shapes = [getattr(init, name).shape for name in _PARAMS]
    # Row c of the slab holds learner c's parameters, flat; the Adam
    # moments, the gradients and the best parameters are slabs of the same
    # layout, so Adam makes one pass per quantity and one assignment keeps
    # the best.
    slab = np.repeat(np.concatenate(
        [getattr(init, name).ravel() for name in _PARAMS])[None],
        len(adjacencies), axis=0)
    p = _views(slab, shapes)
    n = x.shape[0]
    # the index in ``adjacencies`` of the learner at each row of the stacks
    ids = list(range(len(adjacencies)))
    outcomes: list = [None] * len(ids)

    def frames():
        # Logits stay in the graphs' frames; only dH0 goes back to row
        # order. at[c, i] = c * N + the position of row i in graph c's frame.
        stack = GraphStack([adjacencies[i] for i in ids])
        at = stack.from_frame(np.arange(len(ids) * n).reshape(len(ids), n))
        return (stack, _Targets(at, y, w, train_mask, errors=False),
                _Targets(at, y, w, val_mask, loss=False))

    def logits(h0):
        return _frame_logits(stack, h0, config.teleport, config.prop_steps)

    def leave(rows, epochs, stopped=()):
        """Record the outcomes of the learners at ``rows`` of the stacks:
        the error of one that diverged, else its best parameters, a report
        after ``epochs`` epochs and its labels in row order."""
        params = _views(best, shapes)
        labels = stack.from_frame(best_labels)
        for i in rows:
            outcomes[ids[i]] = failed[i] if i in failed else (
                AppnpModel(*(params[name][i].copy() for name in _PARAMS),
                           config),
                TrainReport(epochs, float(best_err[i]), losses[i],
                            i in stopped),
                labels[i])

    stack, targets, val = frames()
    # The only C x N x H buffer. Each epoch it holds r = relu(a1) for the
    # current parameters, then the dropped-out hd (in place), then dA1;
    # the validation forward leaves r in it for the next epoch.
    r = _hidden(p, x, out=np.empty((len(ids), n, config.hidden_dim)))
    adam_m = np.zeros_like(slab)
    adam_v = np.zeros_like(slab)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    best = slab.copy()
    # the labels of the best parameters, in the frame
    best_labels = np.zeros((len(ids), n),
                           dtype=np.min_scalar_type(n_classes - 1))
    best_err = np.full(len(ids), np.inf)
    best_epoch = np.full(len(ids), -1)
    failed: dict = {}  # row of the stacks: the error of its divergence
    if config.max_epochs == 0:
        z = logits(_head(p, r))
        losses = targets.losses(_log_softmax(z), p, config.weight_decay)
        best_labels = _class_argmax(z[1:])
        best_err = val.errors(best_labels)
        leave(range(len(ids)), 0)
        return outcomes

    for epoch in range(config.max_epochs):
        lr = config.learning_rate * 0.5 * (1.0 + math.cos(
            math.pi * epoch / config.max_epochs))
        dmask = None
        hd = r
        if config.dropout > 0.0:
            dmask = masks(epoch)
            hd = np.multiply(r, dmask, out=r)
        # Free each C x N x K array once it is dead: any one still alive
        # adds its size to the block's peak.
        logp = _log_softmax(logits(_head(p, hd)))
        losses = targets.losses(logp, p, config.weight_decay)
        failed = {i: _diverged(config, p, i, x, hd, adjacencies[ids[i]],
                               epoch)
                  for i, v in enumerate(losses) if not math.isfinite(v)}
        if len(failed) == len(ids):
            leave(failed, epoch)
            break

        dz = targets.gradient(logp)
        del logp
        dh0 = _frame_head_grad(stack, dz, config.teleport,
                               config.prop_steps)
        del dz
        grads = _param_grads(p, x, hd, dmask, dh0, config.weight_decay,
                             scratch=hd)
        grads = np.concatenate([grads[name].reshape(len(ids), -1)
                                for name in _PARAMS], axis=1)
        del dh0
        t = epoch + 1
        # a square that overflows makes that parameter's second moment
        # inf, which only zeroes its step
        adam_m = beta1 * adam_m + (1 - beta1) * grads
        adam_v = beta2 * adam_v + (1 - beta2) * grads ** 2
        m_hat = adam_m / (1 - beta1 ** t)
        v_hat = adam_v / (1 - beta2 ** t)
        slab -= lr * m_hat / (np.sqrt(v_hat) + eps)

        r = _hidden(p, x, out=r)
        labels = _class_argmax(_frame_differences(
            stack, _head(p, r), config.teleport, config.prop_steps))
        err = np.array(val.errors(labels))
        # a tie keeps the later, more-converged parameters and their labels
        # but does not reset the patience clock
        kept, better = err <= best_err, err < best_err
        best[kept] = slab[kept]
        best_labels[kept] = labels[kept]
        del labels
        best_err[better], best_epoch[better] = err[better], epoch
        stopped = np.flatnonzero(
            ~better & (epoch - best_epoch >= config.patience)).tolist()

        stay = [] if t == config.max_epochs else [
            i for i in range(len(ids)) if i not in failed and i not in stopped]
        if len(stay) == len(ids):
            continue
        leave([i for i in range(len(ids)) if i not in stay], t, stopped)
        if not stay:
            break
        # The survivors' activations move up in place, a row at a time (a
        # row onto itself copies nothing): a gathered copy would add up to
        # a whole buffer to the block's peak.
        for row, i in enumerate(stay):
            r[row] = r[i]
        r = r[:len(stay)]
        slab, adam_m, adam_v, best, best_labels, best_err, best_epoch = (
            a[stay] for a in (slab, adam_m, adam_v, best, best_labels,
                              best_err, best_epoch))
        p = _views(slab, shapes)
        ids = [ids[i] for i in stay]
        stack, targets, val = frames()
    return outcomes


def _labels(d: np.ndarray, count: int) -> np.ndarray:
    """Labels of ``count`` models from their C(K - 1) propagated difference
    lines, model by model: a (C, n) array."""
    lines, n = d.shape
    return _class_argmax(d.reshape(count, lines // count, n).swapaxes(0, 1))


class StoredRun:
    """One prediction group: models that share one ``CandidateGraph`` over
    stored rows, their teleport, prop_steps and hidden width, made once
    for many calls and never saved. It keeps the graph, the models'
    first- and second-layer weights stacked, transposed and contiguous,
    and their biases, and their K - 1 head differences over the stored
    rows; the first call that needs them makes the prefix sums that k
    propagation steps of those lines on the stored graph alone take
    (k x C(K - 1) x (N + 1) floats) and the stored rows' labels from that
    run. All of these are read-only.

    ``differences`` runs each layer as one ``np.matmul``, which calls
    BLAS once per model with the shapes of a one-model call, and every
    other operation is elementwise, so each model's lines have the bits
    of its own head, ``_head(_hidden(.))``, over the same rows. A row's
    bits can depend on the other rows of ``x``, as BLAS blocks the
    product by its shape.

    ``labels`` equals a one-model ``predict`` of the stored rows except
    where two classes' logits lie within rounding of each other, and a
    one-model run bit for bit; training labels its learners in the
    training pass, with the same bits (``train_candidates``).
    ``new_labels`` joins new rows into the graph for the group's k steps
    and labels them on that ``Cone``, with the bits of a full run over the
    stored rows followed by the new rows. A cone whose windows reach the
    first stored row, as a batch's does, reads no prefix sum but 0, so it
    runs without them.
    """

    def __init__(self, models: list, x: np.ndarray, graph: CandidateGraph):
        if not models:
            raise DataError("a stored run needs at least one model")
        if graph.adjacency.n != x.shape[0]:
            raise DataError("graph and stored rows disagree on node count")
        if len({(m.config.teleport, m.config.prop_steps, m.b1.size)
                for m in models}) > 1:
            raise DataError("stacked models must share teleport, "
                            "prop_steps and hidden width")
        p = {name: np.stack([getattr(m, name) for m in models])
             for name in _PARAMS}
        self._w1t, self._b1 = _transposed(p["w1"]), p["b1"]
        self._w2t, self._b2 = _transposed(p["w2"]), p["b2"]
        self.graph = graph
        self.count = len(models)
        cfg = models[0].config
        self.teleport = cfg.teleport
        # the steps that read the graph
        self.steps = 0 if cfg.teleport == 1.0 else cfg.prop_steps
        self.stored = self.differences(x)
        self.stored.flags.writeable = False
        self._run = None
        self._lock = threading.Lock()

    def differences(self, x: np.ndarray) -> np.ndarray:
        """The K - 1 logit differences of every model's head over the rows
        ``x``: C(K - 1) x N lines, line c(K - 1) + k - 1 being
        h[:, k] - h[:, 0] of model c."""
        hidden = _affine(x, self._w1t, self._b1)
        np.maximum(hidden, 0.0, out=hidden)
        d = _differences(_affine(hidden, self._w2t, self._b2))
        c, n, width = d.shape
        return d.transpose(0, 2, 1).reshape(c * width, n)

    def _stored_run(self) -> tuple:
        """The prefix sums and labels of the run over the stored rows."""
        if self._run is None:
            with self._lock:
                if self._run is None:
                    self._run = self._propagate()
        return self._run

    def _propagate(self) -> tuple:
        adjacency = self.graph.adjacency
        w, n = self.stored.shape
        stack = GraphStack([adjacency])
        prefixes = np.empty((self.steps, w, 1, n + 1))
        z = stack.run(self.stored.take(adjacency.order, axis=1)[:, None],
                      self.teleport, self.steps, prefixes)
        prefixes = prefixes.reshape(self.steps, w, n + 1)
        sorted_labels = _labels(z[:, 0], self.count)
        labels = np.empty_like(sorted_labels)
        labels[:, adjacency.order] = sorted_labels
        for array in (prefixes, labels):
            array.flags.writeable = False
        return prefixes, labels

    @property
    def prefixes(self) -> np.ndarray:
        return self._stored_run()[0]

    @property
    def labels(self) -> np.ndarray:
        return self._stored_run()[1]

    def new_labels(self, new_x: np.ndarray) -> np.ndarray:
        """Labels of the new rows ``new_x`` (at least one), joined into the
        graph by their column of its feature for ``steps`` steps: a C x m
        array. Raises DataError where the new rows' values overflow a
        model: an inf head makes inf - inf in the prefix sums, which turns
        the later rows of the cone NaN. It names the first new row whose
        propagated differences are not finite, in the first block of
        models that has one."""
        cone = self.graph.join(new_x[:, self.graph.feature], self.steps)
        prefixes = self.prefixes if cone.left[0] else None
        width = self.stored.shape[0] // self.count
        labels = np.empty((self.count, len(new_x)),
                          dtype=np.min_scalar_type(width))
        # models in blocks whose K lines over the cone fit BLOCK_BYTES: a
        # batch over many stored rows would otherwise hold temporaries
        # large enough to be mapped afresh, page by page, on every call
        # (one row's cone fits in one block)
        per = max(1, BLOCK_BYTES // (8 * cone.order.size * (width + 1)))
        with np.errstate(over="ignore", invalid="ignore"):
            new = self.differences(new_x)
            for first in range(0, self.count, per):
                stop = min(first + per, self.count)
                lines = slice(first * width, stop * width)
                d = cone.run(None if prefixes is None
                             else prefixes[:, lines], self.stored[lines],
                             new[lines], self.teleport)
                if not np.isfinite(d).all():
                    row = np.isfinite(d).all(axis=0).argmin()
                    raise DataError(f"new row {row}: its propagated logits "
                                    "overflow the model")
                labels[first:stop] = _labels(d, stop - first)
        return labels


def predict(model: AppnpModel, x: np.ndarray,
            adjacency: SparseAdjacency) -> tuple[np.ndarray, np.ndarray]:
    """Hard labels (argmax, lowest index on ties) and softmax probabilities.
    The one-learner, K-line reference for ``StoredRun`` and for the
    labels of ``train_candidates``."""
    z, _ = forward(model, x, adjacency)
    probs = softmax(z)
    return np.argmax(z, axis=1), probs
