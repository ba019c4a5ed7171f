"""Binary particle swarm optimizers for wrapper feature selection.

Two optimizers share one driver:

* The XOR optimizer keeps position, velocity, and the memory bests as 0/1
  vectors.  A velocity bit is recomputed each iteration from the inertia
  term plus two random multiples of the disparities (bitwise XOR) between
  the current position and the personal and global bests, then thresholded
  at 0.5; the position flips exactly where the velocity bit is 1.
* The baseline optimizer is a conventional sigmoid-transfer binary PSO:
  real-valued velocity with cognitive/social coefficients, clamped, and the
  position re-sampled per bit with probability ``sigmoid(velocity)``.

Fitness is two-phase: below the accuracy threshold a particle scores its
raw validation accuracy; at or above it, the score becomes
``2 - selected/total`` so threshold-achieving particles always outrank the
rest and then compete on sparsity alone.

The swarm is held as P×n arrays (one row per particle), so each move rule
is a few array expressions that act on a block of rows.

Determinism: a run is driven by one caller-supplied generator with a fixed
draw order: one ``rng.random((P, n, c))`` block at the start of every
iteration, c = 2 for the XOR optimizer and 3 for the baseline; row i is
particle i's block, laid out bit-major.  Evaluation draws nothing, and an
evaluation that stops once it cannot beat its particle's personal best
changes nothing; a mask that selects too many features to beat it at any
accuracy stops after its first chunk of validation rows.  Particles are
evaluated one at a time on the calling thread.  Given (generator state,
config, dataset), every trace field except ``elapsed_ms`` is reproducible
bit-for-bit.  :func:`run_seeded` is the one place that turns a seed
number into those generators.
"""

from __future__ import annotations

import bisect
import json
import time
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path
from typing import Callable

import numpy as np

from .classify import KnnConfig, knn_accuracy
from .data import SplitDataset, check_integer, check_real
from .rank import MiScores, check_swarm_size, seed_masks

ASYNCHRONOUS = "asynchronous"
SYNCHRONOUS = "synchronous"

# fitness of an all-zero mask: below that of every non-empty mask, but
# above the -inf a best starts at, so an all-zero initial mask becomes its
# particle's personal best, and the global best if every initial mask is
# all-zero; a later all-zero mask never replaces a best
EMPTY_MASK_FITNESS = -1.0

BRUTE_FORCE_MAX_FEATURES = 20


def selected_count(mask: np.ndarray) -> int:
    """Number of selected features (non-zero bits)."""
    return int(np.count_nonzero(mask))


def selected_indices(mask: np.ndarray) -> list[int]:
    """Ascending indices of the selected features."""
    return [int(j) for j in np.flatnonzero(np.asarray(mask) != 0)]


def sigmoid(v):
    """Logistic transfer 1 / (1 + exp(-v))."""
    return 1.0 / (1.0 + np.exp(-np.asarray(v, dtype=np.float64)))


@dataclass(frozen=True)
class PsoConfig:
    """Swarm size, starting inertia, fitness threshold, and evaluation settings."""

    population: int = 100
    iterations: int = 100
    w_initial: float = 1.0
    accuracy_threshold: float = 0.98
    knn: KnnConfig = field(default_factory=KnnConfig)
    update_mode: str = ASYNCHRONOUS

    def __post_init__(self):
        check_integer("population", self.population, minimum=1)
        check_integer("iterations", self.iterations, minimum=1)
        check_real("w_initial", self.w_initial)
        check_real("accuracy_threshold", self.accuracy_threshold)
        if not 0.0 < self.w_initial <= 1.0:
            raise ValueError(f"w_initial must be in (0, 1], got {self.w_initial}")
        if not 0.0 < self.accuracy_threshold <= 1.0:
            raise ValueError(
                f"accuracy_threshold must be in (0, 1], got {self.accuracy_threshold}"
            )
        if self.update_mode not in (ASYNCHRONOUS, SYNCHRONOUS):
            raise ValueError(
                f"update_mode must be {ASYNCHRONOUS!r} or {SYNCHRONOUS!r}, "
                f"got {self.update_mode!r}"
            )


@dataclass(frozen=True)
class BaselineConfig(PsoConfig):
    """Settings that run the conventional binary PSO baseline.

    Its coefficients are the module constants ``C1``, ``C2`` and ``V_CLAMP``.
    """


@dataclass
class SwarmState:
    """Mutable optimizer state shared with per-iteration callbacks.

    Row i of ``position``, ``velocity`` and ``pbest_position`` (P×n) and
    entry i of ``pbest_fitness`` and ``pbest_accuracy`` (length P) belong
    to particle i.  Positions are 0/1 int8; the XOR optimizer stores
    velocity as 0/1 int8, the baseline as real-valued float64.  The
    global best never worsens and re-evaluating ``gbest_position``
    reproduces ``gbest_fitness`` exactly.  A best may be an all-zero mask
    at ``EMPTY_MASK_FITNESS`` when it comes from the initial masks.
    """

    position: np.ndarray
    velocity: np.ndarray
    pbest_position: np.ndarray
    pbest_fitness: np.ndarray
    pbest_accuracy: np.ndarray
    gbest_position: np.ndarray
    gbest_fitness: float
    gbest_accuracy: float

    def commit(self, i: int, evaluation: tuple[float, float]) -> None:
        """Take the evaluation ``(accuracy, fitness)`` of particle i's position.

        A personal or global best moves only on strictly greater fitness, so
        committing particles in index order keeps the lowest index on ties.
        """
        accuracy, fit = evaluation
        if fit > self.pbest_fitness[i]:
            self.pbest_position[i] = self.position[i]
            self.pbest_fitness[i] = fit
            self.pbest_accuracy[i] = accuracy
        if self.pbest_fitness[i] > self.gbest_fitness:
            self.gbest_position = self.pbest_position[i].copy()
            self.gbest_fitness = float(self.pbest_fitness[i])
            self.gbest_accuracy = float(self.pbest_accuracy[i])


@dataclass(frozen=True)
class IterationRecord:
    """One trace row, emitted after each iteration."""

    iteration: int
    gbest_fitness: float
    gbest_accuracy: float
    gbest_selected: int
    inertia: float
    elapsed_ms: float

    def to_dict(self) -> dict:
        return asdict(self)


TRACE_FIELDS = tuple(f.name for f in fields(IterationRecord))


W_DECAY = 0.05
W_PERIOD = 5


def inertia_at(iteration: int, config: PsoConfig) -> float:
    """Inertia weight for a 0-based iteration: stepwise decay, floored at 0.

    ``max(0, w_initial - W_DECAY * floor(iteration / W_PERIOD))``: the weight
    starts at ``config.w_initial`` and loses 0.05 every 5 iterations.
    """
    check_integer("iteration", iteration, minimum=0)
    return max(0.0, config.w_initial - W_DECAY * (iteration // W_PERIOD))


def fitness(accuracy: float, selected: int, total: int, threshold: float) -> float:
    """Two-phase particle score.

    Empty selections get the sentinel -1, below every non-empty mask's
    score (see ``EMPTY_MASK_FITNESS``).  Below the threshold the score is
    the accuracy itself; at or above it the score is ``2 - selected/total``,
    which exceeds 1 and therefore dominates every sub-threshold particle
    while rewarding smaller subsets.
    """
    if selected == 0:
        return EMPTY_MASK_FITNESS
    if accuracy < threshold:
        return float(accuracy)
    return 2.0 - selected / total


def evaluate_particle(
    mask: np.ndarray,
    split: SplitDataset,
    config: PsoConfig,
    bar: float | None = None,
    *,
    misses: np.ndarray | None = None,
) -> tuple[float, float] | None:
    """Validation accuracy and fitness for a mask; (0, -1) for an empty one.

    Identical inputs give identical outputs.  With no ``bar`` every
    validation row is classified.  With a ``bar``, a non-empty mask's
    evaluation stops, returning None, once its fitness can no longer
    exceed ``bar``; when no accuracy could exceed it, it stops after
    one chunk of rows.  ``misses`` is passed to
    :func:`~xorpso.classify.knn_accuracy`, which also rejects a mask of
    the wrong shape, empty or not.
    """
    n_selected = selected_count(mask)
    if n_selected == 0 and np.shape(mask) == (split.feature_count,):
        return 0.0, EMPTY_MASK_FITNESS
    n, threshold = split.feature_count, config.accuracy_threshold
    n_val = split.validation.sample_count
    # fitness never falls as the count of correct rows grows, so the first
    # count whose fitness beats the bar is the target; when none does, the
    # target is n_val + 1 and the evaluation stops after its first chunk
    target = 0 if bar is None else bisect.bisect_right(
        range(n_val + 1), bar, key=lambda c: fitness(c / n_val, n_selected, n, threshold))
    acc = knn_accuracy(split, mask, config.knn, target, misses=misses)
    if acc is None:
        return None
    return acc, fitness(acc, n_selected, n, threshold)


def xor_velocity_update(
    x: np.ndarray,
    v: np.ndarray,
    pbest: np.ndarray,
    gbest: np.ndarray,
    w: float,
    u: np.ndarray,
) -> np.ndarray:
    """Next binary velocity from inertia plus randomly weighted best-disparities.

    Per bit j::

        raw_j = w * V_j + R1_j * (Pbest_j XOR X_j) + R2_j * (Gbest_j XOR X_j)

    with R1 ~ Uniform(-1, 1) and R2 ~ Uniform(0, 1) drawn independently per
    bit, and the new velocity bit is 1 exactly where ``raw_j >= 0.5``.

    ``x``, ``v`` and ``pbest`` are one particle's length-n rows or a
    block of B×n rows; ``gbest`` has length n.  ``u`` holds the
    uniforms, shape ``x.shape + (2,)``: the first column maps to
    ``R1 = 2u - 1`` and the second is R2.
    """
    if gbest.shape != x.shape[-1:]:
        raise ValueError(
            f"gbest length {gbest.shape} does not match position {x.shape}"
        )
    r1 = 2.0 * u[..., 0] - 1.0
    r2 = u[..., 1]
    raw = w * v + r1 * np.bitwise_xor(pbest, x) + r2 * np.bitwise_xor(gbest, x)
    return (raw >= 0.5).astype(np.int8)


def position_update(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Flip the position exactly where the velocity bit is 1: ``x XOR v``."""
    x = np.asarray(x)
    v = np.asarray(v)
    if x.shape != v.shape:
        raise ValueError(f"position {x.shape} and velocity {v.shape} differ in length")
    return np.bitwise_xor(x, v).astype(np.int8)


# the baseline's cognitive and social weights and velocity clamp, the usual
# values of Kennedy & Eberhart's binary PSO
C1 = 2.0
C2 = 2.0
V_CLAMP = 4.0


def baseline_move(
    x: np.ndarray,
    v: np.ndarray,
    pbest: np.ndarray,
    gbest: np.ndarray,
    w: float,
    u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Sigmoid-transfer move: the next real velocity and the resampled position.

    Per bit: ``V' = w*V + C1*R1*(Pbest - X) + C2*R2*(Gbest - X)`` with
    R1, R2 ~ Uniform(0, 1), clamped to ``[-V_CLAMP, V_CLAMP]``; the new
    position bit is 1 with probability ``sigmoid(V')``.  Shapes as in
    :func:`xor_velocity_update`, with three uniform columns: R1, R2 and the
    position-sampling uniform.
    """
    vel = w * v + C1 * u[..., 0] * (pbest - x) + C2 * u[..., 1] * (gbest - x)
    np.clip(vel, -V_CLAMP, V_CLAMP, out=vel)
    return vel, (u[..., 2] < sigmoid(vel)).astype(np.int8)


def _xor_move(x, v, pbest, gbest, w, u):
    vel = xor_velocity_update(x, v, pbest, gbest, w, u)
    return vel, position_update(x, vel)


def _validate_initial_masks(initial_masks, config: PsoConfig, n_features: int):
    """The initial masks as a new ``(population, n_features)`` int8 array.

    Shapes are checked one mask at a time, bits with one whole-array
    expression; a rejection names the first bad mask's index.
    """
    if len(initial_masks) != config.population:
        raise ValueError(
            f"got {len(initial_masks)} initial masks for a population of "
            f"{config.population}"
        )
    for i, mask in enumerate(initial_masks):
        if np.shape(mask) != (n_features,):
            raise ValueError(
                f"initial mask {i} has shape {np.shape(mask)}, expected ({n_features},)"
            )
    masks = np.asarray(initial_masks)
    # checked before the cast, which would truncate 0.5 to 0 and fail on NaN
    bad = ~((masks == 0) | (masks == 1)).all(axis=1)
    if bad.any():
        raise ValueError(f"initial mask {int(np.argmax(bad))} has bits outside {{0, 1}}")
    return masks.astype(np.int8)


def _run_swarm(
    split: SplitDataset,
    config: PsoConfig,
    initial_masks,
    move: Callable,
    velocity_dtype,
    draws: int,
    rng: np.random.Generator,
    on_record,
) -> tuple[np.ndarray, list[IterationRecord]]:
    """Shared driver: init, iterate, update bests, emit one record per iteration.

    ``move(x, v, pbest, gbest, w, u)`` returns the next velocity and
    position of a block of rows; ``u`` has ``draws`` uniform columns per
    bit.  The update mode is a block size: each iteration moves a block of
    rows against the current global best, then evaluates and commits them
    in row order, block after block.  Synchronous mode is one block of P
    rows, so the global best is frozen for the whole iteration;
    asynchronous mode is P blocks of one row, so a discovery by particle i
    moves the global best that particle i+1 sees.
    """
    n = split.feature_count
    check_swarm_size(config.population, n)
    position = _validate_initial_masks(initial_masks, config, n)
    population = config.population
    block = population if config.update_mode == SYNCHRONOUS else 1
    state = SwarmState(
        position=position,
        velocity=np.zeros((population, n), dtype=velocity_dtype),
        pbest_position=position.copy(),
        pbest_fitness=np.full(population, -np.inf),
        pbest_accuracy=np.zeros(population),
        gbest_position=position[0].copy(),
        gbest_fitness=-np.inf,
        gbest_accuracy=0.0,
    )

    # misses per validation row over the run; every evaluation visits the
    # rows most often missed first and adds its misses, so one that cannot
    # beat its particle's best stops early
    miss_counts = np.zeros(split.validation.sample_count, dtype=np.int64)

    def evaluate(rows: slice) -> None:
        """Evaluate the current positions of ``rows`` and commit them in row order.

        An evaluation that stops early (None) could not have changed a best.
        """
        for i in range(population)[rows]:
            evaluation = evaluate_particle(
                state.position[i], split, config, state.pbest_fitness[i],
                misses=miss_counts,
            )
            if evaluation is not None:
                state.commit(i, evaluation)

    # the initial population is evaluated up front so the first velocity
    # update has a defined global best
    evaluate(slice(0, population))

    trace: list[IterationRecord] = []
    for t in range(config.iterations):
        started = time.perf_counter()
        w = inertia_at(t, config)
        u = rng.random((population, n, draws))
        for start in range(0, population, block):
            rows = slice(start, start + block)
            state.velocity[rows], state.position[rows] = move(
                state.position[rows], state.velocity[rows],
                state.pbest_position[rows], state.gbest_position, w, u[rows],
            )
            evaluate(rows)
        record = IterationRecord(
            iteration=t,
            gbest_fitness=state.gbest_fitness,
            gbest_accuracy=state.gbest_accuracy,
            gbest_selected=selected_count(state.gbest_position),
            inertia=w,
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
        )
        trace.append(record)
        if on_record is not None:
            on_record(record, state)
    return state.gbest_position.copy(), trace


def run_xor_pso(
    split: SplitDataset,
    config: PsoConfig,
    initial_masks,
    *,
    rng: np.random.Generator,
    on_record=None,
) -> tuple[np.ndarray, list[IterationRecord]]:
    """Run the XOR optimizer; returns the best mask and the iteration trace.

    Velocities start at all-zero, the initial population is evaluated before
    iteration 0, and personal/global bests only move on strictly greater
    fitness.  ``on_record(record, state)``, when given, fires after every
    iteration.
    """
    return _run_swarm(split, config, initial_masks, _xor_move, np.int8, 2, rng, on_record)


def run_baseline_bpso(
    split: SplitDataset,
    config: BaselineConfig,
    initial_masks,
    *,
    rng: np.random.Generator,
    on_record=None,
) -> tuple[np.ndarray, list[IterationRecord]]:
    """Run the sigmoid-transfer binary PSO baseline (see :func:`baseline_move`).

    Draw order: one ``rng.random((P, n, 3))`` block per iteration; row i
    holds particle i's columns R1, R2 and the position-sampling uniform.
    Best-keeping and tracing match the XOR optimizer.
    """
    if not isinstance(config, BaselineConfig):
        raise TypeError("run_baseline_bpso requires a BaselineConfig")
    return _run_swarm(
        split, config, initial_masks, baseline_move, np.float64, 3, rng, on_record
    )


def run_seeded(
    split: SplitDataset,
    scores: MiScores,
    config: PsoConfig,
    seed: int,
    *,
    on_record=None,
) -> tuple[np.ndarray, list[IterationRecord]]:
    """Seed the initial masks and run one optimizer, all from one seed number.

    ``SeedSequence(seed).spawn(3)`` gives the seeding, XOR and baseline
    streams, in that order.  :func:`~xorpso.rank.seed_masks` draws the masks
    from the seeding stream at its fixed settings (a fifth of the population
    seeded, the top quarter of the features on), so both optimizers start
    from the same masks; a :class:`BaselineConfig` runs
    :func:`run_baseline_bpso` on the baseline stream, any other config runs
    :func:`run_xor_pso` on the XOR stream.
    ``scores`` come from the caller, so one MI scoring serves every run.
    """
    check_integer("seed", seed, minimum=0)
    if scores.feature_count != split.feature_count:
        raise ValueError(f"MI scores cover {scores.feature_count} features, "
                         f"but the split has {split.feature_count}")
    seeding, xor_rng, baseline_rng = (
        np.random.Generator(np.random.PCG64(child))
        for child in np.random.SeedSequence(seed).spawn(3)
    )
    masks = seed_masks(scores, config.population, rng=seeding)
    if isinstance(config, BaselineConfig):
        runner, rng = run_baseline_bpso, baseline_rng
    else:
        runner, rng = run_xor_pso, xor_rng
    return runner(split, config, masks, rng=rng, on_record=on_record)


def brute_force_best(
    split: SplitDataset, config: PsoConfig
) -> tuple[np.ndarray, float]:
    """Exhaustively score every non-empty mask; ground truth for small instances.

    Ties go to the mask with fewer selected features, then to the
    lexicographically smallest bit vector.  A mask whose ceiling, its
    fitness at accuracy 1, is below the best fitness so far is not evaluated,
    which changes no result.  Guarded at
    ``BRUTE_FORCE_MAX_FEATURES`` features since the search is O(2^n).
    """
    n = split.feature_count
    if n > BRUTE_FORCE_MAX_FEATURES:
        raise ValueError(
            f"exhaustive search is limited to {BRUTE_FORCE_MAX_FEATURES} "
            f"features, got {n}"
        )
    bit_positions = np.arange(n)
    best_key, best_mask, best_fit = (np.inf,), None, -np.inf
    for m in range(1, 1 << n):
        mask = ((m >> bit_positions) & 1).astype(np.int8)
        selected = selected_count(mask)
        # no accuracy scores above a perfect one, so a mask whose ceiling is
        # below the best can neither beat nor tie it
        if fitness(1.0, selected, n, config.accuracy_threshold) < best_fit:
            continue
        _, fit = evaluate_particle(mask, split, config)
        key = (-fit, selected, tuple(mask))
        if key < best_key:
            best_key, best_mask, best_fit = key, mask, fit
    return best_mask, float(best_fit)


# --- trace serialization -------------------------------------------------

def read_trace(path) -> list[IterationRecord]:
    """Read a JSONL trace, dropping an unterminated trailing fragment.

    A final line without a newline is an interrupted write and is rejected;
    a malformed line anywhere else raises, as does a field whose value is
    not of its annotated type (an int field takes no float, no field a bool).
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines and lines[-1] != "":
        lines = lines[:-1]  # truncated final line: never valid
    records = []
    for i, line in enumerate(lines):
        if not line:
            continue
        try:
            obj = json.loads(line)
            for f in fields(IterationRecord):
                (check_integer if f.type == "int" else check_real)(f.name, obj[f.name])
            records.append(IterationRecord(**{k: obj[k] for k in TRACE_FIELDS}))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: malformed trace line {i + 1}: {exc}") from None
    return records


class TraceWriter:
    """Streams trace records to disk as JSON lines, flushing after every line.

    The one writer of the trace format.  Long runs stay observable in
    progress; a crash leaves at most one truncated final line, which
    :func:`read_trace` rejects.  The first record makes the file (and its
    directory), so a run rejected before its first iteration leaves neither.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._fh = None

    def __enter__(self):
        return self

    def write(self, record: IterationRecord) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w", encoding="utf-8")
        self._fh.write(json.dumps(record.to_dict()) + "\n")
        self._fh.flush()

    def __exit__(self, *exc):
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        return False
