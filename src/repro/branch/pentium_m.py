"""Pentium M branch predictor model.

The baseline machine (Figure 7) models the Pentium M predictor as
reverse-engineered by Uzelac & Milenkovic: a tagged global predictor indexed
by a Path Information Register (PIR) hashed with the branch PC, backed by a
local (per-PC history) predictor, a loop predictor, a 2k-entry BTB for direct
targets, a 256-entry indirect-target BTB (iBTB), and a return address stack.

Two properties of this organisation matter to ESP (Section 3.4 / Figure 12):

* The PIR is tiny but load-bearing: it carries the path context that indexes
  the global tables, so preserving a per-ESP-mode PIR across context switches
  keeps pre-execution from scrambling the normal event's indexing. The
  predictor therefore exposes the PIR for save/restore.
* The tables themselves are large and shared; ESP deliberately lets ESP-mode
  updates flow into the shared tables (except in the design-space variants,
  which the ESP controller builds out of multiple instances of this class).

Determinism: the model is fully deterministic given the update stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import (
    KIND_BRANCH,
    KIND_CALL,
    KIND_IBRANCH,
    KIND_JUMP,
    KIND_RETURN,
)
from repro.sim.config import BranchPredictorConfig


@dataclass
class BranchOutcome:
    """Result of one prediction/update round trip.

    ``mispredicted`` means a full pipeline-flush misprediction (wrong
    conditional direction, wrong conditional/indirect/return target).
    ``minor_bubble`` flags a BTB miss on an *unconditional direct* jump or
    call: the front end stalls a few cycles until decode resolves the
    target, but no flush occurs and it is not counted as a misprediction.
    """

    predicted_taken: bool
    predicted_target: int | None
    mispredicted: bool
    minor_bubble: bool = False


class _LoopEntry:
    __slots__ = ("trip", "count", "confidence")

    def __init__(self) -> None:
        self.trip = -1
        self.count = 0
        self.confidence = 0


class PentiumMPredictor:
    """Deterministic functional model of the Pentium M predictor."""

    def __init__(self, config: BranchPredictorConfig | None = None) -> None:
        self.config = config or BranchPredictorConfig()
        cfg = self.config
        self._pir_mask = (1 << cfg.pir_bits) - 1
        self.pir = 0
        # tagged global predictor: index -> (tag, 2-bit counter)
        self._global_tags = [-1] * cfg.global_entries
        self._global_ctr = [0] * cfg.global_entries
        # local predictor: per-PC history table + pattern table of counters
        self._local_hist = [0] * cfg.local_entries
        self._local_ctr = [2] * cfg.local_entries  # weakly taken
        self._local_hist_mask = (1 << cfg.local_history_bits) - 1
        # loop predictor
        self._loops: dict[int, _LoopEntry] = {}
        self._loop_capacity = cfg.loop_entries
        # target predictors
        self._btb: dict[int, int] = {}
        self._btb_capacity = cfg.btb_entries
        self._ibtb: dict[int, int] = {}
        self._ibtb_capacity = cfg.ibtb_entries
        self._ras: list[int] = []
        # counters
        self.predictions = 0
        self.mispredictions = 0

    # -- path context (the piece ESP replicates per mode) -------------------

    def save_pir(self) -> int:
        return self.pir

    def restore_pir(self, pir: int) -> None:
        self.pir = pir & self._pir_mask

    def _advance_pir(self, pc: int, target: int) -> None:
        # Taken conditional/indirect branches shift PC/target bits into the
        # PIR (path history). Statically-determined control flow (direct
        # jumps, calls, returns) is excluded so the path context captures
        # *decisions*; this also lets ESP's B-lists — which record exactly
        # the conditional and indirect branches — reconstruct the PIR
        # evolution during just-in-time training.
        self.pir = ((self.pir << 2) ^ (pc >> 4) ^ (target >> 6)) \
            & self._pir_mask

    # -- return address stack ------------------------------------------------

    def push_ras(self, return_pc: int) -> None:
        self._ras.append(return_pc)
        if len(self._ras) > 16:
            del self._ras[0]

    def clear_ras(self) -> None:
        """ESP clears the RAS when exiting a pre-execution mode
        (Section 4.1): it may hold speculative frames."""
        self._ras.clear()

    def snapshot_ras(self) -> list[int]:
        """Copy of the RAS, for checkpoint/restore (runahead exit)."""
        return list(self._ras)

    def restore_ras(self, snapshot: list[int]) -> None:
        self._ras = list(snapshot)

    # -- indexing helpers ----------------------------------------------------

    def _global_index(self, pc: int) -> tuple[int, int]:
        idx = (self.pir ^ (pc >> 2)) % len(self._global_ctr)
        tag = (pc >> 2) & 0x3FF
        return idx, tag

    def _local_index(self, pc: int) -> int:
        return (pc >> 2) % len(self._local_hist)

    # -- conditional direction ----------------------------------------------

    def predict_direction(self, pc: int) -> bool:
        """Predict a conditional branch at ``pc`` (no state updates)."""
        loop = self._loops.get(pc)
        if loop is not None and loop.confidence >= 2 and loop.trip > 0:
            return loop.count < loop.trip
        gidx, gtag = self._global_index(pc)
        if self._global_tags[gidx] == gtag:
            return self._global_ctr[gidx] >= 2
        lidx = self._local_index(pc)
        pidx = (self._local_hist[lidx] ^ (pc >> 2)) % len(self._local_ctr)
        return self._local_ctr[pidx] >= 2

    def update_direction(self, pc: int, taken: bool) -> None:
        """Commit the resolved direction of the conditional at ``pc``."""
        # loop predictor learns fixed trip counts
        loop = self._loops.get(pc)
        if loop is None:
            if len(self._loops) >= self._loop_capacity:
                self._loops.pop(next(iter(self._loops)))
            loop = _LoopEntry()
            self._loops[pc] = loop
        if taken:
            loop.count += 1
            if loop.count > self.config.loop_max_count:
                loop.trip = -1
                loop.confidence = 0
                loop.count = 0
        else:
            if loop.count == loop.trip:
                loop.confidence = min(3, loop.confidence + 1)
            else:
                loop.trip = loop.count
                loop.confidence = 0
            loop.count = 0
        # global predictor: update on tag hit; allocate only when the local
        # fallback would have mispredicted (classic filtered allocation —
        # keeps easy branches out of the tagged table)
        gidx, gtag = self._global_index(pc)
        if self._global_tags[gidx] == gtag:
            ctr = self._global_ctr[gidx]
            self._global_ctr[gidx] = min(3, ctr + 1) if taken \
                else max(0, ctr - 1)
        else:
            lidx = self._local_index(pc)
            pidx = (self._local_hist[lidx] ^ (pc >> 2)) % len(self._local_ctr)
            if (self._local_ctr[pidx] >= 2) != taken:
                self._global_tags[gidx] = gtag
                self._global_ctr[gidx] = 2 if taken else 1
        # local predictor
        lidx = self._local_index(pc)
        pidx = (self._local_hist[lidx] ^ (pc >> 2)) % len(self._local_ctr)
        ctr = self._local_ctr[pidx]
        self._local_ctr[pidx] = min(3, ctr + 1) if taken else max(0, ctr - 1)
        self._local_hist[lidx] = ((self._local_hist[lidx] << 1) | taken) \
            & self._local_hist_mask

    # -- targets ---------------------------------------------------------------

    def predict_target(self, pc: int, kind: int) -> int | None:
        if kind == KIND_RETURN:
            return self._ras[-1] if self._ras else None
        if kind == KIND_IBRANCH:
            # indexed by PC with a few path bits folded in; dominated by the
            # last-target behaviour that makes monomorphic sites cheap
            return self._ibtb.get(pc)
        return self._btb.get(pc)

    def update_target(self, pc: int, target: int, kind: int) -> None:
        if kind == KIND_RETURN:
            if self._ras:
                self._ras.pop()
            return
        if kind == KIND_IBRANCH:
            if pc not in self._ibtb and \
                    len(self._ibtb) >= self._ibtb_capacity:
                self._ibtb.pop(next(iter(self._ibtb)))
            self._ibtb[pc] = target
            return
        if pc not in self._btb and len(self._btb) >= self._btb_capacity:
            self._btb.pop(next(iter(self._btb)))
        self._btb[pc] = target

    # -- combined round trip -----------------------------------------------

    def execute_branch(self, pc: int, kind: int, taken: bool,
                       target: int, count: bool = True) -> BranchOutcome:
        """Predict, resolve and train one dynamic branch.

        Returns whether the front end would have mispredicted. ``count=False``
        performs the full state update without touching the accuracy
        counters — used for B-list just-in-time training and for ESP-mode
        execution under design points that share tables.
        """
        mispredicted = False
        minor_bubble = False
        predicted_target = None
        if kind == KIND_BRANCH:
            predicted_taken = self.predict_direction(pc)
            mispredicted = predicted_taken != taken
            if taken and not mispredicted:
                # direction right but target unknown: decode resolves the
                # (direct) target after a short bubble, no flush
                predicted_target = self.predict_target(pc, kind)
                if predicted_target != target:
                    minor_bubble = True
            self.update_direction(pc, taken)
        elif kind in (KIND_JUMP, KIND_CALL):
            # unconditional direct: a BTB miss is a short decode bubble,
            # not a flush
            predicted_taken = True
            predicted_target = self.predict_target(pc, kind)
            minor_bubble = predicted_target != target
        elif kind == KIND_RETURN:
            predicted_taken = True
            predicted_target = self.predict_target(pc, kind)
            mispredicted = predicted_target != target
        elif kind == KIND_IBRANCH:
            predicted_taken = True
            predicted_target = self.predict_target(pc, kind)
            mispredicted = predicted_target != target
        else:
            raise ValueError(f"not a branch kind: {kind}")

        if taken:
            self.update_target(pc, target, kind)
        if kind == KIND_CALL or kind == KIND_IBRANCH:
            # indirect call sites (ICALL) also push a return address
            self.push_ras(pc + 4)
        if taken and kind in (KIND_BRANCH, KIND_IBRANCH):
            self._advance_pir(pc, target)
        if count:
            self.predictions += 1
            if mispredicted:
                self.mispredictions += 1
        return BranchOutcome(predicted_taken, predicted_target, mispredicted,
                             minor_bubble)

    # -- B-list just-in-time training (Section 3.6) --------------------------

    def train_ahead(self, pc: int, kind: int, taken: bool, target: int,
                    pir: int) -> int:
        """Train the direction tables on a branch that has not executed yet,
        using the supplied shadow path context instead of the live PIR.

        This is how ESP's B-List-Direction keeps the predictor "trained on
        branch outcomes of just enough future branches": the replay engine
        walks the recorded entries a preset number of branches ahead of
        execution, advancing a shadow PIR that mirrors what the live PIR
        will be when each branch is actually fetched. Returns the advanced
        shadow PIR. Indirect *targets* are installed separately (and later)
        via :meth:`install_indirect_target`, because the iBTB keeps only the
        most recent target per site — training it too far ahead would
        overwrite the instance about to execute. The RAS is never touched
        (it tracks real execution only).
        """
        saved = self.pir
        self.pir = pir
        try:
            if kind == KIND_BRANCH:
                self.update_direction(pc, taken)
                if taken:
                    self.update_target(pc, target, kind)
            if taken:
                self._advance_pir(pc, target)
            return self.pir
        finally:
            self.pir = saved

    def install_indirect_target(self, pc: int, target: int) -> None:
        """B-List-Target replay: install the recorded target of the indirect
        branch about to execute."""
        if pc not in self._ibtb and len(self._ibtb) >= self._ibtb_capacity:
            self._ibtb.pop(next(iter(self._ibtb)))
        self._ibtb[pc] = target

    # -- replication (Figure 12 design points) --------------------------------

    def clone(self) -> "PentiumMPredictor":
        """Deep copy, for the fully-replicated-tables design point."""
        twin = PentiumMPredictor(self.config)
        twin.pir = self.pir
        twin._global_tags = list(self._global_tags)
        twin._global_ctr = list(self._global_ctr)
        twin._local_hist = list(self._local_hist)
        twin._local_ctr = list(self._local_ctr)
        twin._loops = {pc: self._copy_loop(e) for pc, e in self._loops.items()}
        twin._btb = dict(self._btb)
        twin._ibtb = dict(self._ibtb)
        twin._ras = list(self._ras)
        return twin

    @staticmethod
    def _copy_loop(entry: _LoopEntry) -> _LoopEntry:
        twin = _LoopEntry()
        twin.trip = entry.trip
        twin.count = entry.count
        twin.confidence = entry.confidence
        return twin

    # -- stats ----------------------------------------------------------------

    @property
    def misprediction_rate(self) -> float:
        if not self.predictions:
            return 0.0
        return self.mispredictions / self.predictions
