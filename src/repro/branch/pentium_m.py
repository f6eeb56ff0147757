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

from repro.isa.instructions import (
    KIND_BRANCH,
    KIND_CALL,
    KIND_IBRANCH,
    KIND_JUMP,
    KIND_RETURN,
)
from repro.sim.config import BranchPredictorConfig

#: :meth:`PentiumMPredictor.execute_branch` flag: a full pipeline-flush
#: misprediction (wrong conditional direction, wrong indirect or return
#: target)
MISPREDICT = 1
#: :meth:`PentiumMPredictor.execute_branch` flag: a BTB miss on a taken
#: direct branch whose direction was right, or on an unconditional direct
#: jump or call. The front end stalls a few cycles until decode resolves
#: the target; no flush occurs and it is not counted as a misprediction.
BUBBLE = 2


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
        self._global_entries = cfg.global_entries
        self._global_tags = [-1] * cfg.global_entries
        self._global_ctr = [0] * cfg.global_entries
        # local predictor: per-PC history table + pattern table of counters
        self._local_entries = cfg.local_entries
        self._local_hist = [0] * cfg.local_entries
        self._local_ctr = [2] * cfg.local_entries  # weakly taken
        self._local_hist_mask = (1 << cfg.local_history_bits) - 1
        # loop predictor
        self._loops: dict[int, _LoopEntry] = {}
        self._loop_capacity = cfg.loop_entries
        self._loop_max_count = cfg.loop_max_count
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
    #
    # Taken conditional/indirect branches shift PC/target bits into the PIR
    # (path history). Statically-determined control flow (direct jumps,
    # calls, returns) is excluded so the path context captures *decisions*;
    # this also lets ESP's B-lists — which record exactly the conditional
    # and indirect branches — reconstruct the PIR evolution during
    # just-in-time training.

    def save_pir(self) -> int:
        return self.pir

    def restore_pir(self, pir: int) -> None:
        self.pir = pir & self._pir_mask

    # -- return address stack (16 entries) ------------------------------------

    def clear_ras(self) -> None:
        """ESP clears the RAS when exiting a pre-execution mode
        (Section 4.1): it may hold speculative frames."""
        self._ras.clear()

    def snapshot_ras(self) -> list[int]:
        """Copy of the RAS, for checkpoint/restore (runahead exit)."""
        return list(self._ras)

    def restore_ras(self, snapshot: list[int]) -> None:
        self._ras = list(snapshot)

    # -- update-free probes (the NONE design point) ---------------------------

    def predict_direction(self, pc: int) -> bool:
        """Predict a conditional branch at ``pc`` (no state updates)."""
        loop = self._loops.get(pc)
        if loop is not None and loop.confidence >= 2 and loop.trip > 0:
            return loop.count < loop.trip
        word = pc >> 2
        gidx = (self.pir ^ word) % self._global_entries
        if self._global_tags[gidx] == word & 0x3FF:
            return self._global_ctr[gidx] >= 2
        lidx = word % self._local_entries
        pidx = (self._local_hist[lidx] ^ word) % self._local_entries
        return self._local_ctr[pidx] >= 2

    def predict_target(self, pc: int, kind: int) -> int | None:
        if kind == KIND_RETURN:
            return self._ras[-1] if self._ras else None
        if kind == KIND_IBRANCH:
            # indexed by PC; dominated by the last-target behaviour that
            # makes monomorphic sites cheap
            return self._ibtb.get(pc)
        return self._btb.get(pc)

    # -- combined round trip -----------------------------------------------

    def execute_branch(self, pc: int, kind: int, taken: bool,
                       target: int, count: bool = True) -> int:
        """Predict, resolve and train one dynamic branch.

        Returns a flag word: :data:`MISPREDICT`, :data:`BUBBLE` or 0.
        ``count=False`` performs the full state update without touching the
        accuracy counters — used for ESP-mode and runahead execution under
        design points that share tables.

        This runs once per dynamic branch of every simulation, so the
        lookups and updates are written out here on locals. A conditional
        makes the one call: its tables learn the outcome through
        :meth:`train_ahead` on the live PIR, exactly as B-list replay
        trains them ahead of time.
        """
        flags = 0
        if kind == KIND_BRANCH:
            # a confident loop entry, else a tagged global hit, else the
            # local predictor (what predict_direction answers)
            loop = self._loops.get(pc)
            if loop is not None and loop.confidence >= 2 and loop.trip > 0:
                predicted = loop.count < loop.trip
            else:
                word = pc >> 2
                gidx = (self.pir ^ word) % self._global_entries
                if self._global_tags[gidx] == word & 0x3FF:
                    predicted = self._global_ctr[gidx] >= 2
                else:
                    lhist = self._local_hist[word % self._local_entries]
                    predicted = self._local_ctr[
                        (lhist ^ word) % self._local_entries] >= 2
            if predicted != taken:
                flags = MISPREDICT
            elif taken and self._btb.get(pc) != target:
                # direction right but target unknown: decode resolves the
                # (direct) target after a short bubble, no flush
                flags = BUBBLE
            self.pir = self.train_ahead(pc, kind, taken, target, self.pir)
        elif kind == KIND_JUMP or kind == KIND_CALL:
            # unconditional direct: a BTB miss is a short decode bubble,
            # not a flush
            btb = self._btb
            if btb.get(pc) != target:
                flags = BUBBLE
            if taken:
                if pc not in btb and len(btb) >= self._btb_capacity:
                    del btb[next(iter(btb))]
                btb[pc] = target
            if kind == KIND_CALL:
                ras = self._ras
                ras.append(pc + 4)
                if len(ras) > 16:
                    del ras[0]
        elif kind == KIND_RETURN:
            ras = self._ras
            if not ras or ras[-1] != target:
                flags = MISPREDICT
            if taken and ras:
                ras.pop()
        elif kind == KIND_IBRANCH:
            ibtb = self._ibtb
            if ibtb.get(pc) != target:
                flags = MISPREDICT
            if taken:
                if pc not in ibtb and len(ibtb) >= self._ibtb_capacity:
                    del ibtb[next(iter(ibtb))]
                ibtb[pc] = target
            # indirect call sites (ICALL) also push a return address
            ras = self._ras
            ras.append(pc + 4)
            if len(ras) > 16:
                del ras[0]
            if taken:
                self.pir = ((self.pir << 2) ^ (pc >> 4) ^ (target >> 6)) \
                    & self._pir_mask
        else:
            raise ValueError(f"not a branch kind: {kind}")
        if count:
            self.predictions += 1
            if flags == MISPREDICT:
                self.mispredictions += 1
        return flags

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

        A conditional updates the loop predictor (which learns fixed trip
        counts), the global table (on a tag hit; it allocates only when
        the local fallback would have mispredicted — classic filtered
        allocation keeps easy branches out of the tagged table), the
        local table and, when taken, the BTB.
        """
        if kind == KIND_BRANCH:
            word = pc >> 2
            loops = self._loops
            loop = loops.get(pc)
            if loop is None:
                if len(loops) >= self._loop_capacity:
                    del loops[next(iter(loops))]
                loop = loops[pc] = _LoopEntry()
            if taken:
                loop.count += 1
                if loop.count > self._loop_max_count:
                    loop.trip = -1
                    loop.confidence = 0
                    loop.count = 0
            else:
                if loop.count == loop.trip:
                    if loop.confidence < 3:
                        loop.confidence += 1
                else:
                    loop.trip = loop.count
                    loop.confidence = 0
                loop.count = 0
            gidx = (pir ^ word) % self._global_entries
            gtag = word & 0x3FF
            gctr = self._global_ctr
            lctr = self._local_ctr
            lhist = self._local_hist
            lidx = word % self._local_entries
            pidx = (lhist[lidx] ^ word) % self._local_entries
            ctr = lctr[pidx]
            if self._global_tags[gidx] == gtag:
                gval = gctr[gidx]
                if taken:
                    if gval < 3:
                        gctr[gidx] = gval + 1
                elif gval:
                    gctr[gidx] = gval - 1
            elif (ctr >= 2) != taken:
                self._global_tags[gidx] = gtag
                gctr[gidx] = 2 if taken else 1
            if taken:
                if ctr < 3:
                    lctr[pidx] = ctr + 1
            elif ctr:
                lctr[pidx] = ctr - 1
            lhist[lidx] = ((lhist[lidx] << 1) | taken) \
                & self._local_hist_mask
            if taken:
                btb = self._btb
                if pc not in btb and len(btb) >= self._btb_capacity:
                    del btb[next(iter(btb))]
                btb[pc] = target
        if taken:
            pir = ((pir << 2) ^ (pc >> 4) ^ (target >> 6)) & self._pir_mask
        return pir

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
