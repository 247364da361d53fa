"""Branch direction predictors and the branch target buffer.

The frontend consults a direction predictor plus a BTB each time it fetches
a branch; a wrong direction *or* a wrong/unknown target of a taken branch is
a misprediction, which sends the frontend down the wrong path until the
branch executes (paper Sec. III-B).  Perfect prediction — "including perfect
target prediction" — is the paper's bpred idealization.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Fibonacci multiplicative constant used to spread instruction addresses
#: across predictor tables.  Real predictors fold many pc bits into the
#: index; without this, block-aligned code (branches every 512 bytes, say)
#: would alias catastrophically in a low-bit-indexed table.
_HASH_MULT = 2654435761


def _pc_hash(pc: int) -> int:
    return ((pc >> 2) * _HASH_MULT) >> 11


@dataclass(frozen=True, slots=True)
class Prediction:
    """Outcome of one predictor consultation."""

    taken: bool
    #: Predicted target, or None if the BTB has no entry.
    target: int | None

    def correct_for(self, taken: bool, target: int) -> bool:
        """True if this prediction matches the resolved branch."""
        if self.taken != taken:
            return False
        if taken and self.target != target:
            return False
        return True


class BranchTargetBuffer:
    """Direct-mapped branch target buffer with tag matching."""

    __slots__ = ("entries", "_mask", "_table")

    def __init__(self, entries: int) -> None:
        if entries < 1 or entries & (entries - 1):
            raise ValueError("BTB entries must be a positive power of two")
        self.entries = entries
        self._mask = entries - 1
        # index -> (pc tag, target)
        self._table: dict[int, tuple[int, int]] = {}

    def lookup(self, pc: int) -> int | None:
        entry = self._table.get(_pc_hash(pc) & self._mask)
        if entry is not None and entry[0] == pc:
            return entry[1]
        return None

    def update(self, pc: int, target: int) -> None:
        self._table[_pc_hash(pc) & self._mask] = (pc, target)

    def fingerprint(self) -> tuple:
        """Table snapshot for the replay engine's fixed-point check.

        Sorted by index: dict insertion order carries no behaviour here
        (lookups are keyed, never iterated).
        """
        return tuple(sorted(self._table.items()))


class BranchPredictor:
    """Base class: direction predictor combined with a BTB."""

    def __init__(self, btb_entries: int = 1024) -> None:
        self.btb = BranchTargetBuffer(btb_entries)
        self.lookups = 0
        self.mispredicts = 0

    def predict(self, pc: int) -> Prediction:
        """Predict direction and target for the branch at ``pc``."""
        taken = self._predict_direction(pc)
        target = self.btb.lookup(pc) if taken else None
        return Prediction(taken=taken, target=target)

    def update(self, pc: int, taken: bool, target: int) -> None:
        """Train on the resolved branch."""
        self._update_direction(pc, taken)
        if taken:
            self.btb.update(pc, target)

    def record(self, mispredicted: bool) -> None:
        """Bookkeeping used by simulator statistics."""
        self.lookups += 1
        if mispredicted:
            self.mispredicts += 1

    @property
    def mispredict_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.mispredicts / self.lookups

    def fingerprint(self) -> tuple:
        """Predictive state (direction tables + BTB) for the replay
        engine; the lookup/mispredict counters are delta-advanced and
        therefore excluded."""
        return (self._direction_fingerprint(), self.btb.fingerprint())

    # -- direction policy (overridden by subclasses) -------------------------

    def _predict_direction(self, pc: int) -> bool:
        raise NotImplementedError

    def _update_direction(self, pc: int, taken: bool) -> None:
        raise NotImplementedError

    def _direction_fingerprint(self) -> object:
        """Direction-predictor state; stateless policies return None."""
        return None


class PerfectPredictor(BranchPredictor):
    """Always correct — used for the perfect-bpred idealization.

    The pipeline special-cases perfection (it knows the resolved outcome),
    so this class simply reports whatever it is trained with; it exists so
    code paths that expect a predictor object keep working.
    """

    def __init__(self, btb_entries: int = 1) -> None:
        super().__init__(btb_entries=1)
        self.is_perfect = True

    def _predict_direction(self, pc: int) -> bool:  # pragma: no cover
        return True

    def _update_direction(self, pc: int, taken: bool) -> None:
        pass


class AlwaysTakenPredictor(BranchPredictor):
    """Static predict-taken baseline."""

    def _predict_direction(self, pc: int) -> bool:
        return True

    def _update_direction(self, pc: int, taken: bool) -> None:
        pass


class BimodalPredictor(BranchPredictor):
    """Per-pc 2-bit saturating counters."""

    def __init__(self, bits: int = 12, btb_entries: int = 1024) -> None:
        super().__init__(btb_entries)
        if bits < 1 or bits > 24:
            raise ValueError("bimodal table bits out of range")
        self._mask = (1 << bits) - 1
        self._counters = bytearray([2] * (1 << bits))  # weakly taken

    def _index(self, pc: int) -> int:
        return _pc_hash(pc) & self._mask

    def _predict_direction(self, pc: int) -> bool:
        return self._counters[self._index(pc)] >= 2

    def _update_direction(self, pc: int, taken: bool) -> None:
        idx = self._index(pc)
        counter = self._counters[idx]
        if taken:
            if counter < 3:
                self._counters[idx] = counter + 1
        elif counter > 0:
            self._counters[idx] = counter - 1

    def _direction_fingerprint(self) -> object:
        return bytes(self._counters)


class GsharePredictor(BranchPredictor):
    """Global-history predictor: pc XOR history indexes 2-bit counters."""

    def __init__(self, bits: int = 12, btb_entries: int = 1024) -> None:
        super().__init__(btb_entries)
        if bits < 1 or bits > 24:
            raise ValueError("gshare table bits out of range")
        self.bits = bits
        self._mask = (1 << bits) - 1
        self._counters = bytearray([2] * (1 << bits))
        self._history = 0

    def _index(self, pc: int) -> int:
        return (_pc_hash(pc) ^ self._history) & self._mask

    def _predict_direction(self, pc: int) -> bool:
        return self._counters[self._index(pc)] >= 2

    def _update_direction(self, pc: int, taken: bool) -> None:
        idx = self._index(pc)
        counter = self._counters[idx]
        if taken:
            if counter < 3:
                self._counters[idx] = counter + 1
        elif counter > 0:
            self._counters[idx] = counter - 1
        self._history = ((self._history << 1) | int(taken)) & self._mask

    def _direction_fingerprint(self) -> object:
        return (bytes(self._counters), self._history)


class TournamentPredictor(BranchPredictor):
    """Chooser-selected combination of bimodal and gshare components."""

    def __init__(self, bits: int = 12, btb_entries: int = 1024) -> None:
        super().__init__(btb_entries)
        self._bimodal = BimodalPredictor(bits, btb_entries=1)
        self._gshare = GsharePredictor(bits, btb_entries=1)
        self._mask = (1 << bits) - 1
        # 2-bit chooser: >=2 selects gshare.
        self._chooser = bytearray([2] * (1 << bits))

    def _predict_direction(self, pc: int) -> bool:
        idx = _pc_hash(pc) & self._mask
        if self._chooser[idx] >= 2:
            return self._gshare._predict_direction(pc)
        return self._bimodal._predict_direction(pc)

    def _update_direction(self, pc: int, taken: bool) -> None:
        bimodal_correct = self._bimodal._predict_direction(pc) == taken
        gshare_correct = self._gshare._predict_direction(pc) == taken
        idx = _pc_hash(pc) & self._mask
        chooser = self._chooser[idx]
        if gshare_correct and not bimodal_correct and chooser < 3:
            self._chooser[idx] = chooser + 1
        elif bimodal_correct and not gshare_correct and chooser > 0:
            self._chooser[idx] = chooser - 1
        self._bimodal._update_direction(pc, taken)
        self._gshare._update_direction(pc, taken)

    def _direction_fingerprint(self) -> object:
        return (
            self._bimodal._direction_fingerprint(),
            self._gshare._direction_fingerprint(),
            bytes(self._chooser),
        )


_PREDICTORS = {
    "perfect": PerfectPredictor,
    "always-taken": AlwaysTakenPredictor,
    "bimodal": BimodalPredictor,
    "gshare": GsharePredictor,
    "tournament": TournamentPredictor,
}


def make_predictor(
    kind: str, bits: int = 12, btb_entries: int = 1024
) -> BranchPredictor:
    """Instantiate a predictor by configuration name."""
    try:
        cls = _PREDICTORS[kind]
    except KeyError:
        raise KeyError(
            f"unknown predictor {kind!r}; available: {sorted(_PREDICTORS)}"
        ) from None
    if cls in (AlwaysTakenPredictor, PerfectPredictor):
        return cls()
    return cls(bits=bits, btb_entries=btb_entries)
