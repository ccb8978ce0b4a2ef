"""Per-position reference implementations shared by several test modules."""

from nssfp.model import NgramModel, Sequence


def context_at(model: NgramModel, sequence: Sequence, position: int) -> tuple[int, ...]:
    """Conditioning context: prefix words since the last session boundary.

    At a boundary the context is empty, so the model is re-initialized.
    The per-position reference for :meth:`NgramModel.context_codes`.
    """
    last = 0
    for b in sequence.boundaries:
        if b <= position:
            last = b
        else:
            break
    span = min(model.order - 1, position - last)
    return tuple(int(w) for w in sequence.words[position - span:position])
