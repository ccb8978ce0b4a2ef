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


def context_code(model: NgramModel, ctx: tuple[int, ...]) -> int:
    """Integer code of a context's last ``order - 1`` words, the code
    :meth:`NgramModel.context_codes` gives a position with that context:
    each word + 1 is a digit in base ``vocab_size + 1``, the latest lowest."""
    code = 0
    for w in ctx[max(0, len(ctx) - model.order + 1):]:
        code = code * model.base + int(w) + 1
    return code
