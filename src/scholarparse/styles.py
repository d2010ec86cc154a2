"""The layout styles of the synthetic article generator (``synth``).

They live apart from the generator so that the command line can offer them
as ``generate --style`` choices without loading it.
"""

STYLES = (
    "single-col-numbered",
    "single-col-unnumbered",
    "two-col-indexed",
    "two-col-author-year",
)
