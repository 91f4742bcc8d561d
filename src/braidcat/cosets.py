"""Coset enumeration over a finite presentation.

Two classical strategies are implemented on a shared table: the
relator-driven one (scan every relator at every live coset, filling
gaps as they appear) and the definition-driven one (define table
entries one at a time and push every consequence through a deduction
stack before defining the next).  Both follow Holt, Handbook of
Computational Group Theory, section 5.2: cosets live in a table with
one column per generator and per inverse, coincidences are processed
through a union-find array, and dead cosets are numbered away only at
the end.  Running both and comparing counts is cheap insurance against
bookkeeping slips.

The table is stored by column, one list per column indexed by coset.
Each relator, subgroup word and Felsch base is compiled once per
enumeration into the column lists of its letters and of their
inverses, so a scan step is one list lookup, and a scan tests whether
it completed in one place.  A Felsch base is compiled written twice
over, and each of its rotations is a window on that one copy: a first
and a last index.  :func:`enumerate_cosets` scans the subgroup words at
coset 0 for both strategies, so the runners scan relators only.  Before
scanning a relator at a coset, HLT traces it forwards: a trace that
closes back at the coset means the scan would change nothing, so it is
skipped; any other outcome runs the scan from the start.  Felsch leaves
closed cycles to the scan.  Only Felsch reads the deduction stack, so
HLT clears it at every coset instead of keeping a record of every
entry it ever filled.

A generator g with a relator g g or g^-1 g^-1 is an involution (Holt;
Havas and Ramsay's ACE): g and g^-1 share one column list, so g g is
never scanned and (ab)^3 and its inverse are one Felsch base.  Without
such a relator nothing is shared, and the tables are as before.

A Felsch deduction (alpha, x) scans only the relator rotations that
start with x at alpha.  Holt also scans those that start with x^-1 at
alpha x, but the rotations include every relator's inverse and a scan
walks both ways, so each of those walks the same relator cycle through
the same table edge again.  A relator that is a power u^m has only
len(u) distinct rotations, and it gets only that many windows.
Neither strategy scans at a coset once a coincidence has killed it:
its entries are stale, and a deduction read from them would tie live
cosets to dead ones.

:func:`verify_table` re-checks any completed table from scratch.  It
shares no code with the enumeration table: it inverts each generator's
column once and traces every relator over all n cosets together, so
it costs O(n * total relator length), linear in the size of the table.

Cosets are numbered from 1 in results, with coset 1 the subgroup
itself.  Enumeration is deterministic: no randomisation, fixed
definition order, so repeated runs give identical tables.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Sequence

from .words import Alphabet, Letter, Word

DEFAULT_CAP = 100_000  # the cosets an enumeration may define unless told otherwise

__all__ = [
    "Presentation",
    "Enumeration",
    "OverflowResult",
    "enumerate_cosets",
    "verify_table",
]


class Presentation(namedtuple("Presentation", "alphabet relators")):
    """An :class:`Alphabet` and a tuple of relator words over it."""

    __slots__ = ()

    def __new__(cls, alphabet: Alphabet, relators: tuple[Word, ...]) -> Presentation:
        for r in relators:
            bad = r.names() - set(alphabet.names)
            if bad:
                raise ValueError(f"relator {r} uses letters {sorted(bad)} outside the alphabet")
        return super().__new__(cls, alphabet, relators)

    # through __new__, so that _replace validates too
    _make = classmethod(lambda cls, values: cls(*values))


class Enumeration(namedtuple("Enumeration", "count action defined strategy")):
    """A completed enumeration: ``count`` cosets, found by ``strategy``.

    ``action`` maps each generator name to a tuple of 1-based images:
    ``action[g][i - 1]`` is the coset i g.  ``defined`` counts every
    coset created during the run, including ones later identified.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        action = {g: list(images) for g, images in sorted(self.action.items())}
        return {**self._asdict(), "action": action}


class OverflowResult(namedtuple("OverflowResult", "cap defined strategy")):
    """The cap was hit before the table closed: inconclusive, not a count."""

    __slots__ = ()


class _Overflow(Exception):
    pass


# A relator compiled against one table: its columns, the column lists of its
# letters and of their inverses, and the first and last index a scan walks.
_Relator = tuple[Sequence[int], list[list[int | None]], list[list[int | None]], int, int]


class _Table:
    """Shared mutable state for both strategies.

    The table is kept by column: ``cols[c][k]`` is coset k times column
    c, or None while undefined.  Columns come in pairs: column 2i is
    generator i, column 2i + 1 its inverse, and column c is the list of
    column ``fold[c]``.  Column lists only ever grow, so a compiled
    relator may hold them.  ``p`` is the coincidence union-find array; a
    coset k is live iff p[k] == k, and p[k] <= k.  All traffic through
    dead cosets goes through :meth:`rep` first.
    """

    def __init__(self, fold: list[int], cap: int):
        self.fold = fold
        lists = [[None] for _ in fold]
        self.cols: list[list[int | None]] = [lists[f] for f in fold]
        # (c, column c, its inverse column) for each distinct list, in order
        self.pairs = [(c, self.cols[c], self.cols[c ^ 1]) for c, f in enumerate(fold) if f == c]
        self.p: list[int] = [0]
        self.defined = 1
        self.cap = cap
        self.deductions: list[tuple[int, int]] = []

    def compile(self, word: Sequence[int]) -> _Relator:
        """A word, its letters' column lists and their inverses', and the
        window over all of it."""
        cols = self.cols
        return word, [cols[c] for c in word], [cols[c ^ 1] for c in word], 0, len(word) - 1

    def rep(self, k: int) -> int:
        root = k
        while self.p[root] != root:
            root = self.p[root]
        while self.p[k] != root:
            self.p[k], k = root, self.p[k]
        return root

    def define(self, alpha: int, col: int) -> int:
        if self.defined >= self.cap:
            raise _Overflow
        beta = len(self.p)
        for _, column, _ in self.pairs:
            column.append(None)
        self.p.append(beta)
        self.defined += 1
        self.cols[col][alpha] = beta
        self.cols[col ^ 1][beta] = alpha
        self.deductions.append((alpha, col))
        return beta

    def _merge(self, k: int, l: int, queue: deque[int]) -> None:
        k, l = self.rep(k), self.rep(l)
        if k != l:
            mu, nu = min(k, l), max(k, l)
            self.p[nu] = mu
            queue.append(nu)

    def coincidence(self, alpha: int, beta: int) -> None:
        queue: deque[int] = deque()
        self._merge(alpha, beta, queue)
        rep = self.rep
        while queue:
            gamma = queue.popleft()
            for c, col, inv in self.pairs:
                delta = col[gamma]
                if delta is None:
                    continue
                inv[delta] = None
                mu, nu = rep(gamma), rep(delta)
                if col[mu] is not None:
                    self._merge(nu, col[mu], queue)
                elif inv[nu] is not None:
                    self._merge(mu, inv[nu], queue)
                else:
                    col[mu] = nu
                    inv[nu] = mu
                    self.deductions.append((mu, c))

    def scan(self, alpha: int, relator: _Relator, fill: bool) -> None:
        """Trace a relator's window from alpha forwards and backwards.

        A gap of one is closed as a deduction; with ``fill`` a longer
        gap is filled by defining new cosets, without it the scan just
        gives up.  A completed scan with mismatched ends triggers
        coincidence processing, tested in one place: a forward walk that
        uses up the window falls through the backward loop to it.  The
        subgroup words are scanned at coset 0 by :func:`enumerate_cosets`.
        """
        word, fwd, bwd, i, j = relator
        f = b = alpha
        while True:
            while i <= j and (g := fwd[i][f]) is not None:
                f = g
                i += 1
            while j >= i and (g := bwd[j][b]) is not None:
                b = g
                j -= 1
            if j < i:
                if f != b:
                    self.coincidence(f, b)
                return
            if j == i:
                fwd[i][f] = b
                bwd[i][b] = f
                self.deductions.append((f, word[i]))
                return
            if not fill:
                return
            self.define(f, word[i])


def _fold(presentation: Presentation) -> list[int]:
    """For each column, the column whose list it uses: 2g for both of an involution g's."""
    names, relators = presentation.alphabet.names, presentation.relators
    squares = {r.letters[0][0] for r in relators if len(r) == 2 and r.letters[0] == r.letters[1]}
    return [c & ~1 if names[c // 2] in squares else c for c in range(2 * len(names))]


def _word_cols(word: Word, alphabet: Alphabet, fold: list[int]) -> list[int]:
    return [fold[2 * alphabet.index(name) + (sign < 0)] for name, sign in word.letters]


def _rotations_by_first(table: _Table, relators: list[list[int]]) -> list[list[_Relator]]:
    """Every distinct rotation of every relator and its inverse, grouped
    by first column, as windows on the base compiled once twice over.
    A base repeats its rotations after its cyclic period, the least shift
    at which it recurs in itself twice over, so it has that many windows:
    one for a^L, not L.  Two bases share all of their rotations or none,
    so a base whose least rotation was seen before adds nothing."""
    grouped: list[list[_Relator]] = [[] for _ in table.cols]
    seen = set()
    for rel in relators:
        for base in (rel, [table.fold[c ^ 1] for c in reversed(rel)]):
            text = "".join(map(chr, base))
            period = (text + text).find(text, 1)
            least = min(text[k:] + text[:k] for k in range(period))
            if least not in seen:
                seen.add(least)
                word, fwd, bwd, _, _ = table.compile(base * 2)
                for k in range(period):
                    grouped[base[k]].append((word, fwd, bwd, k, k + len(base) - 1))
    return grouped


def enumerate_cosets(
    presentation: Presentation,
    subgroup: list[Word],
    strategy: str = "hlt",
    cap: int = DEFAULT_CAP,
) -> Enumeration | OverflowResult:
    """Enumerate cosets of the subgroup generated by the given words.

    ``cap`` bounds the total number of cosets ever defined; hitting it
    returns an :class:`OverflowResult` rather than an answer.
    """
    if strategy not in ("hlt", "felsch"):
        raise ValueError(f"unknown strategy {strategy!r}")
    alphabet, fold = presentation.alphabet, _fold(presentation)
    table = _Table(fold, cap)
    # an empty relator, or an involution's c c, holds in every table
    relators = [_word_cols(r, alphabet, fold) for r in presentation.relators]
    relators = [r for r in relators if r != r[:1] * 2]
    try:
        for w in filter(len, subgroup):  # for both strategies
            table.scan(0, table.compile(_word_cols(w, alphabet, fold)), True)
        if strategy == "hlt":
            _run_hlt(table, [table.compile(r) for r in relators])
        else:
            _run_felsch(table, _rotations_by_first(table, relators))
    except _Overflow:
        return OverflowResult(cap=cap, defined=table.defined, strategy=strategy)

    # A coset's representative is never above it, so one pass in order
    # numbers the live cosets and sends each dead one to its live number.
    live, number = [], []
    for k, parent in enumerate(table.p):
        if parent == k:
            live.append(k)
            number.append(len(live))
        else:
            number.append(number[table.rep(k)])
    action = {}
    for g, name in enumerate(alphabet.names):
        targets = [table.cols[2 * g][k] for k in live]
        if None in targets:
            raise RuntimeError("closed table has an empty entry")
        action[name] = tuple([number[t] for t in targets])
    return Enumeration(count=len(live), action=action, defined=table.defined, strategy=strategy)


def _run_hlt(table: _Table, relators: list[_Relator]) -> None:
    p, scan, deductions = table.p, table.scan, table.deductions
    alpha = 0
    while alpha < len(p):
        deductions.clear()  # HLT reads none of them
        if p[alpha] == alpha:
            for rel in relators:
                # the forward trace, inline: without it HLT takes about
                # 15% longer.  A window cannot be walked by a list
                # iterator without a copy, so Felsch leaves the skip to scan.
                f = alpha
                for col in rel[1]:
                    if (f := col[f]) is None:
                        break
                else:
                    if f == alpha:  # a closed cycle: the scan would change nothing
                        continue
                scan(alpha, rel, True)
                if p[alpha] != alpha:
                    break
            else:  # alpha outlived every scan
                for c, col, _ in table.pairs:
                    if col[alpha] is None:
                        table.define(alpha, c)
        alpha += 1


def _run_felsch(table: _Table, grouped: list[list[_Relator]]) -> None:
    p, rep, scan, deductions = table.p, table.rep, table.scan, table.deductions

    def process_deductions() -> None:
        while deductions:
            alpha, c = deductions.pop()
            alpha = rep(alpha)
            for rel in grouped[c]:
                scan(alpha, rel, False)
                if p[alpha] != alpha:
                    break

    process_deductions()
    alpha = 0
    while alpha < len(p):
        for c, col, _ in table.pairs:
            if p[alpha] == alpha and col[alpha] is None:
                table.define(alpha, c)
                process_deductions()
        alpha += 1


def _columns(action: dict[str, tuple[int, ...]]) -> dict[Letter, tuple[int, ...]]:
    """Every generator's column and its inverse's, keyed by letter and
    padded with a 0 in front, so that ``columns[name, sign][i]`` is the
    coset i g^sign.  Each column must be a bijection of 1..n."""
    columns = {}
    for name, images in action.items():
        inverse = [0] * (len(images) + 1)
        for i, image in enumerate(images, 1):
            inverse[image] = i
        columns[name, 1] = (0, *images)
        columns[name, -1] = tuple(inverse)
    return columns


def _trace(columns: dict[Letter, tuple[int, ...]], word: Word, cosets: list[int]) -> list[int]:
    """The images of many cosets under a word, one letter at a time."""
    current = cosets
    for letter in word.letters:
        images = columns[letter]
        current = [images[k] for k in current]
    return current


def verify_table(
    enum: Enumeration, presentation: Presentation, subgroup: list[Word]
) -> list[tuple[str, bool]]:
    """Re-check a completed table from scratch, independently of the
    enumeration bookkeeping: every generator column a bijection, every
    relator acting trivially at every coset, the subgroup generators
    fixing coset 1, and the action transitive.

    Nothing here touches :class:`_Table`.  Each inverse column is built
    once and each relator is traced over all n cosets together, so the
    cost is O(n * total relator length).  When a column is not a
    bijection of 1..n no inverse exists, and the other three checks are
    reported failed without being computed.
    """
    n = enum.count
    cosets = list(range(1, n + 1))
    names = (
        "columns-bijective",
        "relators-fix-all-cosets",
        "subgroup-fixes-coset-1",
        "action-transitive",
    )
    if not all(sorted(images) == cosets for images in enum.action.values()):
        return [(name, False) for name in names]
    columns = _columns(enum.action)

    relators_ok = all(_trace(columns, r, cosets) == cosets for r in presentation.relators)
    subgroup_ok = all(_trace(columns, w, [1]) == [1] for w in subgroup)

    seen = {1}
    frontier = [1]
    while frontier:
        k = frontier.pop()
        for images in columns.values():
            image = images[k]
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return list(zip(names, (True, relators_ok, subgroup_ok, len(seen) == n)))
