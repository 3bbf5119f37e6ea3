"""Walsh spectra and nonlinearity.

The spectrum entry at index w is sum over all points x of
(-1)**(f(x) + w.x), computed by an in-place butterfly and returned as an
int32 array, exact because |W| <= 2**n <= 2**30; no floating point
anywhere.  Before the pass at stride h every entry sums h points, so it
is at most h in magnitude, and the pass's intermediate 2*bot at most 2h.
The passes below h = 2**14 therefore run in int16, whose largest value
32767 holds 2 * 2**13 but not 2 * 2**14, and the table is widened to
int32 before the pass at h = 2**14.
The first three passes come from a table of byte spectra.  The table is
then worked on in groups of 2**17 points, each small enough to stay in
cache, held twice in the two int16 halves of one reused int32 buffer of a
group's size.  A group is seen as rows of 2**8 points, each row 32 bytes
of 8 points.  The byte gather writes it byte-major into the first half,
byte in row outermost, so the column-bit passes (h = 8..128) cover long
contiguous runs instead of runs of h points; one transposed copy of whole
bytes then puts it in table order in the second half, where the row-bit
passes h = 2**8..2**13 run in place.  One copy widens the group into the
int32 table, where the passes h = 2**14..2**16 finish it.  Above the
group the table is a grid of rows of 2**17 points, and one strip routine
runs the remaining passes down its columns in int32: it copies a strip
of columns into the buffer, transforms it there and writes it back.
The transform can write into a caller's int32 array instead of a new one.
A SpectrumSweep owns one such array for a run of tables, each a half of
the next, and keeps the last table and its halves' spectra, side by side.
The last pass of a transform joins the spectra of a table's halves,
W(0||w) = W_a(w) + W_b(w) and W(1||w) = W_a(w) - W_b(w); read backwards,
half the sum of a spectrum's halves is its first half's spectrum and half
their difference its second half's.  For a table t = a || b the sweep
gathers the spectra of the four quarters a0, a1, b0, b1 first and joins
them second.  A half equal to the kept table has its quarters' spectra
kept already; a quarter equal to one held shares its spectrum; and when a
quarter's first half is a held neighbour's second half, or its second
half the neighbour's first, that half's spectrum is read off the
neighbour's, the rest is derived from it one level down, and one join
writes the quarter's.  One pass then joins the four into a's and b's.
Threshold tables chain this way down to one variable, T(m, s) being
T(m-1, s) || T(m-1, s-1), so t's middle quarters are equal, and a run of
majority tables transforms only a table on one variable per table.
The joins, the derive steps and the |W| walk each run over the spectra one
chunk of 2**16 points at a time, so each chunk stays in cache.
Nonlinearity comes out of the spectrum as 2**(n-1) - max|W|/2.
One chunked walk takes every peak: the largest |W| of one spectrum, or
for two spectra the largest |W| of each and of their sum, read into
reused buffers, with a running (peak, index) pair per walk that keeps the
first chunk's index on ties, so no full-size |W| copy is made.  max|W| is
that walk over one spectrum, and the nonlinearity of a concatenation is
that walk over the spectra of its two halves, whose sum and difference
are its own spectrum; the halves' own peaks come along and are cached in
their spectra, so neither is walked again.  An independent brute-force path
measures the minimum distance over all affine tables directly, with XOR,
popcount and sums, in two levels: it popcounts each block of 64 * 2**r
points against every linear table on the low 6 + r index bits, then
walks the masks of the block-index bits in Gray-code order, where a block
the mask complements counts its points less its popcount, 64 * 2**r - c.
Every distance is still a count over all 2**n points, and nothing of the
butterfly is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .truthtable import TruthTable, check_same_vars, check_vars

_BRUTE_FORCE_MAX_VARS = 16


def _byte_spectra(points: int) -> np.ndarray:
    """Row b: the int16 spectrum of the lowest `points` bits of byte value b."""
    bit = np.arange(points)
    signs = np.where((np.arange(256)[:, None] >> bit) & 1, -1, 1)
    hadamard = np.where(np.bitwise_count(bit[:, None] & bit) & 1, -1, 1)
    return (signs @ hadamard).astype(np.int16)


def _word_patterns(points: int) -> np.ndarray:
    """Entry x: the linear table with in-word mask x as one 64-bit word, cut
    to its lowest `points` bits; bit i is parity(x & i)."""
    bit = np.arange(points, dtype=np.uint64)
    parity = np.bitwise_count(np.arange(64, dtype=np.uint64)[:, None] & bit) & 1
    return np.bitwise_or.reduce(parity << bit, axis=1)


# Indexed by min(n, 3): a table under one byte holds 1, 2 or 4 points, a
# longer one is whole bytes of 8 points each.
_BYTE_SPECTRA = tuple(_byte_spectra(1 << n) for n in range(4))
# Indexed by min(n, 6): a table under one word holds 1, 2, 4, ..., 32 points.
_WORD_PATTERNS = tuple(_word_patterns(1 << n) for n in range(7))
# The passes below _GROUP_POINTS run one group at a time, and the strip
# routine moves a group's worth of points per strip for the passes above
# the group.  A group (512 KiB of int32) stays in a 2 MiB per-core L2 cache.
# Within a group, seen as rows of _ROW_POINTS, the passes below _ROW_POINTS
# run byte-major, and the passes below _NARROW_POINTS run in int16.
_GROUP_POINTS = 1 << 17
_ROW_POINTS = 1 << 8
_NARROW_POINTS = 1 << 14
# The passes over whole spectra (the sweep's joins and derive steps, and the
# |W| walk) take _CHUNK_POINTS of each array at a time: with up to four
# arrays a chunk is at most 1 MiB of int32, so it stays in L2.
_CHUNK_POINTS = 1 << 16


def _butterfly(block: np.ndarray, h: int) -> None:
    """Hadamard butterfly passes on strides h, 2h, ... below the length of
    block's rows (its last axis), on each row, in place, no scratch.

    Each pass doubles the set of points every entry sums over, so before
    the pass at stride h an entry is at most h in magnitude and 2*bot at
    most 2h; on rows of m points every intermediate is at most m."""
    while h < block.shape[-1]:
        view = block.reshape(-1, 2, h)
        top, bot = view[:, 0, :], view[:, 1, :]
        top += bot
        bot *= -2  # top is now a + b, so bot becomes a + b - 2b = a - b
        bot += top
        h <<= 1


def _column_passes(grid: np.ndarray, buffer: np.ndarray) -> None:
    """Butterfly passes down the columns of a 2-D view, on every row stride
    1, 2, ... below its row count, in place.

    Each strip of columns, as many as fill the contiguous buffer, is copied
    into it, transformed there and written back."""
    rows, width = grid.shape[0], buffer.size // grid.shape[0]
    strip = buffer.reshape(rows, width)
    for start in range(0, grid.shape[1], width):
        block = grid[:, start : start + width]
        np.copyto(strip, block)
        _butterfly(buffer, width)
        np.copyto(block, strip)


@cache  # per size, so a walk over a small table builds no slices per call
def _chunks(size: int) -> tuple[slice, ...]:
    """Slices of _CHUNK_POINTS points that cover 0..size-1 in order."""
    return tuple(slice(start, start + _CHUNK_POINTS) for start in range(0, size, _CHUNK_POINTS))


def _grouped_peaks(*parts: np.ndarray) -> list[tuple[int, int]]:
    """max over w of |part[w]|, and the smallest w attaining it, for each of
    one or two parts; for two, then the same for |part0[w]| + |part1[w]|.

    Each walk is taken one chunk at a time in a reused int32 buffer, so no
    full-size copy is made; its running (peak, index) pair moves only on a
    strictly larger value, so on a tie the earlier chunk keeps the index."""
    peaks = [(-1, -1)] * (2 * len(parts) - 1)
    buffers = [None] * len(peaks)  # the first chunk allocates them, the rest reuse them
    for chunk in _chunks(parts[0].size):
        for p, part in enumerate(parts):
            buffers[p] = np.abs(part[chunk], out=buffers[p])
        if len(parts) == 2:
            buffers[2] = np.add(buffers[0], buffers[1], out=buffers[2])
        for p, values in enumerate(buffers):
            i = int(values.argmax())
            top = int(values[i])
            if top > peaks[p][0]:
                peaks[p] = (top, chunk.start + i)
    return peaks


def _join(out: np.ndarray, pairs: list[tuple[int, int]]) -> None:
    """The transform's last pass over spectra held in rows of out, seen as
    2 * len(pairs) equal rows: for the p-th pair (i, j), row i + row j is
    written into row 2p and row i - row j into row 2p + 1.

    It runs one chunk of _CHUNK_POINTS at a time, which is safe in place
    because chunk c of a row overlaps only chunk c of another.  The rows
    are written last to first, so a row that a row below it reads is
    copied to scratch before any row's chunk c is written."""
    rows = out.reshape(2 * len(pairs), -1)
    copied = [r for r in range(len(rows)) if any(r in pairs[q // 2] for q in range(r))]
    scratch = np.empty((len(copied), min(rows.shape[1], _CHUNK_POINTS)), dtype=np.int32)
    for chunk in _chunks(rows.shape[1]):
        sources = [row[chunk] for row in rows]
        for r, copy in zip(copied, scratch):
            np.copyto(copy, sources[r])
            sources[r] = copy
        for r in reversed(range(len(rows))):
            i, j = pairs[r // 2]
            (np.subtract if r % 2 else np.add)(sources[i], sources[j], out=rows[r][chunk])


@dataclass(frozen=True, eq=False)
class WalshSpectrum:
    """All 2**n spectrum values, index w in the same point order as tables."""

    n: int
    values: np.ndarray

    @cached_property
    def _peak(self) -> tuple[int, int]:
        """max|W| and the smallest index attaining it."""
        return _grouped_peaks(self.values)[0]

    def max_abs(self) -> int:
        return self._peak[0]

    def max_abs_index(self) -> int:
        """Smallest index attaining max|W|."""
        return self._peak[1]

    def parseval_sum(self) -> int:
        """Sum of squared values; equals 2**(2n) for any genuine spectrum."""
        # int64: the sum is 2**(2n), past int32 from n = 16 on
        return int(np.einsum("i,i->", self.values, self.values, dtype=np.int64))

    def nonlinearity(self) -> int:
        """Distance to the nearest affine function: 2**(n-1) - max|W|/2."""
        if self.n == 0:
            raise ValueError("nonlinearity needs at least one variable")
        return (1 << (self.n - 1)) - self.max_abs() // 2


def walsh_transform(t: TruthTable, out: np.ndarray | None = None) -> WalshSpectrum:
    """The exact int32 spectrum of t, as a read-only array (see the module docstring).

    With out, a writable C-contiguous int32 array of t.size entries, the
    spectrum is written into out and returned as a read-only view of it."""
    if out is None:
        out = np.empty(t.size, dtype=np.int32)
    elif out.dtype != np.int32 or out.shape != (t.size,) or not (out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"out must be a writable C-contiguous int32 array of {t.size} entries")
    raw = np.frombuffer(t.packed, dtype=np.uint8)
    spectra = _BYTE_SPECTRA[min(t.n, 3)]  # passes h = 1, 2, 4 done
    if t.size <= _ROW_POINTS:  # one row: byte-major is table order
        narrow = spectra[raw].reshape(-1)
        _butterfly(narrow, 8)
        np.copyto(out, narrow)
    else:
        group_points = min(_GROUP_POINTS, t.size)
        rows = group_points // _ROW_POINTS
        narrow_points = min(_NARROW_POINTS, group_points)
        buffer = np.empty(group_points, dtype=np.int32)
        # the int16 stage holds a group twice, byte-major and then in table order
        byte_major, narrow = buffer.view(np.int16).reshape(2, group_points)
        for start in range(0, t.size, group_points):
            # per group: one whole-table take would cast every byte index to intp at once;
            # clip, unlike raise, writes to out unbuffered, and a uint8 index into 256 rows is never clipped
            index = raw[start // 8 : (start + group_points) // 8].reshape(rows, -1).T
            np.take(spectra, index, axis=0, out=byte_major.reshape(-1, rows, 8), mode="clip")
            _butterfly(byte_major, 8 * rows)  # the column bits, h = 8..128
            np.copyto(narrow.reshape(rows, -1, 8), byte_major.reshape(-1, rows, 8).transpose(1, 0, 2))
            _butterfly(narrow.reshape(-1, narrow_points), _ROW_POINTS)
            group = out[start : start + group_points]
            np.copyto(group, narrow)
            _butterfly(group, narrow_points)
        if t.size > group_points:  # the passes above the group
            _column_passes(out.reshape(-1, group_points), buffer)
    return _read_only(t.n, out)


def _read_only(n: int, array: np.ndarray) -> WalshSpectrum:
    """The spectrum on n variables held in array, as a read-only view of it;
    array itself stays writable."""
    values = array.view()
    values.setflags(write=False)
    return WalshSpectrum(n, values)


def _derive(t: TruthTable, u: TruthTable, w_u: np.ndarray, out: np.ndarray) -> None:
    """Write t's spectrum into out from w_u, the spectrum of u, a table on
    the same n, when t's first half is u's second half or t's second half
    is u's first.

    The halves of w_u are W_u0 + W_u1 and W_u0 - W_u1, so half their
    difference is W_u1 and half their sum is W_u0, exact in int32 as
    |W_u[:h]| + |W_u[h:]| <= 2**(n+1) <= 2**30.  Down: if t's first half x
    is u's second half, W_x is half the difference, and t's second half is
    derived from x.  Up: if t's second half y is u's first half, W_y is half
    the sum, and x is derived from y.  One join (see _join) then writes
    t's spectrum from the two.  The halving and the join each run one chunk
    of _CHUNK_POINTS at a time.  Each half of t is checked against u's
    other half as packed bytes, u's first half read only once the down
    check has failed and no table built for u's halves; where neither
    relation holds, or n <= 1, t is transformed afresh."""
    if t.n > 1:
        h = t.size // 2
        parts, slots = t.halves(), out.reshape(2, h)
        for j, combine in ((0, np.subtract), (1, np.add)):  # down, then up
            if parts[j].packed == u.half_packed(1 - j):
                for chunk in _chunks(h):
                    np.right_shift(combine(w_u[:h][chunk], w_u[h:][chunk], out=slots[j][chunk]), 1, out=slots[j][chunk])
                _derive(parts[1 - j], parts[j], slots[j], slots[1 - j])
                _join(out, [(0, 1)])
                return
    walsh_transform(t, out=out)


class SpectrumSweep:
    """One int32 buffer of 2**k_max entries that carries the spectra of a
    table's two halves, side by side at its front, to the next table, and
    the table they belong to.  Each call overwrites the buffer, so a
    spectrum in it is valid only until the next call."""

    def __init__(self, k_max: int) -> None:
        check_vars(k_max)
        self.values = np.empty(1 << k_max, dtype=np.int32)  # a page is touched when first written
        self.table: TruthTable | None = None

    def half_spectra(self, t: TruthTable) -> list[WalshSpectrum]:
        """The spectra of t's two halves a and b, written into slots 0 and 1,
        the first and second half of the buffer's first t.size entries.

        The four quarter spectra, of a0, a1, b0 and b1, are gathered first,
        each into one of the four quarter places of those entries.  If a
        half equals the carried table, its quarters' spectra are the
        carried pair, still in places 0 and 1; with no such half, a0 is
        transformed afresh into place 0.  Outward from there, a quarter
        equal to one already held shares its spectrum, and each other one
        is derived (see _derive, which transforms afresh where no relation
        holds) from its neighbour on the side already gathered, into the
        next free place.  Then one chunked join (see _join) writes
        W_a = [W_a0 + W_a1 | W_a0 - W_a1] into slot 0 and W_b likewise into
        slot 1, exact in int32: |W_a0| + |W_a1| <= 2**(k_max-1).  A table on
        one variable, whose halves have no quarters, has each half
        transformed afresh.  A table past the buffer, or one on zero
        variables, which has no halves, is a ValueError, raised before the
        buffer or the carried table changes."""
        if t.size > self.values.size:
            raise ValueError(f"sweep buffer holds {self.values.size} points, a table on {t.n} variables needs {t.size}")
        halves = t.halves()
        front = self.values[: t.size]
        slots = front.reshape(2, -1)
        carried, self.table = self.table, None  # the slots are about to change
        if t.n == 1:  # the halves, on zero variables, have no quarters
            for half, slot in zip(halves, slots):
                walsh_transform(half, out=slot)
        else:
            quarters = [q for half in halves for q in half.halves()]
            places = front.reshape(4, -1)
            if carried in halves:
                seed = 2 * halves.index(carried)
                held = quarters[seed : seed + 2]  # the quarter whose spectrum each place holds
            else:
                seed = 0
                walsh_transform(quarters[0], out=places[0])
                held = quarters[:1]
            for j in sorted(range(4), key=lambda j: abs(j - seed)):  # each after its neighbour toward the seed
                if quarters[j] not in held:
                    u = quarters[j - 1 if j > seed else j + 1]
                    _derive(quarters[j], u, places[held.index(u)], places[len(held)])
                    held.append(quarters[j])
            _join(front, [(held.index(quarters[j]), held.index(quarters[j + 1])) for j in (0, 2)])
        self.table = t
        return [_read_only(half.n, slot) for half, slot in zip(halves, slots)]


def concat_nonlinearity(left: WalshSpectrum, right: WalshSpectrum) -> int:
    """Nonlinearity of concat(a, b), from the spectra of a and b on n
    variables each, with no 2**(n+1)-point array.

    The last butterfly pass of concat(a, b) gives W(0||w) = W_a(w) + W_b(w)
    and W(1||w) = W_a(w) - W_b(w), so its max|W| is the largest
    |W_a(w)| + |W_b(w)|.  That sum is taken one group at a time in reused
    int32 buffers, exact because |W_a| + |W_b| <= 2**(n+1) <= 2**30.  The
    same walk takes each half's own max|W| and first index, which it
    caches in left and right."""
    check_same_vars(left.n, right.n)
    check_vars(left.n + 1)  # as concat would refuse it; the bound needs n + 1 <= 30
    left_peak, right_peak, (peak, _) = _grouped_peaks(left.values, right.values)
    # the walk took each half's own peak too: seed its cached _peak, which
    # the same walk over that half alone would compute
    vars(left).setdefault("_peak", left_peak)
    vars(right).setdefault("_peak", right_peak)
    return (1 << left.n) - peak // 2


def nonlinearity(t: TruthTable) -> int:
    """Minimum distance to the affine functions, via the spectrum."""
    return walsh_transform(t).nonlinearity()


def brute_force_nonlinearity(t: TruthTable) -> int:
    """Minimum distance over all 2**(n+1) affine tables, measured directly.

    Reads the table as 64-bit words in blocks of 2**r words, r half the
    word-index bits rounded down.  Level 1: for each mask v of the in-block
    word variables, the words at in-block index i with parity(v & i) = 1 are
    complemented, and one popcount per word against the 64 in-word masks,
    summed within each block, gives every block's distance to every linear
    table on the low 6 + r bits.  Level 2 walks the masks of the block-index
    variables in Gray-code order, so each step complements the distances of
    the blocks whose index has the changed variable set, 64 * 2**r - c; one
    sum over the blocks is then the distance to each linear table, and the
    table size less it the distance to its complement.  The counts are
    int32, exact: none exceeds 2**n <= 2**16.
    """
    if not 1 <= t.n <= _BRUTE_FORCE_MAX_VARS:
        raise ValueError(f"brute force supports 1..{_BRUTE_FORCE_MAX_VARS} variables, got {t.n}")
    size = t.size
    words = np.frombuffer(t.packed.ljust(8, b"\0"), dtype="<u8")  # a table under one word padded to one
    width = 1 << (words.size.bit_length() - 1) // 2  # words per block
    blocks = words.reshape(-1, width)
    index = np.arange(width)
    # row v: all ones at the in-block indices i with parity(v & i) = 1
    flips = np.where(np.bitwise_count(index[:, None] & index) & 1, ~np.uint64(0), np.uint64(0))
    patterns = _WORD_PATTERNS[min(t.n, 6)]
    counts = np.empty((blocks.shape[0], width, 64), dtype=np.int32)
    for v in range(width):
        np.sum(np.bitwise_count((blocks ^ flips[v])[:, :, None] ^ patterns), axis=1, dtype=np.int32, out=counts[:, v])
    counts = counts.reshape(blocks.shape[0], -1)
    best = size
    for gray in range(counts.shape[0]):
        if gray:  # complement the blocks whose index has the changed variable set
            flipped = counts.reshape(-1, 2, gray & -gray, counts.shape[1])[:, 1]
            np.subtract(64 * width, flipped, out=flipped)
        d = counts.sum(axis=0)
        best = min(best, int(d.min()), size - int(d.max()))
    return best


@dataclass(frozen=True)
class WeightNonlinearityCheck:
    """Outcome of the small-weight test: weight <= 2**(n-2) forces wt = N."""

    weight: int
    nonlinearity: int
    threshold: int
    applicable: bool
    holds: bool | None

    @property
    def verdict(self) -> str:
        if not self.applicable:
            return "not-applicable"
        return "pass" if self.holds else "fail"


def check_weight_equals_nonlinearity(t: TruthTable, spectrum: WalshSpectrum | None = None) -> WeightNonlinearityCheck:
    """Check wt = N whenever the weight is at most a quarter of the table;
    pass t's spectrum when it is already computed."""
    if t.n < 2:
        raise ValueError("small-weight check needs at least two variables")
    if spectrum is None:
        spectrum = walsh_transform(t)
    check_same_vars(t.n, spectrum.n)
    nl = spectrum.nonlinearity()
    w = t.weight()
    threshold = 1 << (t.n - 2)
    applicable = w <= threshold
    return WeightNonlinearityCheck(w, nl, threshold, applicable, holds=nl == w if applicable else None)
