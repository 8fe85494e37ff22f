//! Instantaneous connectivity graph under the unit-disk radio model.
//!
//! Two nodes are linked iff their Euclidean distance is at most the
//! transmission range. A [`Topology`] is a snapshot built from node
//! positions at one instant; it answers the queries protocols and the
//! delivery engine need: neighbors, k-hop neighborhoods, shortest-path hop
//! counts, and connected components.
//!
//! # Engine
//!
//! [`Topology::build`] is a plane-sweep over horizontal strips: nodes
//! are counting-sorted into rows one transmission range tall (the row
//! height is floored so the row count stays O(√n) even for tiny
//! ranges), each row is sorted by x, and every node is then checked
//! only against the x-window of its own row and the row below —
//! O(n log n + candidate pairs) rather than the O(n²) all-pairs sweep.
//! The own-row scan walks right until `dx` exceeds the range; the
//! below-row scan advances a monotone two-pointer left edge and breaks
//! on the same right edge, so each candidate costs one subtraction to
//! reject. Candidates are decided by a single squared-distance compare
//! against the largest `d²` whose square root rounds to at most
//! `range` (found once per build by a bit-level binary search over the
//! float, exploiting that IEEE sqrt is monotone), so the hot loop runs
//! no square roots yet accepts *exactly* the pairs the naive engine's
//! `distance(a, b) <= range` does (inclusive boundary).
//! [`Topology::build_naive`] keeps the all-pairs sweep as the oracle the
//! differential tests compare against.
//!
//! The accepted links become one of two storages, whichever is smaller
//! for the snapshot's own node and link counts:
//!
//! * **Bit rows** when a row of `⌈n/64⌉` words is no longer than the
//!   mean neighbour list, `⌈n/64⌉ ≤ 2·links/n`: each dense index owns a
//!   bit set over all of them, and a build sets two bits per link. At
//!   the paper's 150 m range every simulated world is this dense — a
//!   600-node city row is ten words against some fifty neighbours.
//! * **CSR** otherwise: a flat adjacency assembled by two counting sorts
//!   (by destination, then by source), which yields each per-node
//!   neighbour list in the same ascending-index order the all-pairs
//!   sweep produces, without a comparison sort. As bits, the 20 000-node
//!   probe layout would need 313 words a row against 28 links.
//!
//! No option picks between them: every build and every splice decides
//! again by the rule, so one graph has one storage however it was made,
//! and equality compares the rows. A bit snapshot builds the CSR of
//! [`neighbor_indices`](Topology::neighbor_indices) on the first ask;
//! [`neighbors`](Topology::neighbors), the world's degree count and
//! every query read the rows.
//!
//! Source-rooted queries ([`within`](Topology::within),
//! [`nearest`](Topology::nearest),
//! [`distances_from`](Topology::distances_from)) share one *resumable*
//! traversal per source, kept behind a [`RefCell`]: the reached set as
//! bits, the discovery order (level by level, ids ascending within a
//! level) and how many levels are finished. A level is the OR of its
//! frontier's rows — word by word on bit rows, one bit per entry of a
//! CSR row — minus the reached set, and scanning those words yields it
//! in dense order, which is id order when the ids ascend (every `World`
//! snapshot's do): no sort, and no distance vector to fill. Only
//! permuted ids sort a level by id. A query advances the traversal only
//! as far as its answer needs — `within(k)` to depth `k`, `nearest` to
//! the first level holding a match — and a later query from the same
//! source resumes where the last one stopped, so what the protocols ask
//! periodically (a one-hop hello, a three-hop QDSet scan) costs what it
//! touches, and nothing costs more than one full BFS per source per
//! snapshot.
//!
//! Pair queries ([`hops`](Topology::hops),
//! [`within_hops`](Topology::within_hops)) *resume or meet*: a traversal
//! already under way from either end is advanced until the other end is
//! reached (or to depth `k`), which keeps a flood followed by unicasts
//! from its source at one BFS; with neither, a two-ended search grows
//! both ends' bit-set balls a level at a time, the smaller frontier
//! first, and stops at the first contact — a word of the new level ANDed
//! with a word of the other ball — or once the two depths add up to
//! `k`. That walks two balls of about half the distance instead of one
//! of all of it, and leaves no traversal behind: a pair asked once — a
//! location check, one configuration unicast — is not worth a traversal
//! nobody resumes.
//! The component partition
//! ([`component_of`](Topology::component_of),
//! [`components`](Topology::components)) is memoized whole. The id→index
//! map is a vector sorted by id, searched by bisection and built lazily
//! on the first query: a snapshot that is rebuilt before anyone queries
//! it never pays for the map, and nobody pays for a hasher. The caches
//! live *inside* the snapshot and are answers about its graph, not about
//! an instant: whatever changes the graph forgets them in the same call,
//! so there is no separate invalidation protocol to get wrong.
//!
//! A world's snapshot is positioned at its quantum's start: each alive
//! node's current leg evaluated at that instant. When the world's
//! `(quantum bucket, membership/mobility version)` cache key rotates, the
//! world does not drop the snapshot; it refreshes it by the least that
//! makes it the snapshot of the new key, one of four ways
//! (`World::topology` decides which):
//!
//! * **Swept** — [`rebuild`](Topology::rebuild): the same build into the
//!   storage the stale snapshot held (bit rows or CSR arrays, the strip
//!   layout, the build's link list and scatter buffers, the traversals'
//!   vectors), every answer forgotten. A 600-node city snapshot's build
//!   buffers run to hundreds of KB; freed and allocated again every
//!   quantum they make the allocator grow and trim the heap each time,
//!   and the page faults that follow cost whatever the host charges that
//!   second — a rep of the `city_mobile` benchmark swung ±7% on one input
//!   with them and ±1–3% without. Layouts too small or too odd for the
//!   strips are swept all-pairs into the same storage. A moving world's
//!   sweep of a bit-row snapshot keeps a *skin* (below). This is how a
//!   moving world begins a quantum its skin cannot carry it into, and how
//!   a burst of more changes than a refresh splices is taken in.
//! * **Carried** — `Topology::carry`, Verlet's neighbour list (Phys. Rev.
//!   159, 98, 1967): a skinned sweep scans `s` past the range (`s` a
//!   fixed fraction of it) with the same one scan loop, sets the bit
//!   rows as it goes (a block-transpose pass mirrors them; no link list,
//!   no assembly), and keeps each node's position as its reference and
//!   the *ring*, the pairs whose reference distance lies within `s` of
//!   the range. At a later
//!   quantum, if the two largest displacements since the reference
//!   positions sum to at most `s`, no pair outside the ring can have
//!   crossed the range: only the ring's pairs — some 10 000 in a
//!   600-node city of 13 000 links — are tested again, with the build's own
//!   `d² ≤ t`, and the bits that changed flip. Otherwise, or if the flips
//!   leave too few links for bit rows, it sweeps. Only bit rows carry:
//!   CSR snapshots and layouts under the strips' 32-node floor sweep
//!   without a skin. This is how a moving world begins most quanta.
//! * **Spliced or relocated** — `Topology::insert` / `remove` /
//!   `relocate`: a join, a leave, or a mobility write that moved one
//!   node's position at the quantum's start (a waypoint arrival, a park,
//!   a revive) changes that node's links and nothing else — inside the
//!   snapshot's quantum, and across quanta while nobody moves (or ahead
//!   of a carry). The links are found with the build's own `d² ≤ t`
//!   against the positions the snapshot holds. A join or a leave on bit
//!   rows shifts every row's bits past the node's index by one —
//!   `n·⌈n/64⌉` words, a few microseconds at 600 nodes; a move rewrites
//!   the node's row and column in place. A CSR is rewritten in one pass
//!   through the build scratch, the node at the place its id sorts to,
//!   its neighbours' runs still ascending (a move there is a leave and a
//!   join). Either way the result takes the storage the rule picks for
//!   the new counts, so it is the snapshot a sweep of the new alive set
//!   would build, row for row, and a skin stays current: ring indices
//!   shift, a newcomer's ring pairs are classified by reference distance.
//!   Answers are forgotten (by a move only if a link changed), the
//!   id→index map is kept current.
//! * **Re-keyed** — nothing is touched: in a world where nobody moves a
//!   new quantum alone changes no position, so the graph, its traversals
//!   and its components all stand.

use crate::{NodeId, Point};
use proto_io::IdMap;
use std::cell::{OnceCell, Ref, RefCell};
use std::ops::Range;

/// The largest `t` with `t.sqrt() <= range`, so `d2 <= t` decides the
/// inclusive-boundary link predicate exactly — IEEE sqrt is correctly
/// rounded and therefore monotone over the non-negative floats, whose
/// bit patterns order the same way, so a 64-step binary search over the
/// bits finds the exact cutoff.
pub(crate) fn d2_threshold(range: f64) -> f64 {
    let (mut lo, mut hi) = (0u64, f64::MAX.to_bits());
    if f64::MAX.sqrt() <= range {
        return f64::MAX;
    }
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if f64::from_bits(mid).sqrt() <= range {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    f64::from_bits(lo)
}

/// Packs an `x` coordinate as its order-preserving integer bits
/// (sign-magnitude flipped to two's-complement order), so row sorts
/// compare a single integer.
pub(crate) fn xkey(x: f64) -> u64 {
    let bits = x.to_bits();
    if x.is_sign_negative() {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// The strip-sweep working set: nodes counting-sorted into y-rows and
/// x-sorted within each row, plus the exact link-predicate constants.
/// [`Topology::build`] scans all rows serially;
/// [`Topology::build_parallel`] hands disjoint row chunks to scoped
/// threads — both produce the identical link list per row, so the
/// concatenation (and therefore the CSR) is byte-identical regardless
/// of how the rows were scanned. A snapshot keeps one to refill.
#[derive(Debug, Clone, Default)]
pub(crate) struct StripLayout {
    /// Row boundaries into the sweep-ordered arrays, length `nrows + 1`.
    row_starts: Vec<u32>,
    /// Original node index per sweep position.
    order: Vec<u32>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// `(xkey, node index)` per sweep position, while sorting.
    keyed: Vec<(u64, u32)>,
    r_slack: f64,
    t: f64,
}

impl StripLayout {
    /// Bins and sorts `nodes` into rows that a pair up to `reach` apart
    /// (`reach >= range`) spans at most two of; `None` when the strip
    /// engine does not apply (degenerate range, non-finite coordinates,
    /// or too few nodes to beat the naive sweep).
    pub(crate) fn new(nodes: &[(NodeId, Point)], range: f64, reach: f64) -> Option<Self> {
        let mut layout = StripLayout::default();
        layout.refill(nodes, range, reach).then_some(layout)
    }

    /// [`new`](Self::new) into this layout's storage; `false` where that
    /// returns `None`.
    pub(crate) fn refill(&mut self, nodes: &[(NodeId, Point)], range: f64, reach: f64) -> bool {
        let range_usable = range > 0.0 && range.is_finite() && reach.is_finite();
        let finite = nodes
            .iter()
            .all(|(_, p)| p.x.is_finite() && p.y.is_finite());
        if !range_usable || nodes.len() < 32 || !finite {
            return false;
        }
        let n = nodes.len();
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for (_, p) in nodes {
            min_y = min_y.min(p.y);
            max_y = max_y.max(p.y);
        }
        // Row height a hair over the reach: a pair within reach can then
        // never be more than one row apart, even at the floating-point
        // boundary where `distance` rounds down. The height is also
        // floored so there are never more than O(√n) rows — a tiny
        // range over a sprawling layout thickens the rows (more
        // candidates per row) instead of exploding memory.
        let max_rows = (4.0 * n as f64).sqrt().ceil().max(1.0);
        let r_slack = reach * (1.0 + 1e-9);
        let hrow = r_slack
            .max((max_y - min_y) / max_rows)
            .max(f64::MIN_POSITIVE);
        let nrows = ((max_y - min_y) / hrow) as usize + 1;
        let row_of = |p: Point| -> usize { (((p.y - min_y) / hrow) as usize).min(nrows - 1) };
        // Counting-sort nodes into rows, then sort each row by x, with
        // the node index as tie-break so equal-x nodes keep a
        // deterministic ascending-index order. `order` holds each row's
        // fill cursor until it is filled itself.
        let StripLayout {
            row_starts,
            order,
            xs,
            ys,
            keyed,
            ..
        } = self;
        row_starts.clear();
        row_starts.resize(nrows + 1, 0);
        for (_, p) in nodes {
            row_starts[row_of(*p) + 1] += 1;
        }
        for r in 1..row_starts.len() {
            row_starts[r] += row_starts[r - 1];
        }
        order.clear();
        order.extend_from_slice(&row_starts[..nrows]);
        keyed.clear();
        keyed.resize(n, (0, 0));
        for (i, (_, p)) in nodes.iter().enumerate() {
            let r = row_of(*p);
            keyed[order[r] as usize] = (xkey(p.x), i as u32);
            order[r] += 1;
        }
        for r in 0..nrows {
            let (s, e) = (row_starts[r] as usize, row_starts[r + 1] as usize);
            keyed[s..e].sort_unstable();
        }
        // Coordinates and original indices in sweep order, so the scans
        // stream through memory sequentially.
        order.clear();
        xs.clear();
        ys.clear();
        for &(_, i) in keyed.iter() {
            order.push(i);
            let p = nodes[i as usize].1;
            xs.push(p.x);
            ys.push(p.y);
        }
        self.r_slack = r_slack;
        // `distance(a, b) <= range` computes `sqrt(d2)` from exactly the
        // d2 the scan forms (same subtractions, squares, and sum — see
        // `Point::distance`), and sqrt is monotone, so comparing d2
        // against the largest d² whose sqrt stays ≤ range decides
        // *exactly* like the oracle with no square root in the loop.
        self.t = d2_threshold(range);
        true
    }

    pub(crate) fn nrows(&self) -> usize {
        self.row_starts.len() - 1
    }

    /// Scans rows `r0..r1` and hands every candidate pair — each pair
    /// of original node indices less than `r_slack` apart in x within
    /// one row or two adjacent rows, once, with its `d²` — to `sink`.
    /// The order is deterministic and independent of how the full row
    /// range was chunked.
    pub(crate) fn scan_rows(&self, r0: usize, r1: usize, sink: &mut impl Pairs) {
        let n = self.order.len();
        let (xs, ys, order) = (&self.xs[..], &self.ys[..], &self.order[..]);
        let r_slack = self.r_slack;
        let nrows = self.nrows();
        for r in r0..r1 {
            let (s, e) = (self.row_starts[r] as usize, self.row_starts[r + 1] as usize);
            let (bs, be) = if r + 1 < nrows {
                (
                    self.row_starts[r + 1] as usize,
                    self.row_starts[r + 2] as usize,
                )
            } else {
                (0, 0)
            };
            // Monotone left edge of the below-row x-window: sources
            // only move right, so it never retreats.
            let mut lo = bs;
            for k in s..e {
                let (px, py) = (xs[k], ys[k]);
                let src = order[k];
                sink.source(src, n);
                // Rest of the own row: everything to the right until
                // the x-gap alone rules the pair out. The `r_slack`
                // break is safe because a computed `dx` even one ulp
                // above `reach * (1 + 1e-9)` implies the true gap
                // exceeds the reach.
                for m in (k + 1)..e {
                    let dx = xs[m] - px;
                    if dx > r_slack {
                        break;
                    }
                    let dy = ys[m] - py;
                    sink.pair(src, order[m], dx * dx + dy * dy);
                }
                while lo < be && xs[lo] - px < -r_slack {
                    lo += 1;
                }
                for m in lo..be {
                    let dx = xs[m] - px;
                    if dx > r_slack {
                        break;
                    }
                    let dy = ys[m] - py;
                    sink.pair(src, order[m], dx * dx + dy * dy);
                }
            }
        }
    }

    /// Scans rows `r0..r1` and appends every accepted link, packed
    /// `(src << 32 | dst)` in original node indices, one orientation
    /// each.
    pub(crate) fn scan_links(&self, r0: usize, r1: usize, links: &mut Vec<u64>) {
        let mut sink = LinkList {
            len: links.len(),
            links,
            t: self.t,
        };
        self.scan_rows(r0, r1, &mut sink);
        let len = sink.len;
        links.truncate(len);
    }
}

/// What [`StripLayout::scan_rows`] hands its candidate pairs to.
pub(crate) trait Pairs {
    /// Source `a`'s candidates follow, `n` of them at most.
    fn source(&mut self, a: u32, n: usize);
    /// One candidate pair of original node indices, `d2` apart.
    fn pair(&mut self, a: u32, b: u32, d2: f64);
}

/// Lengthens `buf` to at least `len` slots (plus 1 024 to spare), its
/// allocation grown to exactly that when `exact` — the ring, which a
/// world refills every few quanta, keeps no doubling slack — and by
/// doubling otherwise.
fn stretch(buf: &mut Vec<u64>, len: usize, exact: bool) {
    if buf.len() < len {
        let len = len + 1024;
        if exact {
            buf.reserve_exact(len - buf.len());
        }
        buf.resize(len, 0);
    }
}

/// The link list a plain scan fills. Branchless accept: the slot is
/// always written, the cursor only advances on a hit, so the
/// ~35%-taken range test never mispredicts; [`source`](Pairs::source)
/// keeps a full row of headroom so the stores run unconditionally.
struct LinkList<'a> {
    links: &'a mut Vec<u64>,
    len: usize,
    t: f64,
}

impl Pairs for LinkList<'_> {
    #[inline(always)]
    fn source(&mut self, _a: u32, n: usize) {
        stretch(self.links, self.len + n, false);
    }

    #[inline(always)]
    fn pair(&mut self, a: u32, b: u32, d2: f64) {
        self.links[self.len] = u64::from(a) << 32 | u64::from(b);
        self.len += usize::from(d2 <= self.t);
    }
}

/// The rows and ring a skinned scan fills. A source's accepted
/// partners are listed without a branch, as [`LinkList`] lists links,
/// in a buffer one source long, and set in that source's row when the
/// next source begins: one bit per link, [`mirror`] sets the other. A
/// pair inside the ring is listed the same way.
struct HalfRows<'a> {
    rows: &'a mut [u64],
    stride: usize,
    /// The source the scan is on, and its accepted partners so far.
    src: usize,
    hits: &'a mut Vec<u32>,
    found: usize,
    links: usize,
    ring: &'a mut Vec<u64>,
    len: usize,
    cut: Band,
}

impl HalfRows<'_> {
    /// Sets the bits of the source's accepted partners.
    fn flush(&mut self) {
        let row = &mut self.rows[self.src * self.stride..][..self.stride];
        for &b in &self.hits[..self.found] {
            set_bit(row, b as usize);
        }
        self.links += self.found;
        self.found = 0;
    }
}

impl Pairs for HalfRows<'_> {
    #[inline(always)]
    fn source(&mut self, a: u32, n: usize) {
        self.flush();
        self.src = a as usize;
        if self.hits.len() < n {
            self.hits.resize(n, 0);
        }
        stretch(self.ring, self.len + n, true);
    }

    #[inline(always)]
    fn pair(&mut self, a: u32, b: u32, d2: f64) {
        self.hits[self.found] = b;
        self.found += usize::from(d2 <= self.cut.t);
        self.ring[self.len] = pack(a as usize, b as usize);
        self.len += usize::from(self.cut.in_ring(d2));
    }
}

/// Completes the bit rows of `n` nodes, `w` words each, that hold each
/// link once, in either orientation, into rows that hold it both ways:
/// each 64 × 64 block is ORed with the transpose of its mirror image
/// across the diagonal.
fn mirror(rows: &mut [u64], n: usize, w: usize) {
    let load = |rows: &[u64], block: &mut [u64; 64], br: usize, word: usize| {
        for (r, b) in block.iter_mut().enumerate() {
            let row = br * 64 + r;
            *b = if row < n { rows[row * w + word] } else { 0 };
        }
    };
    let store = |rows: &mut [u64], block: &[u64; 64], br: usize, word: usize| {
        for (r, b) in block.iter().enumerate().take(n - (br * 64).min(n)) {
            rows[(br * 64 + r) * w + word] = *b;
        }
    };
    let (mut a, mut b) = ([0u64; 64], [0u64; 64]);
    for i in 0..w {
        for j in i..w {
            load(rows, &mut a, i, j);
            load(rows, &mut b, j, i);
            let (mut at, mut bt) = (a, b);
            transpose64(&mut at);
            transpose64(&mut bt);
            for r in 0..64 {
                a[r] |= bt[r];
                b[r] |= at[r];
            }
            store(rows, &a, i, j);
            if i != j {
                store(rows, &b, j, i);
            }
        }
    }
}

/// Transposes a 64 × 64 bit block in place: bit `c` of word `r` goes
/// to bit `r` of word `c` — the quadrants off the diagonal swap, then
/// each quadrant is transposed the same way, halving down to single
/// bits.
fn transpose64(block: &mut [u64; 64]) {
    let (mut j, mut m) = (32, 0x0000_0000_ffff_ffff_u64);
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((block[k] >> j) ^ block[k + j]) & m;
            block[k + j] ^= t;
            block[k] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// `a` and `b` as one ring entry.
fn pack(a: usize, b: usize) -> u64 {
    (a as u64) << 32 | b as u64
}

/// The two dense indices of a ring entry.
fn unpack(pair: u64) -> (usize, usize) {
    ((pair >> 32) as usize, (pair & 0xffff_ffff) as usize)
}

/// `d²` between two points, formed as [`Point::distance`] forms it
/// (and as the strip scan does: the same subtractions, squares and sum,
/// and the square of a negated difference is the same float).
fn d2(a: Point, b: Point) -> f64 {
    let (dx, dy) = (a.x - b.x, a.y - b.y);
    dx * dx + dy * dy
}

/// The skin's half-width `s` as a fraction of the range. A wider skin
/// carries longer between sweeps but re-tests more pairs per carry: in
/// the benchmark city (600 nodes, 20 m/s, 100 ms quanta) 0.10 to 0.20
/// measured alike within the noise and 0.08 worse; at 0.125 the ring
/// holds some 10 000 pairs against 13 000 links, and a world sweeps on
/// one quantum in five.
const SKIN: f64 = 0.125;

/// The exact link predicate of a build, for splices: `d² ≤ t` on a
/// range the strips accept, where it decides exactly like the naive
/// `distance(a, b) <= range` ([`d2_threshold`]); that predicate itself on
/// a degenerate range (zero, negative, NaN or infinite), where the
/// cutoff does not stand for it.
#[derive(Debug, Clone, Copy)]
struct Cutoff {
    range: f64,
    t: f64,
}

impl Cutoff {
    fn new(range: f64) -> Self {
        let usable = range > 0.0 && range.is_finite();
        Cutoff {
            range,
            t: if usable {
                d2_threshold(range)
            } else {
                f64::NAN
            },
        }
    }

    fn links(self, a: Point, b: Point) -> bool {
        if self.t.is_nan() {
            a.distance(b) <= self.range
        } else {
            d2(a, b) <= self.t
        }
    }
}

/// The cutoffs of a skinned snapshot: the link test, the carry's bound
/// on displacements and the ring's `d²` band.
#[derive(Debug, Clone, Copy, Default)]
struct Band {
    /// The skin half-width: a carry needs the two largest displacements
    /// since the reference positions to sum to at most this.
    s: f64,
    /// The link cutoff, `d² ≤ t` ([`d2_threshold`]).
    t: f64,
    /// The ring is `lo < d² ≤ hi`: `range ∓ wide`, squared.
    lo: f64,
    hi: f64,
}

impl Band {
    /// The band of `range`, whose link cutoff is `t`.
    fn new(range: f64, t: f64) -> Self {
        let (s, wide) = (range * SKIN, Self::wide(range));
        Band {
            s,
            t,
            lo: (range - wide) * (range - wide),
            hi: (range + wide) * (range + wide),
        }
    }

    /// How far past the range the ring reaches: `s`, and by far more
    /// than the rounding of any `d²` or displacement here (a few ulps of
    /// a few hundred metres), so a pair outside it that the exact `s`
    /// bound lets move stays on its side of the range.
    fn wide(range: f64) -> f64 {
        range * SKIN + range * 1e-9
    }

    fn in_ring(self, d2: f64) -> bool {
        d2 > self.lo && d2 <= self.hi
    }
}

/// What a snapshot swept with a skin keeps so that a later refresh can
/// carry it to new positions instead of sweeping again (Verlet's
/// neighbour list): each node's reference position and the *ring*, the
/// pairs whose reference distance lies within `s` (plus a rounding
/// margin) of the range. Whatever pair is outside the ring is linked iff
/// it was: while no two nodes have moved `s` between them since their
/// reference positions, none of those pairs can have crossed the range.
#[derive(Debug, Clone, Default)]
struct Skin {
    /// Whether the snapshot has one: it was swept with a skin, its rows
    /// are bits, and only splices and carries changed it since.
    held: bool,
    /// Each dense index's position when its links were last found from
    /// scratch — by the sweep, or by the splice that placed it.
    refs: Vec<Point>,
    /// Ring pairs of dense indices, [`pack`]ed, in no particular order.
    ring: Vec<u64>,
    band: Band,
    /// No node stands further than this from its reference position: a
    /// sweep's zero, a carry's largest displacement, raised by the
    /// moves spliced since.
    worst: f64,
}

impl Skin {
    /// Takes the newcomer at dense index `p`, standing at `at`, in: the
    /// ring's indices from `p` on move up by one, and the newcomer's
    /// ring pairs are classified by reference distance.
    fn insert(&mut self, p: usize, at: Point) {
        if p < self.refs.len() {
            for pair in &mut self.ring {
                let (a, b) = unpack(*pair);
                *pair = pack(a + usize::from(a >= p), b + usize::from(b >= p));
            }
        }
        self.refs.insert(p, at);
        self.classify(p);
    }

    /// Lets dense index `p` go: its ring pairs leave, and the indices
    /// above it move down by one.
    fn remove(&mut self, p: usize) {
        self.ring.retain_mut(|pair| {
            let (a, b) = unpack(*pair);
            *pair = pack(a - usize::from(a > p), b - usize::from(b > p));
            a != p && b != p
        });
        self.refs.remove(p);
    }

    /// Dense index `p` was placed anew at `at`. While it and any other
    /// node stand within `s` of their reference positions together, its
    /// pairs outside the ring still lie on their side of the range, and
    /// the skin stands; otherwise `at` becomes its reference position
    /// and its ring pairs are classified again from there.
    fn relocate(&mut self, p: usize, at: Point) {
        let moved = d2(self.refs[p], at).sqrt();
        if moved + self.worst <= self.band.s {
            self.worst = self.worst.max(moved);
            return;
        }
        self.ring.retain(|&pair| {
            let (a, b) = unpack(pair);
            a != p && b != p
        });
        self.refs[p] = at;
        self.classify(p);
    }

    /// Adds dense index `p`'s ring pairs, by reference distance. The
    /// ring grows its allocation by a bounded step, not by doubling.
    fn classify(&mut self, p: usize) {
        let (band, at) = (self.band, self.refs[p]);
        let refs = &self.refs;
        if self.ring.capacity() - self.ring.len() < refs.len() {
            self.ring.reserve_exact(refs.len() + 1024);
        }
        self.ring.extend(
            (0..refs.len())
                .filter(|&j| j != p && band.in_ring(d2(refs[j], at)))
                .map(|j| pack(p, j)),
        );
    }
}

/// Whether a snapshot of `n` nodes and `links` undirected links keeps
/// its rows as bit sets: a row of `⌈n/64⌉` words is then no longer than
/// the mean CSR row of `2·links/n` entries. Builds and splices decide
/// by this from the snapshot's own counts, so a graph has one storage
/// however it was made.
fn rows_as_bits(n: usize, links: usize) -> bool {
    n > 0 && words(n) * n <= 2 * links
}

/// Words in a bit set over `n` dense indices.
fn words(n: usize) -> usize {
    n.div_ceil(64)
}

fn set_bit(set: &mut [u64], i: usize) {
    set[i / 64] |= 1 << (i % 64);
}

fn has_bit(set: &[u64], i: usize) -> bool {
    set[i / 64] >> (i % 64) & 1 == 1
}

/// Moves `fresh & !seen` into `seen` and appends those indices to
/// `out`, ascending; clears `fresh` over `span`, the words
/// [`Topology::expand`] may have set.
fn take_fresh(fresh: &mut [u64], seen: &mut [u64], span: Range<usize>, out: &mut Vec<u32>) {
    for j in span {
        let mut new = fresh[j] & !seen[j];
        fresh[j] = 0;
        seen[j] |= new;
        while new != 0 {
            out.push((j * 64) as u32 + new.trailing_zeros());
            new &= new - 1;
        }
    }
}

/// Inserts a clear bit into `row` at `p`: every bit from `p` on moves
/// up by one, across word boundaries. The row's top bit must be clear.
fn insert_bit(row: &mut [u64], p: usize) {
    let (wp, low) = (p / 64, (1u64 << (p % 64)) - 1);
    let s = row[wp];
    row[wp] = (s & low) | ((s & !low) << 1);
    let mut carry = s >> 63;
    for word in &mut row[wp + 1..] {
        let s = *word;
        *word = (s << 1) | carry;
        carry = s >> 63;
    }
}

/// Takes bit `p` out of `row`: every bit above it moves down by one,
/// across word boundaries, and the top bit comes out clear.
fn remove_bit(row: &mut [u64], p: usize) {
    let (wp, low) = (p / 64, (1u64 << (p % 64)) - 1);
    let s = row[wp];
    row[wp] = (s & low) | ((s >> 1) & !low);
    for j in wp + 1..row.len() {
        row[j - 1] |= row[j] << 63;
        row[j] >>= 1;
    }
}

/// One row's neighbours as dense indices, ascending, from either
/// storage.
enum Row<'a> {
    Bits {
        word: u64,
        rest: &'a [u64],
        base: usize,
    },
    List(std::slice::Iter<'a, u32>),
}

impl<'a> Row<'a> {
    /// The set bits of `set`, ascending.
    fn of_bits(set: &'a [u64]) -> Self {
        match set.split_first() {
            Some((&word, rest)) => Row::Bits {
                word,
                rest,
                base: 0,
            },
            None => Row::List([].iter()),
        }
    }
}

impl Iterator for Row<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Row::List(list) => list.next().map(|&v| v as usize),
            Row::Bits { word, rest, base } => {
                while *word == 0 {
                    let (&next, tail) = rest.split_first()?;
                    (*word, *rest, *base) = (next, tail, *base + 64);
                }
                let i = *base + word.trailing_zeros() as usize;
                *word &= *word - 1;
                Some(i)
            }
        }
    }
}

/// One source's breadth-first traversal, advanced a level at a time.
///
/// Finished levels are final: every node within [`depth`](Self::depth)
/// hops is in `seen` and in `order`, each level sorted by id, so a
/// prefix of `order` *is* the `(distance, id)`-sorted neighbourhood. A
/// level comes out of the bit scan in dense order, which is id order
/// when the snapshot's ids ascend (every `World` snapshot's do); only
/// permuted ids sort it by id.
#[derive(Debug, Clone, Default)]
struct Traversal {
    /// Reached nodes, one bit per dense index.
    seen: Vec<u64>,
    /// The level being expanded into, clear between levels.
    next: Vec<u64>,
    /// Reached nodes: the source, then level 1, level 2, …
    order: Vec<u32>,
    /// Level `d` is `order[levels[d]..levels[d + 1]]`. An empty deepest
    /// level means the component is covered.
    levels: Vec<u32>,
}

impl Traversal {
    /// Makes this the unstarted traversal from `start` over `n` nodes,
    /// in whatever storage it already holds.
    fn restart(&mut self, n: usize, start: usize) {
        for set in [&mut self.seen, &mut self.next] {
            set.clear();
            set.resize(words(n), 0);
        }
        set_bit(&mut self.seen, start);
        self.order.clear();
        self.order.push(start as u32);
        self.levels.clear();
        self.levels.extend([0, 1]);
    }

    /// Depth of the deepest finished level.
    fn depth(&self) -> u32 {
        self.levels.len() as u32 - 2
    }

    /// Where the levels up to depth `k` end in `order`.
    fn end_of(&self, k: u32) -> usize {
        self.levels[k.min(self.depth()) as usize + 1] as usize
    }

    /// The nodes exactly `d <= depth()` hops out.
    fn level(&self, d: u32) -> &[u32] {
        &self.order[self.levels[d as usize] as usize..self.levels[d as usize + 1] as usize]
    }

    /// The reached nodes one to `k` hops out with their distances, in
    /// `(distance, id)` order.
    fn near(&self, topo: &Topology, k: u32) -> Vec<(NodeId, u32)> {
        let mut near = Vec::with_capacity(self.end_of(k) - 1);
        for d in 1..=k.min(self.depth()) {
            near.extend(self.level(d).iter().map(|&i| (topo.ids[i as usize], d)));
        }
        near
    }

    /// The distance of dense index `i`, if reached: the finished level
    /// that holds it.
    fn distance(&self, topo: &Topology, i: usize) -> Option<u32> {
        if !has_bit(&self.seen, i) {
            return None;
        }
        let id = topo.ids[i];
        (0..=self.depth()).find(|&d| {
            self.level(d)
                .binary_search_by_key(&id, |&j| topo.ids[j as usize])
                .is_ok()
        })
    }

    /// Expands the deepest level into the next one: the OR of its rows
    /// minus what is already reached. Returns `false` (and does
    /// nothing) once the component is covered.
    fn advance(&mut self, topo: &Topology) -> bool {
        let (lo, hi) = (
            self.levels[self.depth() as usize] as usize,
            self.order.len(),
        );
        if lo == hi {
            return false;
        }
        let span = topo.expand(&self.order[lo..hi], &mut self.next);
        take_fresh(&mut self.next, &mut self.seen, span, &mut self.order);
        if !topo.id_ordered {
            self.order[hi..].sort_unstable_by_key(|&i| topo.ids[i as usize]);
        }
        self.levels.push(self.order.len() as u32);
        true
    }

    /// Advances until every node within `k` hops is in `order`.
    fn reach_depth(&mut self, topo: &Topology, k: u32) {
        while self.depth() < k && self.advance(topo) {}
    }

    /// Advances until `target` is reached or the levels up to depth `k`
    /// are finished; its distance, if reached (which may exceed `k` when
    /// an earlier query went further).
    fn reach(&mut self, topo: &Topology, target: usize, k: u32) -> Option<u32> {
        if let Some(d) = self.distance(topo, target) {
            return Some(d);
        }
        while self.depth() < k && self.advance(topo) {
            if has_bit(&self.seen, target) {
                return Some(self.depth());
            }
        }
        None
    }
}

/// Memoized query state for one snapshot. Interior-mutable so the
/// read-only query API can fill it lazily; the answers never outlive the
/// snapshot, the vectors that held them serve the next one.
#[derive(Debug, Clone, Default)]
struct MemoCache {
    /// Lazily-built id → dense-index map, sorted by id and searched by
    /// bisection (builds never query it): empty until the first query.
    /// Not an answer but a view of `ids`, so [`reset`](Self::reset)
    /// leaves it to whoever changed `ids`.
    index: Vec<(NodeId, u32)>,
    /// Where in `runs` the traversal from each source index is,
    /// [`NO_RUN`] while none has started.
    slot: Vec<u32>,
    /// `runs[..live]` are this snapshot's resumable traversals, in the
    /// order they started. The rest are left over from the snapshot this
    /// storage held before ([`Topology::rebuild`]); the next traversal to
    /// start takes one over instead of allocating.
    runs: Vec<Traversal>,
    live: usize,
    /// The working set of pair queries that find no traversal to resume.
    meet: Meet,
    /// Component partition: `(components sorted by smallest member,
    /// component index per node)`.
    comps: Option<(Vec<Vec<NodeId>>, Vec<usize>)>,
}

/// [`MemoCache::slot`] of a source no query has started from.
const NO_RUN: u32 = u32::MAX;

impl MemoCache {
    /// Forgets every answer, for a snapshot of `n` nodes; keeps the
    /// storage.
    fn reset(&mut self, n: usize) {
        self.slot.clear();
        self.slot.resize(n, NO_RUN);
        self.live = 0;
        self.comps = None;
    }

    /// The traversal from dense index `start`, started if this is the
    /// snapshot's first query from that source.
    fn run_from(&mut self, start: usize) -> &mut Traversal {
        if self.slot[start] == NO_RUN {
            if self.live == self.runs.len() {
                self.runs.push(Traversal::default());
            }
            self.runs[self.live].restart(self.slot.len(), start);
            self.slot[start] = self.live as u32;
            self.live += 1;
        }
        &mut self.runs[self.slot[start] as usize]
    }
}

/// What a send from one source reaches ([`Topology::reach`]): the
/// source's traversal, finished out to the send's bound, read a hop
/// level at a time.
pub(crate) struct Reach<'a> {
    topo: &'a Topology,
    bfs: Ref<'a, Traversal>,
    /// The deepest level within the bound that holds a node; 0 if none.
    depth: u32,
}

impl Reach<'_> {
    /// The deepest hop level that holds a node; 0 when nothing is
    /// reached. Every level from 1 to it holds one at least.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// How many nodes lie one to `d` hops out, `d` capped at the bound.
    pub fn count(&self, d: u32) -> usize {
        self.bfs.end_of(d.min(self.depth)) - 1
    }

    /// The nodes exactly `d` hops out (`1 ≤ d ≤ depth`), by id.
    pub fn level(&self, d: u32) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        debug_assert!(
            (1..=self.depth).contains(&d),
            "level {d} is outside the reach"
        );
        let ids = &self.topo.ids;
        self.bfs.level(d).iter().map(|&i| ids[i as usize])
    }

    /// Every node reached, with its distance, in `(distance, id)` order.
    pub fn near(&self) -> Vec<(NodeId, u32)> {
        self.bfs.near(self.topo, self.depth)
    }

    /// Every node of the source's component but the source, by id, read
    /// off the reached bits; for a reach with no bound.
    pub fn by_id(&self) -> Vec<NodeId> {
        debug_assert!(
            self.bfs.level(self.bfs.depth()).is_empty(),
            "the traversal covers the component"
        );
        let start = self.bfs.order[0] as usize;
        let mut ids: Vec<NodeId> = Row::of_bits(&self.bfs.seen)
            .filter(|&i| i != start)
            .map(|i| self.topo.ids[i])
            .collect();
        if !self.topo.id_ordered {
            ids.sort_unstable();
        }
        ids
    }
}

/// A two-ended breadth-first search between one pair of nodes: each end
/// grows its own ball a whole level at a time, always the end whose
/// deepest level is smaller, until the rows of one end's deepest level
/// meet the other ball — one AND per word. The balls stay disjoint
/// until then, so the distance is longer than the two depths together,
/// and the first contact makes it exactly their sum plus one. Nothing
/// is left behind for a later query to resume; what stays is the
/// storage.
#[derive(Debug, Clone, Default)]
struct Meet {
    /// Each end's ball, one bit per dense index.
    balls: [Vec<u64>; 2],
    /// Each end's deepest level.
    fronts: [Vec<u32>; 2],
    /// The level being expanded into.
    next: Vec<u64>,
}

impl Meet {
    /// The distance between dense indices `a != b` if it is at most `k`.
    fn distance(&mut self, topo: &Topology, a: usize, b: usize, k: u32) -> Option<u32> {
        let [ball_a, ball_b] = &mut self.balls;
        for set in [ball_a, ball_b, &mut self.next] {
            set.clear();
            set.resize(words(topo.len()), 0);
        }
        for (side, start) in [a, b].into_iter().enumerate() {
            set_bit(&mut self.balls[side], start);
            self.fronts[side].clear();
            self.fronts[side].push(start as u32);
        }
        let mut depth = [0u32; 2];
        while depth[0] + depth[1] < k {
            let side = usize::from(self.fronts[1].len() < self.fronts[0].len());
            if self.fronts[side].is_empty() {
                return None;
            }
            let span = topo.expand(&self.fronts[side], &mut self.next);
            let [ball_a, ball_b] = &mut self.balls;
            let (own, other) = if side == 0 {
                (ball_a, &*ball_b)
            } else {
                (ball_b, &*ball_a)
            };
            if span.clone().any(|j| self.next[j] & other[j] != 0) {
                return Some(depth[0] + depth[1] + 1);
            }
            self.fronts[side].clear();
            take_fresh(&mut self.next, own, span, &mut self.fronts[side]);
            depth[side] += 1;
        }
        None
    }
}

/// What a build or a splice fills and then has no more use for, kept by
/// a snapshot that [`Topology::rebuild`] will refill.
#[derive(Debug, Clone, Default)]
struct BuildScratch {
    layout: StripLayout,
    links: Vec<u64>,
    by_dst: Vec<u32>,
    pos: Vec<u32>,
    /// A skinned scan's accepted partners of one source.
    hits: Vec<u32>,
}

/// A flat adjacency: the neighbours of dense index `i` are
/// `adj[starts[i]..starts[i + 1]]`, ascending.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Csr {
    starts: Vec<u32>,
    adj: Vec<u32>,
}

/// A snapshot of the connectivity graph at one instant.
///
/// # Example
///
/// ```
/// use manet_sim::topology::Topology;
/// use manet_sim::{NodeId, Point};
///
/// let topo = Topology::build(
///     &[
///         (NodeId::new(0), Point::new(0.0, 0.0)),
///         (NodeId::new(1), Point::new(100.0, 0.0)),
///         (NodeId::new(2), Point::new(200.0, 0.0)),
///     ],
///     150.0,
/// );
/// assert_eq!(topo.hops(NodeId::new(0), NodeId::new(2)), Some(2));
/// assert_eq!(topo.neighbors(NodeId::new(1)).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    ids: Vec<NodeId>,
    /// Each dense index's position: where the rows say it stands, and
    /// what a splice tests a node against.
    pos: Vec<Point>,
    /// Words per bit row, `0` when the rows are the CSR's.
    stride: usize,
    /// Bit rows: dense index `i`'s row is `bits[i * stride..][..stride]`,
    /// bit `j` set iff `i` and `j` are linked. Empty on CSR snapshots.
    bits: Vec<u64>,
    /// Undirected links.
    links: usize,
    /// The CSR adjacency: the rows of a CSR snapshot, always set; built
    /// from the bits on the first ask on a bit snapshot.
    csr: OnceCell<Csr>,
    /// Whether `ids` ascend, so dense order is id order. Set by the
    /// builds; a splice keeps ascending ids ascending.
    id_ordered: bool,
    cache: RefCell<MemoCache>,
    scratch: BuildScratch,
    /// What a carry needs; not held by a plain build.
    skin: Skin,
    /// The link predicate splices use, for the range they were last
    /// handed.
    cutoff: Cutoff,
}

impl Topology {
    /// The snapshot of no nodes.
    fn empty() -> Self {
        Topology {
            ids: Vec::new(),
            pos: Vec::new(),
            stride: 0,
            bits: Vec::new(),
            links: 0,
            csr: OnceCell::from(Csr {
                starts: vec![0],
                adj: Vec::new(),
            }),
            id_ordered: true,
            cache: RefCell::default(),
            scratch: BuildScratch::default(),
            skin: Skin::default(),
            cutoff: Cutoff::new(f64::NAN),
        }
    }

    /// Builds the unit-disk graph over `nodes` with transmission range
    /// `range` meters, using the strip-sweep engine.
    #[must_use]
    pub fn build(nodes: &[(NodeId, Point)], range: f64) -> Self {
        let mut topo = Self::empty();
        topo.rebuild(nodes, range);
        // Built once, refilled never: nothing to keep the scratch for.
        topo.scratch = BuildScratch::default();
        topo
    }

    /// Makes this the snapshot [`Topology::build`] would return for
    /// `nodes`, in the storage it already holds: the rows, the build's
    /// link list and scatter buffers and the memo's traversals are
    /// refilled, not freed and allocated again. A world that rebuilds a
    /// few-hundred-KB snapshot every quantum otherwise grows and trims
    /// the heap each time, and pays for it in page faults whose cost is
    /// the host's to decide. Every memoized answer is forgotten.
    pub fn rebuild(&mut self, nodes: &[(NodeId, Point)], range: f64) {
        self.sweep(nodes, range, false);
    }

    /// [`rebuild`](Self::rebuild), keeping a skin when `skin` is asked
    /// for, the strips apply and the links come out as bit rows: the one
    /// scan loop then reaches `s` past the range, sets each link's bit in
    /// its source's row and lists the ring as it goes, [`mirror`] sets
    /// the other bit — no link list, no assembly pass — and every node's
    /// position is kept as its reference for [`carry`](Self::carry).
    /// Links too few for bit rows hand over to the CSR the rows spell,
    /// with no skin. A plain sweep scans to the range itself and
    /// assembles its link list.
    pub(crate) fn sweep(&mut self, nodes: &[(NodeId, Point)], range: f64, skin: bool) {
        self.skin.held = false;
        let mut scratch = std::mem::take(&mut self.scratch);
        let reach = if skin {
            range + Band::wide(range)
        } else {
            range
        };
        let strips = scratch.layout.refill(nodes, range, reach);
        if strips && skin {
            self.sweep_skinned(nodes, range, &mut scratch);
        } else {
            let mut links = std::mem::take(&mut scratch.links);
            links.clear();
            if strips {
                scratch
                    .layout
                    .scan_links(0, scratch.layout.nrows(), &mut links);
            } else {
                // Degenerate ranges (zero, negative, NaN, infinite) make
                // the row height or the d² cutoff meaningless, and
                // non-finite coordinates have no row; the all-pairs sweep
                // handles all of them with the exact same predicate.
                // These only occur in adversarial tests. It also takes
                // every layout too small for the strips to pay — into the
                // same storage.
                for (i, (_, a)) in nodes.iter().enumerate() {
                    for (j, (_, b)) in nodes.iter().enumerate().skip(i + 1) {
                        if a.distance(*b) <= range {
                            links.push((i as u64) << 32 | j as u64);
                        }
                    }
                }
            }
            self.assemble(nodes, &links, &mut scratch);
            scratch.links = links;
        }
        self.scratch = scratch;
    }

    /// The skinned [`sweep`](Self::sweep), over the layout `scratch`
    /// holds.
    fn sweep_skinned(&mut self, nodes: &[(NodeId, Point)], range: f64, scratch: &mut BuildScratch) {
        let (n, w) = (nodes.len(), words(nodes.len()));
        let layout = &scratch.layout;
        let cut = Band::new(range, layout.t);
        let _ = self.csr.take();
        self.bits.clear();
        self.bits.resize(n * w, 0);
        let mut ring = std::mem::take(&mut self.skin.ring);
        let mut sink = HalfRows {
            rows: &mut self.bits,
            stride: w,
            src: 0,
            hits: &mut scratch.hits,
            found: 0,
            links: 0,
            ring: &mut ring,
            len: 0,
            cut,
        };
        layout.scan_rows(0, layout.nrows(), &mut sink);
        sink.flush();
        let (links, len) = (sink.links, sink.len);
        ring.truncate(len);
        self.skin.ring = ring;
        mirror(&mut self.bits, n, w);
        self.set_nodes(nodes, links);
        self.stride = w;
        if rows_as_bits(n, links) {
            let skin = &mut self.skin;
            skin.refs.clear();
            skin.refs.extend_from_slice(&self.pos);
            (skin.band, skin.worst, skin.held) = (cut, 0.0, true);
        } else {
            self.rows_to_csr();
        }
    }

    /// Whether [`carry`](Self::carry) can take this snapshot to new
    /// positions without a sweep: it holds a skin.
    pub(crate) fn can_carry(&self) -> bool {
        self.skin.held
    }

    /// Makes this the snapshot [`Topology::build`] would return for
    /// `nodes` — the same ids, each at a new position, in dense order —
    /// by the least work its skin allows, and says whether that was a
    /// carry. If the two largest displacements since the reference
    /// positions sum to at most `s`, no pair outside the ring can have
    /// crossed the range: only the ring's pairs are tested again, with
    /// the build's own `d² ≤ t`, and the bits that changed flip. The
    /// memo is forgotten only if one did. Otherwise — displacements too
    /// large, no skin, or flips that leave too few links for bit rows —
    /// the snapshot is swept with a fresh skin.
    pub(crate) fn carry(&mut self, nodes: &[(NodeId, Point)], range: f64) -> bool {
        debug_assert!(
            nodes.iter().map(|(id, _)| id).eq(&self.ids),
            "a carry keeps the snapshot's nodes"
        );
        if self.skin.held && self.carry_ring(nodes) {
            return true;
        }
        self.sweep(nodes, range, true);
        false
    }

    /// The carry proper; `false` when the skin does not allow it, and
    /// then the rows are left for a sweep to refill.
    fn carry_ring(&mut self, nodes: &[(NodeId, Point)]) -> bool {
        let Skin { refs, band, .. } = &self.skin;
        // The two largest squared displacements; a NaN one fails.
        let (mut first, mut second, mut nan) = (0.0f64, 0.0f64, false);
        for (r, (_, p)) in refs.iter().zip(nodes) {
            let d = d2(*r, *p);
            nan |= d.is_nan();
            if d > second {
                (first, second) = if d > first { (d, first) } else { (first, d) };
            }
        }
        if nan || first.sqrt() + second.sqrt() > band.s {
            return false;
        }
        self.skin.worst = first.sqrt();
        self.pos.clear();
        self.pos.extend(nodes.iter().map(|(_, p)| *p));
        let (w, t, pos) = (self.stride, self.skin.band.t, &self.pos);
        let bits = &mut self.bits;
        let (mut gained, mut lost) = (0usize, 0usize);
        for &pair in &self.skin.ring {
            let (a, b) = unpack(pair);
            let now = d2(pos[a], pos[b]) <= t;
            if now != has_bit(&bits[a * w..], b) {
                bits[a * w + b / 64] ^= 1 << (b % 64);
                bits[b * w + a / 64] ^= 1 << (a % 64);
                gained += usize::from(now);
                lost += usize::from(!now);
            }
        }
        if gained + lost == 0 {
            return true;
        }
        self.links = self.links + gained - lost;
        if !rows_as_bits(self.ids.len(), self.links) {
            return false;
        }
        let _ = self.csr.take();
        self.cache.get_mut().reset(self.ids.len());
        true
    }

    /// The link predicate for `range`.
    fn cutoff(&mut self, range: f64) -> Cutoff {
        if self.cutoff.range.to_bits() != range.to_bits() {
            self.cutoff = Cutoff::new(range);
        }
        self.cutoff
    }

    /// Turns bit rows that hold too few links for the storage rule into
    /// the CSR they spell; the skin goes with them.
    fn rows_to_csr(&mut self) {
        let _ = self.csr.take();
        let _ = self.csr();
        self.bits.clear();
        self.stride = 0;
        self.skin.held = false;
    }

    /// Makes this the snapshot [`Topology::build`] would return had
    /// `node`, standing at `at`, been among its input. The one node's
    /// links are found with the build's own predicate (`d² ≤ t`, exactly
    /// the oracle's `distance(..) <= range`; see [`Cutoff`]) against the
    /// position of every node already here. `ids`
    /// must ascend, as the world's always do: the node goes where its id
    /// sorts and every dense index from there on moves up by one — in
    /// bit rows a shift of every row's bits past that index, in a CSR
    /// one pass rewriting it into the build scratch. Either way the
    /// result takes the storage a build of it would. Every memoized
    /// answer is forgotten; the id → index map is kept current.
    pub(crate) fn insert(&mut self, node: NodeId, at: Point, range: f64) {
        debug_assert!(self.ids.is_sorted(), "a splice needs ascending ids");
        let n = self.ids.len();
        assert!(n + 1 < u32::MAX as usize, "topology indices are u32-dense");
        let p = self.ids.partition_point(|id| *id < node);
        debug_assert!(self.ids.get(p) != Some(&node), "{node} is already here");
        let p32 = p as u32;
        // The newcomer's neighbours in the old indices, ascending.
        let mut run = std::mem::take(&mut self.scratch.links);
        run.clear();
        let cut = self.cutoff(range);
        run.extend(
            (0u64..)
                .zip(&self.pos)
                .filter(|(_, q)| cut.links(**q, at))
                .map(|(j, _)| j),
        );
        let links = self.links + run.len();
        let bits = self.stride > 0 && rows_as_bits(n + 1, links);
        if bits {
            // Rows from `p` on move up a row (every row, to its new
            // place, when they widen by a word), then every row's bits
            // from `p` on move up by one.
            let (w, w2) = (self.stride, words(n + 1));
            let rows = &mut self.bits;
            rows.resize((n + 1) * w2, 0);
            if w2 == w {
                rows.copy_within(p * w..n * w, (p + 1) * w);
            } else {
                for j in (0..n).rev() {
                    let to = (j + usize::from(j >= p)) * w2;
                    rows.copy_within(j * w..(j + 1) * w, to);
                    rows[to + w..to + w2].fill(0);
                }
            }
            rows[p * w2..(p + 1) * w2].fill(0);
            for (j, row) in rows.chunks_exact_mut(w2).enumerate() {
                if j != p {
                    insert_bit(row, p);
                }
            }
            for &v in &run {
                let v = v as usize + usize::from(v as usize >= p);
                set_bit(&mut rows[v * w2..][..w2], p);
                set_bit(&mut rows[p * w2..][..w2], v);
            }
            self.stride = w2;
            let _ = self.csr.take();
            if self.skin.held {
                self.skin.insert(p, at);
            }
        } else {
            let _ = self.csr();
            let csr = self.csr.get_mut().expect("built above");
            let BuildScratch {
                by_dst: adj,
                pos: starts,
                ..
            } = &mut self.scratch;
            adj.clear();
            starts.clear();
            starts.push(0);
            let mut linked = run.iter().peekable();
            for j in 0..=n {
                if j == p {
                    adj.extend(run.iter().map(|&v| v as u32 + u32::from(v as usize >= p)));
                    starts.push(adj.len() as u32);
                }
                if j == n {
                    break;
                }
                let old = &csr.adj[csr.starts[j] as usize..csr.starts[j + 1] as usize];
                let (below, above) = old.split_at(old.partition_point(|&v| v < p32));
                adj.extend_from_slice(below);
                if linked.next_if(|&&v| v == j as u64).is_some() {
                    adj.push(p32);
                }
                adj.extend(above.iter().map(|v| v + 1));
                starts.push(adj.len() as u32);
            }
            std::mem::swap(&mut csr.adj, adj);
            std::mem::swap(&mut csr.starts, starts);
        }
        self.scratch.links = run;
        self.ids.insert(p, node);
        self.pos.insert(p, at);
        self.links = links;
        let index = &mut self.cache.get_mut().index;
        if !index.is_empty() {
            index.iter_mut().for_each(|e| e.1 += u32::from(e.1 >= p32));
            index.insert(p, (node, p32));
        }
        self.settle_spliced(bits);
    }

    /// Makes this the snapshot [`Topology::build`] would return without
    /// `node` among its input (nothing to do when it is not here): its
    /// row and every mention of it go, every dense index above it moves
    /// down by one, and the result takes the storage a build of it
    /// would, like [`insert`](Self::insert); every memoized answer is
    /// forgotten.
    pub(crate) fn remove(&mut self, node: NodeId) {
        let Some(p) = self.index_of(node) else {
            return;
        };
        let p32 = p as u32;
        let n = self.ids.len();
        let links = self.links - self.degree_at(p);
        let bits = self.stride > 0 && rows_as_bits(n - 1, links);
        if bits {
            // Every row's bits above `p` move down by one, then the rows
            // above `p` move down a row (every row, to its new place,
            // when they narrow by a word).
            let (w, w2) = (self.stride, words(n - 1));
            let rows = &mut self.bits;
            for (j, row) in rows.chunks_exact_mut(w).enumerate() {
                if j != p {
                    remove_bit(row, p);
                }
            }
            if w2 == w {
                rows.copy_within((p + 1) * w..n * w, p * w);
            } else {
                for j in (0..n).filter(|&j| j != p) {
                    let to = (j - usize::from(j > p)) * w2;
                    rows.copy_within(j * w..j * w + w2, to);
                }
            }
            rows.truncate((n - 1) * w2);
            self.stride = w2;
            let _ = self.csr.take();
            if self.skin.held {
                self.skin.remove(p);
            }
        } else {
            let _ = self.csr();
            let csr = self.csr.get_mut().expect("built above");
            let BuildScratch {
                by_dst: adj,
                pos: starts,
                ..
            } = &mut self.scratch;
            adj.clear();
            starts.clear();
            starts.push(0);
            for j in (0..n).filter(|&j| j != p) {
                let old = &csr.adj[csr.starts[j] as usize..csr.starts[j + 1] as usize];
                let (below, rest) = old.split_at(old.partition_point(|&v| v < p32));
                adj.extend_from_slice(below);
                let above = rest.strip_prefix(&[p32]).unwrap_or(rest);
                adj.extend(above.iter().map(|v| v - 1));
                starts.push(adj.len() as u32);
            }
            std::mem::swap(&mut csr.adj, adj);
            std::mem::swap(&mut csr.starts, starts);
        }
        self.ids.remove(p);
        self.pos.remove(p);
        self.links = links;
        let index = &mut self.cache.get_mut().index;
        let at = index
            .binary_search_by_key(&node, |e| e.0)
            .expect("index_of found it");
        index.remove(at);
        index.iter_mut().for_each(|e| e.1 -= u32::from(e.1 > p32));
        self.settle_spliced(bits);
    }

    /// Finishes a splice: one that went through the CSR takes the
    /// storage the rule picks for the new counts, and keeps no skin;
    /// every answer is forgotten.
    fn settle_spliced(&mut self, bits: bool) {
        if !bits {
            self.skin.held = false;
            self.settle();
        }
        self.cache.get_mut().reset(self.ids.len());
    }

    /// Makes this the snapshot [`Topology::build`] would return had
    /// `node`, already here, stood at `at`: on bit rows one rewrite of
    /// its row and its column in place — each other node tested once
    /// with the build's own cutoff — and the skin kept (see
    /// `Skin::relocate`); on a CSR a [`remove`](Self::remove) and an
    /// [`insert`](Self::insert). Either way the result takes the storage
    /// a build of it would. Answers are forgotten only if a link
    /// changed.
    pub(crate) fn relocate(&mut self, node: NodeId, at: Point, range: f64) {
        let p = self.index_of(node).expect("a relocated node is here");
        if self.stride == 0 {
            self.remove(node);
            self.insert(node, at, range);
            return;
        }
        let (cut, w) = (self.cutoff(range), self.stride);
        self.pos[p] = at;
        let bits = &mut self.bits;
        let (mut gained, mut lost) = (0usize, 0usize);
        for (j, &q) in self.pos.iter().enumerate().filter(|&(j, _)| j != p) {
            let now = u64::from(cut.links(q, at));
            let was = bits[p * w + j / 64] >> (j % 64) & 1;
            let flip = now ^ was;
            bits[p * w + j / 64] ^= flip << (j % 64);
            bits[j * w + p / 64] ^= flip << (p % 64);
            gained += (flip & now) as usize;
            lost += (flip & was) as usize;
        }
        if self.skin.held {
            self.skin.relocate(p, at);
        }
        if gained + lost == 0 {
            return;
        }
        self.links = self.links + gained - lost;
        let _ = self.csr.take();
        if !rows_as_bits(self.ids.len(), self.links) {
            self.rows_to_csr();
        }
        self.cache.get_mut().reset(self.ids.len());
    }

    /// Gives a snapshot whose CSR is set the storage the rule picks for
    /// its counts: the CSR alone, or bit rows filled from it (the CSR is
    /// kept, it is still right).
    fn settle(&mut self) {
        let n = self.ids.len();
        self.bits.clear();
        self.stride = 0;
        if rows_as_bits(n, self.links) {
            let csr = self.csr.get().expect("a CSR to settle from");
            let w = words(n);
            self.bits.resize(n * w, 0);
            for (i, row) in self.bits.chunks_exact_mut(w).enumerate() {
                for &v in &csr.adj[csr.starts[i] as usize..csr.starts[i + 1] as usize] {
                    set_bit(row, v as usize);
                }
            }
            self.stride = w;
        }
    }

    /// Builds the same graph as [`Topology::build`], scanning row
    /// chunks on `threads` scoped worker threads. Each chunk produces
    /// exactly the link list the serial scan would for those rows, and
    /// chunks are concatenated in row order, so the output is
    /// byte-identical to `build` for every thread count.
    #[must_use]
    pub fn build_parallel(nodes: &[(NodeId, Point)], range: f64, threads: usize) -> Self {
        let threads = threads.max(1);
        let Some(layout) = StripLayout::new(nodes, range, range) else {
            return Self::build_naive(nodes, range);
        };
        let nrows = layout.nrows();
        // Too few rows to amortize thread spawns: scan inline.
        if threads == 1 || nrows < 2 * threads {
            let mut links = Vec::new();
            layout.scan_links(0, nrows, &mut links);
            return Self::from_links(nodes, &links);
        }
        let chunk = nrows.div_ceil(threads);
        let parts: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let layout = &layout;
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    scope.spawn(move || {
                        let (r0, r1) = (w * chunk, ((w + 1) * chunk).min(nrows));
                        let mut links = Vec::new();
                        if r0 < r1 {
                            layout.scan_links(r0, r1, &mut links);
                        }
                        links
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("row-scan worker panicked"))
                .collect()
        });
        let links = parts.concat();
        Self::from_links(nodes, &links)
    }

    /// Builds the same graph with the naive O(n²) all-pairs sweep. This
    /// is the oracle the differential tests validate [`Topology::build`]
    /// against; prefer `build` everywhere else.
    #[must_use]
    pub fn build_naive(nodes: &[(NodeId, Point)], range: f64) -> Self {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); nodes.len()];
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                if nodes[i].1.distance(nodes[j].1) <= range {
                    adj[i].push(j as u32);
                    adj[j].push(i as u32);
                }
            }
        }
        Self::from_lists(nodes, &adj)
    }

    /// The snapshot of an unordered undirected link list (each link one
    /// packed `src << 32 | dst`, either orientation).
    pub(crate) fn from_links(nodes: &[(NodeId, Point)], links: &[u64]) -> Self {
        let mut topo = Self::empty();
        topo.assemble(nodes, links, &mut BuildScratch::default());
        topo
    }

    /// [`from_links`](Self::from_links) into this snapshot's storage,
    /// with `scratch` for the CSR sorts' working arrays. A bit snapshot
    /// sets two bits per link; a CSR one is assembled by
    /// [`assemble_csr`].
    fn assemble(&mut self, nodes: &[(NodeId, Point)], links: &[u64], scratch: &mut BuildScratch) {
        assert!(
            nodes.len() < u32::MAX as usize,
            "topology indices are u32-dense"
        );
        let n = nodes.len();
        let mut csr = self.csr.take().unwrap_or_default();
        self.bits.clear();
        self.stride = 0;
        if rows_as_bits(n, links.len()) {
            let w = words(n);
            self.bits.resize(n * w, 0);
            let bits = &mut self.bits[..];
            for &l in links {
                let (a, b) = ((l >> 32) as usize, (l & 0xffff_ffff) as usize);
                bits[a * w + b / 64] |= 1 << (b % 64);
                bits[b * w + a / 64] |= 1 << (a % 64);
            }
            self.stride = w;
        } else {
            assemble_csr(&mut csr, n, links, scratch);
            self.csr = OnceCell::from(csr);
        }
        self.set_nodes(nodes, links.len());
    }

    /// Makes `nodes` this snapshot's nodes, in dense order, joined by
    /// `links` links, and forgets every answer and the id → index map.
    fn set_nodes(&mut self, nodes: &[(NodeId, Point)], links: usize) {
        self.links = links;
        self.ids.clear();
        self.ids.extend(nodes.iter().map(|(id, _)| *id));
        self.pos.clear();
        self.pos.extend(nodes.iter().map(|(_, p)| *p));
        self.id_ordered = self.ids.is_sorted();
        let cache = self.cache.get_mut();
        cache.index.clear();
        cache.reset(nodes.len());
    }

    /// The snapshot of per-node neighbor lists (already ascending).
    fn from_lists(nodes: &[(NodeId, Point)], lists: &[Vec<u32>]) -> Self {
        assert!(
            nodes.len() < u32::MAX as usize,
            "topology indices are u32-dense"
        );
        let mut starts = vec![0u32; nodes.len() + 1];
        for (i, l) in lists.iter().enumerate() {
            starts[i + 1] = starts[i] + l.len() as u32;
        }
        let adj = lists.concat();
        let mut topo = Self::empty();
        topo.links = adj.len() / 2;
        topo.csr = OnceCell::from(Csr { starts, adj });
        topo.ids = nodes.iter().map(|(id, _)| *id).collect();
        topo.pos = nodes.iter().map(|(_, p)| *p).collect();
        topo.id_ordered = topo.ids.is_sorted();
        topo.cache.get_mut().reset(nodes.len());
        topo.settle();
        topo
    }

    /// The CSR adjacency, built from the bit rows on the first ask.
    fn csr(&self) -> &Csr {
        self.csr.get_or_init(|| {
            let mut csr = Csr {
                starts: Vec::with_capacity(self.ids.len() + 1),
                adj: Vec::with_capacity(2 * self.links),
            };
            csr.starts.push(0);
            for row in self.bits.chunks_exact(self.stride) {
                csr.adj.extend(Row::of_bits(row).map(|j| j as u32));
                csr.starts.push(csr.adj.len() as u32);
            }
            csr
        })
    }

    /// The neighbours of dense index `i`, ascending, read from the rows.
    fn row(&self, i: usize) -> Row<'_> {
        if self.stride > 0 {
            Row::of_bits(&self.bits[i * self.stride..][..self.stride])
        } else {
            Row::List(self.neighbor_indices_at(i).iter())
        }
    }

    /// Whether dense indices `i` and `j` are linked.
    fn linked(&self, i: usize, j: usize) -> bool {
        if self.stride > 0 {
            has_bit(&self.bits[i * self.stride..][..self.stride], j)
        } else {
            self.neighbor_indices_at(i)
                .binary_search(&(j as u32))
                .is_ok()
        }
    }

    /// How many links dense index `i` has.
    fn degree_at(&self, i: usize) -> usize {
        if self.stride > 0 {
            let row = &self.bits[i * self.stride..][..self.stride];
            row.iter().map(|w| w.count_ones() as usize).sum()
        } else {
            self.neighbor_indices_at(i).len()
        }
    }

    /// ORs the rows of `front` into the bit set `next` — a bit row word
    /// by word, a CSR row one bit per entry — and returns the words it
    /// may have set.
    fn expand(&self, front: &[u32], next: &mut [u64]) -> Range<usize> {
        let w = self.stride;
        if w > 0 {
            for &u in front {
                let row = &self.bits[u as usize * w..][..w];
                for (n, r) in next.iter_mut().zip(row) {
                    *n |= r;
                }
            }
            return 0..w;
        }
        let csr = self.csr();
        let (mut lo, mut hi) = (usize::MAX, 0);
        for &u in front {
            for &v in &csr.adj[csr.starts[u as usize] as usize..csr.starts[u as usize + 1] as usize]
            {
                let j = v as usize / 64;
                next[j] |= 1 << (v % 64);
                lo = lo.min(j);
                hi = hi.max(j + 1);
            }
        }
        lo..hi
    }

    /// Number of nodes in the snapshot.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if the snapshot contains no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Returns `true` if the snapshot contains `node`.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        self.index_of(node).is_some()
    }

    /// The dense index of `node` within this snapshot, usable with
    /// [`node_at`](Topology::node_at) and
    /// [`neighbor_indices_at`](Topology::neighbor_indices_at).
    #[must_use]
    pub fn index_of(&self, node: NodeId) -> Option<usize> {
        let mut cache = self.cache.borrow_mut();
        if cache.index.is_empty() {
            cache.index.extend(self.ids.iter().copied().zip(0u32..));
            // Ascending ids — all a `World` ever hands over — are one
            // run to the sort: a linear pass.
            cache.index.sort_unstable_by_key(|e| e.0);
        }
        let at = cache.index.binary_search_by_key(&node, |e| e.0).ok()?;
        Some(cache.index[at].1 as usize)
    }

    /// The node at dense index `i` (indices come from
    /// [`index_of`](Topology::index_of) / neighbor slices).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn node_at(&self, i: usize) -> NodeId {
        self.ids[i]
    }

    /// One-hop neighbors of `node` as dense indices, ascending, without
    /// allocating (empty if unknown): a slice of the CSR adjacency,
    /// which a bit snapshot builds on the first ask. Routing rounds and
    /// render loops iterate it; [`neighbors`](Topology::neighbors) reads
    /// the rows instead.
    #[must_use]
    pub fn neighbor_indices(&self, node: NodeId) -> &[u32] {
        match self.index_of(node) {
            Some(i) => self.neighbor_indices_at(i),
            None => &[],
        }
    }

    /// One-hop neighbors of the node at dense index `i`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn neighbor_indices_at(&self, i: usize) -> &[u32] {
        let csr = self.csr();
        &csr.adj[csr.starts[i] as usize..csr.starts[i + 1] as usize]
    }

    /// One-hop neighbors of `node` (empty if unknown).
    #[must_use]
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        self.index_of(node)
            .map_or_else(Vec::new, |i| self.row(i).map(|j| self.ids[j]).collect())
    }

    /// How many one-hop neighbors `node` has (0 if unknown).
    pub(crate) fn degree(&self, node: NodeId) -> usize {
        self.index_of(node).map_or(0, |i| self.degree_at(i))
    }

    /// Hands the traversal from dense index `start` to `f`, starting it
    /// if this is the snapshot's first query from that source.
    fn with_bfs<R>(&self, start: usize, f: impl FnOnce(&mut Traversal) -> R) -> R {
        f(self.cache.borrow_mut().run_from(start))
    }

    /// BFS distances (in hops) from `node` to every reachable node,
    /// including itself at distance 0. Empty if `node` is unknown.
    #[must_use]
    pub fn distances_from(&self, node: NodeId) -> IdMap<NodeId, u32> {
        let Some(start) = self.index_of(node) else {
            return IdMap::default();
        };
        self.with_bfs(start, |bfs| {
            bfs.reach_depth(self, u32::MAX);
            std::iter::once((node, 0))
                .chain(bfs.near(self, u32::MAX))
                .collect()
        })
    }

    /// Shortest-path hop count between two nodes, `None` if disconnected
    /// or either node is unknown. `Some(0)` when `a == b`.
    #[must_use]
    pub fn hops(&self, a: NodeId, b: NodeId) -> Option<u32> {
        if a == b {
            return self.contains(a).then_some(0);
        }
        self.pair(a, b, u32::MAX)
    }

    /// Whether `b` is at most `k` hops from `a` — `hops(a, b)` at most
    /// `k` — looking no further than the answer needs: a traversal is
    /// resumed until the other end is reached or to depth `k` at most,
    /// and a search that meets in the middle stops once its two depths
    /// add up to `k`, so a far or unreachable `b` costs a `k`-hop
    /// neighbourhood, not a component. `false` if either node is
    /// unknown.
    #[must_use]
    pub fn within_hops(&self, a: NodeId, b: NodeId, k: u32) -> bool {
        if a == b {
            return self.contains(a);
        }
        self.pair(a, b, k).is_some_and(|d| d <= k)
    }

    /// The distance between `a != b`, looking no further than `k` hops
    /// (a resumed traversal that already went further may report more);
    /// `None` past that, when disconnected, or if either is unknown.
    /// Links are undirected, so a traversal under way from either end
    /// answers it, `a`'s first: resumed, it costs what the last query
    /// from there left undone, and a flood followed by unicasts from its
    /// source stays one BFS. With neither, the two ends meet in the
    /// middle ([`Meet`]), which touches two balls of about half the
    /// radius and leaves no traversal behind.
    fn pair(&self, a: NodeId, b: NodeId, k: u32) -> Option<u32> {
        let (ia, ib) = (self.index_of(a)?, self.index_of(b)?);
        let mut cache = self.cache.borrow_mut();
        let cache = &mut *cache;
        match (cache.slot[ia], cache.slot[ib]) {
            (NO_RUN, NO_RUN) => cache.meet.distance(self, ia, ib, k),
            (NO_RUN, run) => cache.runs[run as usize].reach(self, ia, k),
            (run, _) => cache.runs[run as usize].reach(self, ib, k),
        }
    }

    /// All nodes within `k` hops of `node` (excluding the node itself),
    /// with their distances, sorted by `(distance, id)`.
    #[must_use]
    pub fn within(&self, node: NodeId, k: u32) -> Vec<(NodeId, u32)> {
        self.reach(node, k)
            .map_or_else(Vec::new, |reach| reach.near())
    }

    /// What a send from `node` bounded by `k` hops reaches (`u32::MAX`:
    /// its whole component), read off the traversal from `node`, which
    /// this finishes out to `k`; `None` if `node` is unknown. The view
    /// borrows the snapshot's memo: no other query may run on this
    /// snapshot until it is dropped.
    pub(crate) fn reach(&self, node: NodeId, k: u32) -> Option<Reach<'_>> {
        let start = self.index_of(node)?;
        self.with_bfs(start, |bfs| bfs.reach_depth(self, k));
        let bfs = Ref::map(self.cache.borrow(), |c| &c.runs[c.slot[start] as usize]);
        // Only a traversal's deepest level may be empty: the component
        // is covered.
        let mut depth = k.min(bfs.depth());
        if depth > 0 && bfs.level(depth).is_empty() {
            depth -= 1;
        }
        Some(Reach {
            topo: self,
            bfs,
            depth,
        })
    }

    /// The first node other than `node` that satisfies `pred`, walking
    /// outward level by level, ids ascending within a level — the
    /// minimum by `(distance, id)` over the matching reachable nodes —
    /// with its distance. Stops at the first hit, so a nearby match
    /// never pays for the rest of the component. `pred` must not query
    /// this snapshot.
    pub fn nearest(
        &self,
        node: NodeId,
        mut pred: impl FnMut(NodeId) -> bool,
    ) -> Option<(NodeId, u32)> {
        let start = self.index_of(node)?;
        self.with_bfs(start, |bfs| {
            for d in 1.. {
                if d > bfs.depth() && !bfs.advance(self) {
                    break;
                }
                if let Some(&i) = bfs.level(d).iter().find(|&&i| pred(self.ids[i as usize])) {
                    return Some((self.ids[i as usize], d));
                }
            }
            None
        })
    }

    /// One deterministic shortest path `from → to` (both inclusive):
    /// walking back from `to`, always the lowest-id neighbor one hop
    /// closer to `from` — the first node of the level before, in its id
    /// order, that the row links to. `None` if disconnected or either is
    /// unknown.
    pub(crate) fn route(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        let (start, target) = (self.index_of(from)?, self.index_of(to)?);
        self.with_bfs(start, |bfs| {
            let mut d = bfs.reach(self, target, u32::MAX)?;
            let mut path = vec![to];
            let mut cur = target;
            while d > 0 {
                d -= 1;
                cur = bfs
                    .level(d)
                    .iter()
                    .map(|&j| j as usize)
                    .find(|&j| self.linked(cur, j))
                    .expect("BFS predecessor exists on a shortest path");
                path.push(self.ids[cur]);
            }
            path.reverse();
            Some(path)
        })
    }

    /// Fills (or recalls) the component partition and hands it to `f`.
    fn with_comps<R>(&self, f: impl FnOnce(&[Vec<NodeId>], &[usize]) -> R) -> R {
        let mut cache = self.cache.borrow_mut();
        let (comps, comp_of) = cache.comps.get_or_insert_with(|| {
            let n = self.ids.len();
            let (mut seen, mut next) = (vec![0u64; words(n)], vec![0u64; words(n)]);
            let mut comp_of = vec![usize::MAX; n];
            let mut comps: Vec<Vec<NodeId>> = Vec::new();
            let mut members = Vec::new();
            for i in 0..n {
                if has_bit(&seen, i) {
                    continue;
                }
                set_bit(&mut seen, i);
                members.clear();
                members.push(i as u32);
                let mut lo = 0;
                while lo < members.len() {
                    let hi = members.len();
                    let span = self.expand(&members[lo..hi], &mut next);
                    take_fresh(&mut next, &mut seen, span, &mut members);
                    lo = hi;
                }
                let id = comps.len();
                let mut comp: Vec<NodeId> = members
                    .iter()
                    .map(|&u| {
                        comp_of[u as usize] = id;
                        self.ids[u as usize]
                    })
                    .collect();
                comp.sort_unstable();
                comps.push(comp);
            }
            // Remap so components are ordered by smallest member and
            // `comp_of` agrees with the new order.
            let mut order: Vec<usize> = (0..comps.len()).collect();
            order.sort_by_key(|&c| comps[c][0]);
            let mut rank = vec![0usize; comps.len()];
            for (new, &old) in order.iter().enumerate() {
                rank[old] = new;
            }
            let mut sorted = vec![Vec::new(); comps.len()];
            for (old, comp) in comps.into_iter().enumerate() {
                sorted[rank[old]] = comp;
            }
            for c in &mut comp_of {
                *c = rank[*c];
            }
            (sorted, comp_of)
        });
        f(comps, comp_of)
    }

    /// The connected component containing `node`, sorted by id. Empty if
    /// `node` is unknown.
    #[must_use]
    pub fn component_of(&self, node: NodeId) -> Vec<NodeId> {
        let Some(i) = self.index_of(node) else {
            return Vec::new();
        };
        self.with_comps(|comps, comp_of| comps[comp_of[i]].clone())
    }

    /// All connected components, each sorted by id, ordered by their
    /// smallest member.
    #[must_use]
    pub fn components(&self) -> Vec<Vec<NodeId>> {
        self.with_comps(|comps, _| comps.to_vec())
    }

    /// The label of the component containing `node` — its index in
    /// [`Topology::components`], so two nodes can reach each other iff
    /// their labels are equal. `None` if `node` is unknown. A lookup
    /// into the memoized partition: membership tests need not clone the
    /// member lists.
    #[must_use]
    pub fn component_id(&self, node: NodeId) -> Option<usize> {
        let i = self.index_of(node)?;
        Some(self.with_comps(|_, comp_of| comp_of[i]))
    }

    /// Returns `true` if `a` and `b` can reach each other.
    #[must_use]
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        self.hops(a, b).is_some()
    }

    /// Total number of undirected links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.links
    }

    /// Whether the rows are bit sets (the snapshot is dense) rather
    /// than a CSR.
    #[must_use]
    pub fn rows_are_bits(&self) -> bool {
        self.stride > 0
    }
}

/// Assembles the CSR adjacency of `n` nodes from an unordered
/// undirected link list (each link one packed `src << 32 | dst`, either
/// orientation) via two counting sorts: by destination, then by source.
/// Each node's final neighbor run comes out ascending — pass one groups
/// directed edges by destination, and pass two walks the destination
/// groups smallest-first, appending each destination to its sources'
/// runs — matching the all-pairs sweep exactly, without any comparison
/// sort. Neither pass needs to be stable for that (order *within* a
/// destination group never shows in the output), which frees pass one
/// to interleave four independent scatter chains so the
/// read-modify-write latency of the position cursors overlaps instead
/// of serializing.
fn assemble_csr(csr: &mut Csr, n: usize, links: &[u64], scratch: &mut BuildScratch) {
    let ne = links.len() * 2;
    let (adj_starts, adj) = (&mut csr.starts, &mut csr.adj);
    let (by_dst, pos) = (&mut scratch.by_dst, &mut scratch.pos);
    adj_starts.clear();
    adj_starts.resize(n + 1, 0);
    for &l in links {
        adj_starts[(l >> 32) as usize + 1] += 1;
        adj_starts[(l & 0xffff_ffff) as usize + 1] += 1;
    }
    for i in 1..=n {
        adj_starts[i] += adj_starts[i - 1];
    }
    // Pass one: group directed edges by destination. Only the
    // source needs storing — the destination is the group index.
    pos.clear();
    pos.extend_from_slice(&adj_starts[..n]);
    by_dst.clear();
    by_dst.resize(ne, 0);
    {
        let q = links.len() / 4;
        let (s0, rest) = links.split_at(q);
        let (s1, rest) = rest.split_at(q);
        let (s2, s3) = rest.split_at(q);
        let mut scatter = |l: u64| {
            let (a, b) = ((l >> 32) as usize, (l & 0xffff_ffff) as usize);
            by_dst[pos[b] as usize] = a as u32;
            pos[b] += 1;
            by_dst[pos[a] as usize] = b as u32;
            pos[a] += 1;
        };
        for i in 0..q {
            scatter(s0[i]);
            scatter(s1[i]);
            scatter(s2[i]);
            scatter(s3[i]);
        }
        for &l in &s3[q..] {
            scatter(l);
        }
    }
    // Pass two: scatter each group's sources pairwise (two more
    // independent chains); destinations arrive at every source
    // ascending.
    pos.clear();
    pos.extend_from_slice(&adj_starts[..n]);
    adj.clear();
    adj.resize(ne, 0);
    for d in 0..n {
        let d32 = d as u32;
        let group = &by_dst[adj_starts[d] as usize..adj_starts[d + 1] as usize];
        let mut pairs = group.chunks_exact(2);
        for pair in &mut pairs {
            let (s0, s1) = (pair[0] as usize, pair[1] as usize);
            let p0 = pos[s0];
            pos[s0] = p0 + 1;
            adj[p0 as usize] = d32;
            let p1 = pos[s1];
            pos[s1] = p1 + 1;
            adj[p1 as usize] = d32;
        }
        for &src in pairs.remainder() {
            let p = pos[src as usize];
            pos[src as usize] = p + 1;
            adj[p as usize] = d32;
        }
    }
}

/// Structural equality: same nodes in the same dense order with the
/// same rows — which also means the same storage, so a splice that
/// landed on another storage than a build would pick is told apart.
/// Memo caches are query state, not structure, so they are ignored — a
/// fresh build and an incrementally-maintained build of the same
/// instant compare equal even if one has answered queries and the
/// other has not.
impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        self.ids == other.ids
            && self.stride == other.stride
            && if self.stride > 0 {
                self.bits == other.bits
            } else {
                self.csr() == other.csr()
            }
    }
}

impl Eq for Topology {}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize, spacing: f64) -> Vec<(NodeId, Point)> {
        (0..n)
            .map(|i| (NodeId::new(i as u64), Point::new(i as f64 * spacing, 0.0)))
            .collect()
    }

    /// Both engines, so every invariant below is checked against the
    /// grid build and the oracle.
    fn engines(nodes: &[(NodeId, Point)], range: f64) -> [Topology; 2] {
        [
            Topology::build(nodes, range),
            Topology::build_naive(nodes, range),
        ]
    }

    #[test]
    fn empty_topology() {
        for t in engines(&[], 100.0) {
            assert!(t.is_empty());
            assert_eq!(t.neighbors(NodeId::new(0)), vec![]);
            assert!(t.neighbor_indices(NodeId::new(0)).is_empty());
            assert_eq!(t.hops(NodeId::new(0), NodeId::new(1)), None);
            assert!(t.components().is_empty());
        }
    }

    #[test]
    fn line_graph_hops() {
        for t in engines(&line(5, 100.0), 100.0) {
            assert_eq!(t.hops(NodeId::new(0), NodeId::new(4)), Some(4));
            assert_eq!(t.hops(NodeId::new(2), NodeId::new(2)), Some(0));
            assert_eq!(t.link_count(), 4);
        }
    }

    #[test]
    fn range_is_inclusive() {
        let nodes = [
            (NodeId::new(0), Point::new(0.0, 0.0)),
            (NodeId::new(1), Point::new(150.0, 0.0)),
        ];
        for t in engines(&nodes, 150.0) {
            assert_eq!(t.hops(NodeId::new(0), NodeId::new(1)), Some(1));
        }
    }

    #[test]
    fn disconnected_components() {
        let nodes = [
            (NodeId::new(0), Point::new(0.0, 0.0)),
            (NodeId::new(1), Point::new(50.0, 0.0)),
            (NodeId::new(5), Point::new(900.0, 900.0)),
        ];
        for t in engines(&nodes, 100.0) {
            assert_eq!(t.hops(NodeId::new(0), NodeId::new(5)), None);
            assert!(!t.connected(NodeId::new(1), NodeId::new(5)));
            let comps = t.components();
            assert_eq!(comps.len(), 2);
            assert_eq!(comps[0], vec![NodeId::new(0), NodeId::new(1)]);
            assert_eq!(comps[1], vec![NodeId::new(5)]);
            assert_eq!(t.component_of(NodeId::new(1)), comps[0]);
        }
    }

    #[test]
    fn within_k_sorted_and_excludes_self() {
        for t in engines(&line(6, 100.0), 100.0) {
            let near = t.within(NodeId::new(2), 2);
            assert_eq!(
                near,
                vec![
                    (NodeId::new(1), 1),
                    (NodeId::new(3), 1),
                    (NodeId::new(0), 2),
                    (NodeId::new(4), 2),
                ]
            );
        }
    }

    #[test]
    fn unknown_node_queries_are_safe() {
        for t in engines(&line(3, 100.0), 100.0) {
            let ghost = NodeId::new(99);
            assert!(!t.contains(ghost));
            assert_eq!(t.index_of(ghost), None);
            assert!(t.distances_from(ghost).is_empty());
            assert!(t.neighbor_indices(ghost).is_empty());
            assert_eq!(t.hops(ghost, ghost), None);
            assert!(t.component_of(ghost).is_empty());
            assert!(t.within(ghost, 3).is_empty());
        }
    }

    #[test]
    fn dense_clique() {
        let nodes: Vec<(NodeId, Point)> = (0..4)
            .map(|i| (NodeId::new(i), Point::new(i as f64, 0.0)))
            .collect();
        for t in engines(&nodes, 10.0) {
            assert_eq!(t.link_count(), 6);
            for i in 0..4 {
                assert_eq!(t.neighbors(NodeId::new(i)).len(), 3);
            }
        }
    }

    #[test]
    fn degenerate_ranges_match_naive_semantics() {
        let nodes = [
            (NodeId::new(0), Point::new(5.0, 5.0)),
            (NodeId::new(1), Point::new(5.0, 5.0)),
            (NodeId::new(2), Point::new(6.0, 5.0)),
        ];
        // Zero range links only coincident points.
        for t in engines(&nodes, 0.0) {
            assert_eq!(t.link_count(), 1);
            assert_eq!(t.hops(NodeId::new(0), NodeId::new(1)), Some(1));
            assert_eq!(t.hops(NodeId::new(0), NodeId::new(2)), None);
        }
        // Negative range links nothing.
        for t in engines(&nodes, -1.0) {
            assert_eq!(t.link_count(), 0);
        }
    }

    #[test]
    fn neighbor_indices_are_ascending_and_match_neighbors() {
        let nodes = [
            (NodeId::new(0), Point::new(0.0, 0.0)),
            (NodeId::new(1), Point::new(50.0, 0.0)),
            (NodeId::new(2), Point::new(100.0, 0.0)),
            (NodeId::new(3), Point::new(50.0, 50.0)),
        ];
        for t in engines(&nodes, 120.0) {
            for (id, _) in &nodes {
                let idx = t.neighbor_indices(*id);
                assert!(idx.windows(2).all(|w| w[0] < w[1]), "ascending: {idx:?}");
                let via_idx: Vec<NodeId> = idx.iter().map(|&j| t.node_at(j as usize)).collect();
                assert_eq!(via_idx, t.neighbors(*id));
                assert_eq!(idx, t.neighbor_indices_at(t.index_of(*id).unwrap()));
            }
        }
    }

    /// A 6 × 5 grid, 90 m apart: at 150 m each node links to its eight
    /// surrounding cells, so node 0 is five hops from node 29.
    fn grid30() -> Vec<(NodeId, Point)> {
        (0..30)
            .map(|i| {
                (
                    NodeId::new(i),
                    Point::new((i % 6) as f64 * 90.0, (i / 6) as f64 * 90.0),
                )
            })
            .collect()
    }

    /// How many traversals the snapshot's memo holds.
    fn live(t: &Topology) -> usize {
        t.cache.borrow().live
    }

    /// The traversal from `node`, if one has started: `(depth finished,
    /// distance of `to` if reached)`.
    fn run_of(t: &Topology, node: NodeId, to: NodeId) -> Option<(u32, Option<u32>)> {
        let (at, to) = (t.index_of(node)?, t.index_of(to)?);
        let cache = t.cache.borrow();
        let slot = cache.slot[at];
        (slot != NO_RUN).then(|| {
            let run = &cache.runs[slot as usize];
            (run.depth(), run.distance(t, to))
        })
    }

    #[test]
    fn a_pair_query_on_a_fresh_snapshot_meets_and_leaves_no_traversal() {
        let nodes = grid30();
        for t in engines(&nodes, 150.0) {
            let oracle = Topology::build_naive(&nodes, 150.0);
            for (a, _) in &nodes {
                for (b, _) in &nodes {
                    let want = oracle.distances_from(*a).get(b).copied();
                    assert_eq!(t.hops(*a, *b), want, "hops({a}, {b})");
                    for k in [0, 1, 2, 3, 5, u32::MAX] {
                        let within = want.is_some_and(|h| h <= k);
                        assert_eq!(t.within_hops(*a, *b, k), within, "({a}, {b}, {k})");
                    }
                }
            }
            assert_eq!(live(&t), 0);
        }
    }

    #[test]
    fn pair_queries_resume_the_first_ends_traversal() {
        let (a, b) = (NodeId::new(0), NodeId::new(29));
        for t in engines(&grid30(), 150.0) {
            let _ = t.within(a, 1);
            assert_eq!(t.hops(a, b), Some(5));
            assert_eq!(live(&t), 1);
            // Resumed to `b`'s level, not left at depth one.
            assert_eq!(run_of(&t, a, b).map(|r| r.0), Some(5));
            assert!(!t.within_hops(a, b, 3) && t.within_hops(a, b, 5));
            assert_eq!(live(&t), 1);
            assert!(run_of(&t, b, a).is_none());
        }
    }

    #[test]
    fn pair_queries_resume_the_second_ends_traversal_when_only_it_has_one() {
        let (a, b) = (NodeId::new(0), NodeId::new(29));
        for t in engines(&grid30(), 150.0) {
            let _ = t.within(b, 1);
            assert!(!t.within_hops(a, b, 3));
            assert_eq!(live(&t), 1);
            assert_eq!(run_of(&t, b, a), Some((3, None)));
            assert_eq!(t.hops(a, b), Some(5));
            assert_eq!(live(&t), 1);
            assert_eq!(run_of(&t, b, a), Some((5, Some(5))));
            assert!(run_of(&t, a, b).is_none());
        }
    }

    /// A bit set holding `model`'s true positions.
    fn bits_of(model: &[bool]) -> Vec<u64> {
        let mut set = vec![0u64; words(model.len())];
        for (i, _) in model.iter().enumerate().filter(|(_, b)| **b) {
            set_bit(&mut set, i);
        }
        set
    }

    #[test]
    fn bit_shifts_match_a_list_model_at_word_boundaries() {
        for n in [1usize, 2, 63, 64, 65, 127, 128, 129, 200] {
            let model: Vec<bool> = (0..n)
                .map(|i| (i * 37 + n) % 3 == 0 || i % 64 == 0 || i % 64 == 63)
                .collect();
            let ones: Vec<usize> = (0..n).filter(|&i| model[i]).collect();
            assert_eq!(Row::of_bits(&bits_of(&model)).collect::<Vec<_>>(), ones);
            for p in [0, 1, 62, 63, 64, 65, 127, 128, 129, n - 1, n] {
                if p > n {
                    continue;
                }
                let mut row = bits_of(&model);
                row.resize(words(n + 1), 0);
                insert_bit(&mut row, p);
                let mut want = model.clone();
                want.insert(p, false);
                assert_eq!(row, bits_of(&want), "insert at {p} of {n}");
                if p == n {
                    continue;
                }
                let mut row = bits_of(&model);
                remove_bit(&mut row, p);
                assert!(row[words(n - 1)..].iter().all(|&w| w == 0), "{p} of {n}");
                row.truncate(words(n - 1));
                let mut want = model.clone();
                want.remove(p);
                assert_eq!(row, bits_of(&want), "remove at {p} of {n}");
            }
        }
    }

    #[test]
    fn take_fresh_yields_new_bits_ascending_and_clears_them() {
        let mut fresh = bits_of(&(0..130).map(|i| i % 3 == 0).collect::<Vec<_>>());
        let mut seen = bits_of(&(0..130).map(|i| i % 2 == 0).collect::<Vec<_>>());
        let mut out = Vec::new();
        take_fresh(&mut fresh, &mut seen, 0..3, &mut out);
        let want: Vec<u32> = (0..130).filter(|i| i % 3 == 0 && i % 2 == 1).collect();
        assert_eq!(out, want);
        assert!(fresh.iter().all(|&w| w == 0));
        let union: Vec<bool> = (0..130).map(|i| i % 3 == 0 || i % 2 == 0).collect();
        assert_eq!(seen, bits_of(&union));
    }

    #[test]
    fn the_storage_rule_compares_a_bit_row_with_the_mean_list() {
        // 600 nodes: ten words a row against a mean degree of ten.
        assert!(rows_as_bits(600, 3_000) && !rows_as_bits(600, 2_999));
        // 64 nodes: one word against one link per node.
        assert!(rows_as_bits(64, 32) && !rows_as_bits(64, 31));
        // 20 000 nodes at a mean degree of 28: 313 words a row.
        assert!(!rows_as_bits(20_000, 280_000));
        assert!(!rows_as_bits(0, 0) && !rows_as_bits(1, 0));
    }

    /// `n` nodes on a square lattice `spacing` apart, ids ascending.
    fn lattice(n: usize, side: usize, spacing: f64) -> Vec<(NodeId, Point)> {
        (0..n)
            .map(|i| {
                let (x, y) = ((i % side) as f64, (i / side) as f64);
                (NodeId::new(i as u64), Point::new(x * spacing, y * spacing))
            })
            .collect()
    }

    /// A snapshot of `nodes` swept with a skin.
    fn skinned(nodes: &[(NodeId, Point)], range: f64) -> Topology {
        let mut topo = Topology::empty();
        topo.sweep(nodes, range, true);
        assert!(topo.can_carry(), "a dense strip layout keeps a skin");
        topo
    }

    /// `nodes` with node `i` moved by `(dx, dy)`.
    fn moved(nodes: &[(NodeId, Point)], i: usize, dx: f64, dy: f64) -> Vec<(NodeId, Point)> {
        let mut out = nodes.to_vec();
        out[i].1 = Point::new(out[i].1.x + dx, out[i].1.y + dy);
        out
    }

    /// Carries `topo` to `nodes` and holds it to a fresh build, storage
    /// included; returns whether it carried.
    fn carry_to(topo: &mut Topology, nodes: &[(NodeId, Point)], range: f64, when: &str) -> bool {
        let carried = topo.carry(nodes, range);
        assert!(*topo == Topology::build(nodes, range), "{when}");
        assert!(*topo == Topology::build_naive(nodes, range), "{when}");
        carried
    }

    #[test]
    fn a_pair_at_exactly_the_range_stays_exact_across_carries() {
        // 50 m apart on a 10 × 10 lattice: every pair three steps apart
        // on a line is exactly 150 m apart.
        let range = 150.0;
        let nodes = lattice(100, 10, 50.0);
        let mut topo = skinned(&nodes, range);
        assert!(topo.linked(0, 3) && !topo.linked(0, 4));
        // Everyone shifts alike, by halves and quarters: every difference
        // stays exact, so the pairs at the range stay at it.
        let shifted: Vec<_> = nodes
            .iter()
            .map(|&(id, p)| (id, Point::new(p.x + 0.5, p.y + 0.25)))
            .collect();
        assert!(carry_to(&mut topo, &shifted, range, "shifted"));
        assert!(topo.linked(0, 3));
        // One ulp past the range, then back on it.
        let x3 = shifted[3].1.x;
        let past = moved(&shifted, 3, f64::from_bits(x3.to_bits() + 1) - x3, 0.0);
        assert!(Point::distance(past[0].1, past[3].1) > range);
        assert!(carry_to(&mut topo, &past, range, "one ulp past"));
        assert!(!topo.linked(0, 3));
        assert!(carry_to(&mut topo, &shifted, range, "back at the range"));
        assert!(topo.linked(0, 3));
    }

    #[test]
    fn displacements_summing_to_exactly_the_skin_carry_and_past_it_sweep() {
        let range = 150.0;
        let s = range * SKIN;
        let nodes = lattice(100, 10, 50.0);
        // Node 0 stands at the origin, node 99 at (450, 450): their moves
        // along x are exact.
        for (how, ends) in [
            ("one node by s", vec![(0, s)]),
            ("two nodes by s/2", vec![(0, s / 2.0), (99, s / 2.0)]),
        ] {
            let mut there = nodes.clone();
            for &(i, dx) in &ends {
                there = moved(&there, i, dx, 0.0);
            }
            let mut topo = skinned(&nodes, range);
            assert!(carry_to(&mut topo, &there, range, how), "{how} carries");
            assert!(topo.can_carry());
        }
        let just_past = f64::from_bits(s.to_bits() + 1);
        let mut topo = skinned(&nodes, range);
        let past = moved(&nodes, 0, just_past, 0.0);
        assert!(!carry_to(&mut topo, &past, range, "just past s"), "sweeps");
        assert!(topo.can_carry(), "the sweep keeps a fresh skin");
        // The sweep made `past` the reference: exactly `s` back carries.
        let back = moved(&nodes, 0, just_past - s, 0.0);
        assert!(carry_to(&mut topo, &back, range, "s back"));
    }

    #[test]
    fn a_carry_that_crosses_the_storage_rule_sweeps_to_the_build() {
        // 64 nodes (one word a row) in 32 pairs 140 m apart, the pairs
        // 400 m from each other: 32 links, the fewest bit rows hold.
        let range = 150.0;
        let nodes: Vec<(NodeId, Point)> = (0..64u64)
            .map(|i| {
                let k = (i / 2) as f64;
                let x = 400.0 * (k % 8.0) + 140.0 * (i % 2) as f64;
                (NodeId::new(i), Point::new(x, 400.0 * (k / 8.0).floor()))
            })
            .collect();
        let mut topo = skinned(&nodes, range);
        assert_eq!(topo.link_count(), 32);
        // One pair drifts 12 m further apart: 31 links, a CSR.
        let apart = moved(&nodes, 1, 12.0, 0.0);
        assert!(!carry_to(&mut topo, &apart, range, "across the rule"));
        assert!(!topo.rows_are_bits() && !topo.can_carry());
        assert_eq!(topo.link_count(), 31);
    }

    #[test]
    fn relocation_at_word_boundaries_equals_the_build() {
        let range = 150.0;
        // 130 nodes: three words a row, the last index 129.
        let nodes = lattice(130, 13, 45.0);
        for p in [63usize, 64, 129] {
            for (dx, dy) in [(3.0, -2.0), (70.0, 55.0)] {
                let there = moved(&nodes, p, dx, dy);
                let mut topo = skinned(&nodes, range);
                topo.relocate(nodes[p].0, there[p].1, range);
                let when = format!("node {p} by ({dx}, {dy})");
                assert!(topo == Topology::build(&there, range), "{when}");
                // The skin still carries the moved world exactly.
                let drift: Vec<_> = there
                    .iter()
                    .map(|&(id, q)| (id, Point::new(q.x + 1.0, q.y - 1.5)))
                    .collect();
                assert!(carry_to(&mut topo, &drift, range, &when));
                // Without a skin, the same.
                let mut plain = Topology::build(&nodes, range);
                plain.relocate(nodes[p].0, there[p].1, range);
                assert!(plain == Topology::build(&there, range), "{when}, plain");
            }
        }
    }

    #[test]
    fn mirror_completes_half_rows_at_word_boundaries() {
        for n in [1usize, 63, 64, 65, 130] {
            let w = words(n);
            // Each pair once, in an orientation that varies with it.
            let pairs: Vec<(usize, usize)> = (0..n)
                .flat_map(|a| (0..a).map(move |b| (a, b)))
                .filter(|&(a, b)| (a * 7 + b * 13) % 5 < 2)
                .map(|(a, b)| if (a + b) % 2 == 0 { (a, b) } else { (b, a) })
                .collect();
            let (mut half, mut full) = (vec![0u64; n * w], vec![0u64; n * w]);
            for &(a, b) in &pairs {
                set_bit(&mut half[a * w..][..w], b);
                set_bit(&mut full[a * w..][..w], b);
                set_bit(&mut full[b * w..][..w], a);
            }
            mirror(&mut half, n, w);
            assert_eq!(half, full, "{n} nodes");
        }
    }

    #[test]
    fn memoized_queries_are_stable_across_repeats() {
        let nodes = grid30();
        let t = Topology::build(&nodes, 150.0);
        let first = t.distances_from(NodeId::new(0));
        let comps = t.components();
        for _ in 0..3 {
            assert_eq!(t.distances_from(NodeId::new(0)), first);
            assert_eq!(t.components(), comps);
            assert_eq!(
                t.hops(NodeId::new(0), NodeId::new(29)),
                first.get(&NodeId::new(29)).copied()
            );
        }
    }
}
