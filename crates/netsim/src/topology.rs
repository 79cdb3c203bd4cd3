//! Network topologies and minimal-path enumeration.
//!
//! A topology exposes its links as a dense index space and produces
//! minimal paths (sequences of [`LinkId`]s) between node pairs. The
//! switched network stores one bounded FIFO per link; route *strategies*
//! (deterministic / adaptive / randomized) choose among the candidate
//! paths a topology offers, which is where delivery-order behavior comes
//! from: a single canonical path per pair preserves order, multipath
//! routing does not.

use crate::rng::SimRng;

use crate::id::NodeId;

/// Identifies one directed link (a bounded FIFO) in a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub(crate) usize);

impl LinkId {
    /// Dense index of this link.
    pub const fn index(self) -> usize {
        self.0
    }
}

/// A network topology: a set of nodes, a set of directed links, and
/// minimal paths between nodes.
pub trait Topology {
    /// Number of attached (leaf) nodes.
    fn num_nodes(&self) -> usize;

    /// Number of directed links.
    fn num_links(&self) -> usize;

    /// The single deterministic minimal path from `src` to `dst`,
    /// written into `path` (cleared first; left empty for `src == dst`).
    /// Routing all of a pair's traffic on this path preserves delivery
    /// order. A router that keeps one buffer across packets routes
    /// without allocating.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    fn canonical_path(&self, src: NodeId, dst: NodeId, path: &mut Vec<LinkId>);

    /// Up to `max` distinct-ish minimal paths from `src` to `dst`,
    /// sampled with `rng`. Always includes at least one path. Multipath
    /// (adaptive/randomized) routing picks among these, which is what
    /// makes delivery order arbitrary.
    fn candidate_paths(&self, src: NodeId, dst: NodeId, rng: &mut dyn FnMut(usize) -> usize, max: usize)
        -> Vec<Vec<LinkId>>;

    /// Human-readable description.
    fn describe(&self) -> String;

    /// Longest minimal path length in hops.
    fn diameter(&self) -> usize;
}

/// Sample helper: adapts a [`SimRng`] to the `FnMut(usize) -> usize`
/// bound used by [`Topology::candidate_paths`] (returns a uniform value
/// in `0..bound`).
pub fn rng_fn(rng: &mut SimRng) -> impl FnMut(usize) -> usize + '_ {
    move |bound| rng.gen_index(bound)
}

// ---------------------------------------------------------------------
// Fat tree (CM-5-like)
// ---------------------------------------------------------------------

/// A `k`-ary fat tree with `levels` switch levels and `fatness` parallel
/// up-channels per switch port — an abstraction of the CM-5 data
/// network. Leaves are the nodes; a packet climbs to the lowest common
/// ancestor level and descends. The up-channel choice at each level is
/// where multipath (and hence reordering) comes from; down paths are
/// unique.
#[derive(Debug, Clone)]
pub struct FatTree {
    arity: usize,
    levels: usize,
    fatness: usize,
    nodes: usize,
    up_base: Vec<usize>,
    down_base: Vec<usize>,
    num_links: usize,
}

impl FatTree {
    /// Build a fat tree. `arity ≥ 2`, `levels ≥ 1`, `fatness ≥ 1`;
    /// nodes = `arity^levels`.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or `arity < 2`.
    pub fn new(arity: usize, levels: usize, fatness: usize) -> Self {
        assert!(arity >= 2, "fat tree arity must be at least 2");
        assert!(levels >= 1, "fat tree needs at least one level");
        assert!(fatness >= 1, "fatness must be at least 1");
        let nodes = arity.pow(levels as u32);
        // Link id layout: for each level l in 1..=levels, first the up
        // links (groups(l) * fatness of them, where groups(l) =
        // nodes / arity^l subtree-entry points... up links are per
        // *child* position: each of the nodes/arity^(l-1) level-(l-1)
        // units has `fatness` channels up to its level-l parent), then
        // the down links (one per level-(l-1) unit).
        let mut up_base = vec![0; levels + 1];
        let mut down_base = vec![0; levels + 1];
        let mut next = 0;
        for l in 1..=levels {
            let units = nodes / arity.pow((l - 1) as u32);
            up_base[l] = next;
            next += units * fatness;
            down_base[l] = next;
            next += units;
        }
        FatTree {
            arity,
            levels,
            fatness,
            nodes,
            up_base,
            down_base,
            num_links: next,
        }
    }

    /// The CM-5-scale default used in tests and examples: 4-ary, 3
    /// levels (64 nodes), fatness 2.
    pub fn cm5ish() -> Self {
        FatTree::new(4, 3, 2)
    }

    /// Parallel up-channels per port.
    pub fn fatness(&self) -> usize {
        self.fatness
    }

    fn ancestor_level(&self, src: usize, dst: usize) -> usize {
        let mut l = 0;
        let mut s = src;
        let mut d = dst;
        while s != d {
            s /= self.arity;
            d /= self.arity;
            l += 1;
        }
        l
    }

    fn up_link(&self, level: usize, unit: usize, channel: usize) -> LinkId {
        LinkId(self.up_base[level] + unit * self.fatness + channel)
    }

    fn down_link(&self, level: usize, unit: usize) -> LinkId {
        LinkId(self.down_base[level] + unit)
    }

    fn path_with_channels(
        &self,
        src: usize,
        dst: usize,
        mut channel: impl FnMut(usize) -> usize,
        path: &mut Vec<LinkId>,
    ) {
        let a = self.ancestor_level(src, dst);
        path.clear();
        path.reserve(2 * a);
        for l in 1..=a {
            let unit = src / self.arity.pow((l - 1) as u32);
            path.push(self.up_link(l, unit, channel(l)));
        }
        for l in (1..=a).rev() {
            let unit = dst / self.arity.pow((l - 1) as u32);
            path.push(self.down_link(l, unit));
        }
    }

    fn check(&self, n: NodeId) {
        assert!(
            n.index() < self.nodes,
            "node {n} out of range for {} leaves",
            self.nodes
        );
    }
}

impl Topology for FatTree {
    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn num_links(&self) -> usize {
        self.num_links
    }

    fn canonical_path(&self, src: NodeId, dst: NodeId, path: &mut Vec<LinkId>) {
        self.check(src);
        self.check(dst);
        // Deterministic channel choice: a per-pair hash, so distinct
        // pairs spread over channels but one pair always uses one path.
        let h = src.index().wrapping_mul(31).wrapping_add(dst.index());
        self.path_with_channels(src.index(), dst.index(), |l| (h + l) % self.fatness, path);
    }

    fn candidate_paths(
        &self,
        src: NodeId,
        dst: NodeId,
        rng: &mut dyn FnMut(usize) -> usize,
        max: usize,
    ) -> Vec<Vec<LinkId>> {
        self.check(src);
        self.check(dst);
        if src == dst {
            return vec![Vec::new()];
        }
        let mut out = Vec::with_capacity(max.max(1));
        let mut first = Vec::new();
        self.canonical_path(src, dst, &mut first);
        out.push(first);
        while out.len() < max.max(1) {
            let mut p = Vec::new();
            self.path_with_channels(src.index(), dst.index(), |_| rng(self.fatness), &mut p);
            out.push(p);
        }
        out
    }

    fn describe(&self) -> String {
        format!(
            "{}-ary fat tree, {} levels, fatness {} ({} nodes, {} links)",
            self.arity, self.levels, self.fatness, self.nodes, self.num_links
        )
    }

    fn diameter(&self) -> usize {
        2 * self.levels
    }
}

// ---------------------------------------------------------------------
// 2-D mesh and torus
// ---------------------------------------------------------------------

/// Axis move for grid topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Move {
    XPlus,
    XMinus,
    YPlus,
    YMinus,
}

/// A `w × h` 2-D mesh with bidirectional links between neighbors.
/// Canonical routing is dimension order (X then Y); candidate paths are
/// random minimal interleavings of the required X and Y moves.
#[derive(Debug, Clone)]
pub struct Mesh2D {
    w: usize,
    h: usize,
}

impl Mesh2D {
    /// Build a `w × h` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(w: usize, h: usize) -> Self {
        assert!(w > 0 && h > 0, "mesh dimensions must be nonzero");
        Mesh2D { w, h }
    }

    fn coords(&self, n: usize) -> (usize, usize) {
        (n % self.w, n / self.w)
    }

    // Link layout: east (x,y)->(x+1,y): (w-1)*h; then west; then north
    // (y+1); then south.
    fn east(&self, x: usize, y: usize) -> LinkId {
        LinkId(y * (self.w - 1) + x)
    }

    fn west(&self, x: usize, y: usize) -> LinkId {
        // west link leaving (x, y) toward (x-1, y), indexed by (x-1, y)
        LinkId((self.w - 1) * self.h + y * (self.w - 1) + (x - 1))
    }

    fn north(&self, x: usize, y: usize) -> LinkId {
        LinkId(2 * (self.w - 1) * self.h + y * self.w + x)
    }

    fn south(&self, x: usize, y: usize) -> LinkId {
        LinkId(2 * (self.w - 1) * self.h + (self.h - 1) * self.w + (y - 1) * self.w + x)
    }

    /// The X moves, then the Y moves, from `src` to `dst`.
    fn moves(&self, src: usize, dst: usize) -> impl Iterator<Item = Move> {
        let (sx, sy) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        let x = if dx >= sx { (Move::XPlus, dx - sx) } else { (Move::XMinus, sx - dx) };
        let y = if dy >= sy { (Move::YPlus, dy - sy) } else { (Move::YMinus, sy - dy) };
        std::iter::repeat_n(x.0, x.1).chain(std::iter::repeat_n(y.0, y.1))
    }

    fn walk(&self, src: usize, moves: impl IntoIterator<Item = Move>, path: &mut Vec<LinkId>) {
        let (mut x, mut y) = self.coords(src);
        path.clear();
        for m in moves {
            match m {
                Move::XPlus => {
                    path.push(self.east(x, y));
                    x += 1;
                }
                Move::XMinus => {
                    path.push(self.west(x, y));
                    x -= 1;
                }
                Move::YPlus => {
                    path.push(self.north(x, y));
                    y += 1;
                }
                Move::YMinus => {
                    path.push(self.south(x, y));
                    y -= 1;
                }
            }
        }
    }

    fn check(&self, n: NodeId) {
        assert!(n.index() < self.w * self.h, "node {n} out of range");
    }
}

impl Topology for Mesh2D {
    fn num_nodes(&self) -> usize {
        self.w * self.h
    }

    fn num_links(&self) -> usize {
        2 * (self.w - 1) * self.h + 2 * (self.h - 1) * self.w
    }

    fn canonical_path(&self, src: NodeId, dst: NodeId, path: &mut Vec<LinkId>) {
        self.check(src);
        self.check(dst);
        // Dimension-order: the move list is already X-then-Y.
        self.walk(src.index(), self.moves(src.index(), dst.index()), path);
    }

    fn candidate_paths(
        &self,
        src: NodeId,
        dst: NodeId,
        rng: &mut dyn FnMut(usize) -> usize,
        max: usize,
    ) -> Vec<Vec<LinkId>> {
        self.check(src);
        self.check(dst);
        if src == dst {
            return vec![Vec::new()];
        }
        let base: Vec<Move> = self.moves(src.index(), dst.index()).collect();
        let mut out = Vec::with_capacity(max.max(1));
        let mut first = Vec::with_capacity(base.len());
        self.canonical_path(src, dst, &mut first);
        out.push(first);
        while out.len() < max.max(1) {
            // Random minimal interleaving: Fisher–Yates over the move
            // multiset (per-axis order is irrelevant since moves along
            // one axis are identical).
            let mut moves = base.clone();
            for i in (1..moves.len()).rev() {
                moves.swap(i, rng(i + 1));
            }
            let mut p = Vec::with_capacity(moves.len());
            self.walk(src.index(), moves, &mut p);
            out.push(p);
        }
        out
    }

    fn describe(&self) -> String {
        format!("{}x{} mesh ({} nodes, {} links)", self.w, self.h, self.num_nodes(), self.num_links())
    }

    fn diameter(&self) -> usize {
        (self.w - 1) + (self.h - 1)
    }
}

/// A `w × h` 2-D torus: a mesh with wraparound links. Per axis the
/// shorter way around is taken (ties go the positive direction).
#[derive(Debug, Clone)]
pub struct Torus2D {
    w: usize,
    h: usize,
}

impl Torus2D {
    /// Build a `w × h` torus.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(w: usize, h: usize) -> Self {
        assert!(w > 0 && h > 0, "torus dimensions must be nonzero");
        Torus2D { w, h }
    }

    fn coords(&self, n: usize) -> (usize, usize) {
        (n % self.w, n / self.w)
    }

    // Link layout: x+ links (one per node), x- links, y+ links, y- links.
    fn link(&self, x: usize, y: usize, m: Move) -> LinkId {
        let n = y * self.w + x;
        let stride = self.w * self.h;
        match m {
            Move::XPlus => LinkId(n),
            Move::XMinus => LinkId(stride + n),
            Move::YPlus => LinkId(2 * stride + n),
            Move::YMinus => LinkId(3 * stride + n),
        }
    }

    fn axis_moves(len: usize, from: usize, to: usize, plus: Move, minus: Move) -> std::iter::RepeatN<Move> {
        let fwd = (to + len - from) % len;
        let bwd = (from + len - to) % len;
        if fwd <= bwd {
            std::iter::repeat_n(plus, fwd)
        } else {
            std::iter::repeat_n(minus, bwd)
        }
    }

    /// The X moves, then the Y moves, from `src` to `dst`.
    fn moves(&self, src: usize, dst: usize) -> impl Iterator<Item = Move> {
        let (sx, sy) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        Torus2D::axis_moves(self.w, sx, dx, Move::XPlus, Move::XMinus)
            .chain(Torus2D::axis_moves(self.h, sy, dy, Move::YPlus, Move::YMinus))
    }

    fn walk(&self, src: usize, moves: impl IntoIterator<Item = Move>, path: &mut Vec<LinkId>) {
        let (mut x, mut y) = self.coords(src);
        path.clear();
        for m in moves {
            path.push(self.link(x, y, m));
            match m {
                Move::XPlus => x = (x + 1) % self.w,
                Move::XMinus => x = (x + self.w - 1) % self.w,
                Move::YPlus => y = (y + 1) % self.h,
                Move::YMinus => y = (y + self.h - 1) % self.h,
            }
        }
    }

    fn check(&self, n: NodeId) {
        assert!(n.index() < self.w * self.h, "node {n} out of range");
    }
}

impl Topology for Torus2D {
    fn num_nodes(&self) -> usize {
        self.w * self.h
    }

    fn num_links(&self) -> usize {
        4 * self.w * self.h
    }

    fn canonical_path(&self, src: NodeId, dst: NodeId, path: &mut Vec<LinkId>) {
        self.check(src);
        self.check(dst);
        self.walk(src.index(), self.moves(src.index(), dst.index()), path);
    }

    fn candidate_paths(
        &self,
        src: NodeId,
        dst: NodeId,
        rng: &mut dyn FnMut(usize) -> usize,
        max: usize,
    ) -> Vec<Vec<LinkId>> {
        self.check(src);
        self.check(dst);
        if src == dst {
            return vec![Vec::new()];
        }
        let base: Vec<Move> = self.moves(src.index(), dst.index()).collect();
        let mut out = Vec::with_capacity(max.max(1));
        let mut first = Vec::with_capacity(base.len());
        self.canonical_path(src, dst, &mut first);
        out.push(first);
        while out.len() < max.max(1) {
            let mut moves = base.clone();
            for i in (1..moves.len()).rev() {
                moves.swap(i, rng(i + 1));
            }
            let mut p = Vec::with_capacity(moves.len());
            self.walk(src.index(), moves, &mut p);
            out.push(p);
        }
        out
    }

    fn describe(&self) -> String {
        format!("{}x{} torus ({} nodes, {} links)", self.w, self.h, self.num_nodes(), self.num_links())
    }

    fn diameter(&self) -> usize {
        self.w / 2 + self.h / 2
    }
}

// ---------------------------------------------------------------------
// Hypercube
// ---------------------------------------------------------------------

/// A `d`-dimensional binary hypercube (`2^d` nodes). Each node has one
/// link per dimension; minimal routing fixes differing address bits.
/// Canonical routing fixes bits from least- to most-significant
/// (dimension order, deadlock-free); candidates fix them in random
/// order (multipath).
#[derive(Debug, Clone)]
pub struct Hypercube {
    dims: usize,
}

impl Hypercube {
    /// Build a `dims`-dimensional hypercube.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is zero or the cube would exceed `usize` bits.
    pub fn new(dims: usize) -> Self {
        assert!(dims >= 1, "hypercube needs at least one dimension");
        assert!(dims < usize::BITS as usize, "hypercube too large");
        Hypercube { dims }
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    fn link(&self, node: usize, dim: usize) -> LinkId {
        LinkId(node * self.dims + dim)
    }

    fn walk(&self, src: usize, dims_order: impl IntoIterator<Item = usize>, path: &mut Vec<LinkId>) {
        let mut at = src;
        path.clear();
        for d in dims_order {
            path.push(self.link(at, d));
            at ^= 1 << d;
        }
    }

    /// The dimensions `src` and `dst` differ in, lowest first.
    fn differing_dims(&self, src: usize, dst: usize) -> impl Iterator<Item = usize> {
        (0..self.dims).filter(move |d| (src ^ dst) & (1 << d) != 0)
    }

    fn check(&self, n: NodeId) {
        assert!(n.index() < self.num_nodes(), "node {n} out of range");
    }
}

impl Topology for Hypercube {
    fn num_nodes(&self) -> usize {
        1 << self.dims
    }

    fn num_links(&self) -> usize {
        self.num_nodes() * self.dims
    }

    fn canonical_path(&self, src: NodeId, dst: NodeId, path: &mut Vec<LinkId>) {
        self.check(src);
        self.check(dst);
        self.walk(src.index(), self.differing_dims(src.index(), dst.index()), path);
    }

    fn candidate_paths(
        &self,
        src: NodeId,
        dst: NodeId,
        rng: &mut dyn FnMut(usize) -> usize,
        max: usize,
    ) -> Vec<Vec<LinkId>> {
        self.check(src);
        self.check(dst);
        if src == dst {
            return vec![Vec::new()];
        }
        let base: Vec<usize> = self.differing_dims(src.index(), dst.index()).collect();
        let mut out = Vec::with_capacity(max.max(1));
        let mut first = Vec::with_capacity(base.len());
        self.canonical_path(src, dst, &mut first);
        out.push(first);
        while out.len() < max.max(1) {
            let mut dims = base.clone();
            for i in (1..dims.len()).rev() {
                dims.swap(i, rng(i + 1));
            }
            let mut p = Vec::with_capacity(dims.len());
            self.walk(src.index(), dims, &mut p);
            out.push(p);
        }
        out
    }

    fn describe(&self) -> String {
        format!(
            "{}-cube ({} nodes, {} links)",
            self.dims,
            self.num_nodes(),
            self.num_links()
        )
    }

    fn diameter(&self) -> usize {
        self.dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn canonical(topo: &impl Topology, src: usize, dst: usize) -> Vec<LinkId> {
        let mut path = Vec::new();
        topo.canonical_path(n(src), n(dst), &mut path);
        path
    }

    fn path_links_valid(topo: &dyn Topology, path: &[LinkId]) {
        for l in path {
            assert!(l.index() < topo.num_links(), "link {} out of range", l.index());
        }
    }

    #[test]
    fn fat_tree_shape() {
        let ft = FatTree::new(4, 3, 2);
        assert_eq!(ft.num_nodes(), 64);
        assert!(ft.num_links() > 0);
        assert_eq!(ft.diameter(), 6);
        assert!(ft.describe().contains("fat tree"));
    }

    #[test]
    fn fat_tree_sibling_path_is_short() {
        let ft = FatTree::new(4, 3, 2);
        // Nodes 0 and 1 share a level-1 parent: one hop up, one down.
        let p = canonical(&ft, 0, 1);
        assert_eq!(p.len(), 2);
        // Nodes 0 and 63 only meet at the root: 3 up + 3 down.
        let p = canonical(&ft, 0, 63);
        assert_eq!(p.len(), 6);
        path_links_valid(&ft, &p);
    }

    #[test]
    fn fat_tree_self_path_is_empty() {
        let ft = FatTree::new(2, 2, 1);
        assert!(canonical(&ft, 3, 3).is_empty());
    }

    #[test]
    fn fat_tree_canonical_is_stable_candidates_vary() {
        let ft = FatTree::new(4, 3, 4);
        let a = canonical(&ft, 5, 60);
        let b = canonical(&ft, 5, 60);
        assert_eq!(a, b);
        let mut rng = SimRng::new(1);
        let mut f = rng_fn(&mut rng);
        let cands = ft.candidate_paths(n(5), n(60), &mut f, 8);
        assert_eq!(cands.len(), 8);
        assert!(
            cands.iter().any(|c| *c != a),
            "with fatness 4 some sampled path should differ"
        );
        for c in &cands {
            assert_eq!(c.len(), a.len(), "all candidates are minimal");
            path_links_valid(&ft, c);
        }
    }

    #[test]
    fn mesh_dor_path_lengths() {
        let m = Mesh2D::new(4, 4);
        assert_eq!(m.num_nodes(), 16);
        assert_eq!(m.num_links(), 2 * 3 * 4 + 2 * 3 * 4);
        assert_eq!(m.diameter(), 6);
        // (0,0) -> (3,3): 6 hops.
        let p = canonical(&m, 0, 15);
        assert_eq!(p.len(), 6);
        path_links_valid(&m, &p);
        // (3,3) -> (0,0) uses west/south links, also 6 hops.
        let p = canonical(&m, 15, 0);
        assert_eq!(p.len(), 6);
        path_links_valid(&m, &p);
    }

    #[test]
    fn mesh_candidates_are_minimal_interleavings() {
        let m = Mesh2D::new(4, 4);
        let mut rng = SimRng::new(7);
        let mut f = rng_fn(&mut rng);
        let cands = m.candidate_paths(n(0), n(15), &mut f, 6);
        assert_eq!(cands.len(), 6);
        assert!(cands.iter().any(|c| *c != cands[0]));
        for c in &cands {
            assert_eq!(c.len(), 6);
            path_links_valid(&m, c);
        }
    }

    #[test]
    fn mesh_link_ids_are_distinct_per_direction() {
        let m = Mesh2D::new(3, 3);
        let east = canonical(&m, 0, 1);
        let west = canonical(&m, 1, 0);
        assert_ne!(east, west);
    }

    #[test]
    fn torus_wraps_the_short_way() {
        let t = Torus2D::new(8, 8);
        assert_eq!(t.num_links(), 4 * 64);
        // (0,0) -> (7,0): one hop backwards via wraparound.
        let p = canonical(&t, 0, 7);
        assert_eq!(p.len(), 1);
        // (0,0) -> (4,0): distance 4 either way; goes positive.
        let p = canonical(&t, 0, 4);
        assert_eq!(p.len(), 4);
        path_links_valid(&t, &p);
        assert_eq!(t.diameter(), 8);
    }

    #[test]
    fn torus_candidates_valid() {
        let t = Torus2D::new(4, 4);
        let mut rng = SimRng::new(3);
        let mut f = rng_fn(&mut rng);
        for c in t.candidate_paths(n(1), n(14), &mut f, 5) {
            path_links_valid(&t, &c);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node_panics() {
        let m = Mesh2D::new(2, 2);
        canonical(&m, 0, 99);
    }

    #[test]
    fn hypercube_shape_and_paths() {
        let h = Hypercube::new(4);
        assert_eq!(h.num_nodes(), 16);
        assert_eq!(h.num_links(), 64);
        assert_eq!(h.diameter(), 4);
        // 0b0000 -> 0b1111: Hamming distance 4.
        let p = canonical(&h, 0, 15);
        assert_eq!(p.len(), 4);
        path_links_valid(&h, &p);
        // Adjacent nodes: one hop.
        assert_eq!(canonical(&h, 0, 8).len(), 1);
        assert!(canonical(&h, 5, 5).is_empty());
        assert!(h.describe().contains("cube"));
    }

    #[test]
    fn hypercube_candidates_are_minimal_and_varied() {
        let h = Hypercube::new(5);
        let mut rng = SimRng::new(2);
        let mut f = rng_fn(&mut rng);
        let cands = h.candidate_paths(n(0), n(31), &mut f, 8);
        assert_eq!(cands.len(), 8);
        assert!(cands.iter().any(|c| *c != cands[0]));
        for c in &cands {
            assert_eq!(c.len(), 5);
            path_links_valid(&h, c);
        }
    }

    #[test]
    fn hypercube_canonical_is_dimension_ordered() {
        let h = Hypercube::new(3);
        // 0 -> 7 fixes bit 0 (link 0·3+0), then bit 1 from node 1
        // (link 1·3+1), then bit 2 from node 3 (link 3·3+2).
        let p = canonical(&h, 0, 7);
        assert_eq!(p, vec![LinkId(0), LinkId(4), LinkId(11)]);
    }

    #[test]
    fn canonical_path_overwrites_the_buffer_it_is_given() {
        let topos: [&dyn Topology; 4] =
            [&FatTree::new(4, 3, 2), &Mesh2D::new(4, 4), &Torus2D::new(4, 4), &Hypercube::new(4)];
        for topo in topos {
            let mut reused = Vec::new();
            for (src, dst) in [(0, 15), (3, 3), (1, 2), (15, 0)] {
                topo.canonical_path(n(src), n(dst), &mut reused);
                let mut fresh = Vec::new();
                topo.canonical_path(n(src), n(dst), &mut fresh);
                assert_eq!(reused, fresh, "{}: {src} -> {dst}", topo.describe());
            }
        }
    }
}
