//! The paper's printed numbers, typed once.
//!
//! [`ROWS`] holds every cell of Tables 1–3 and Figure 6 that the
//! reproduction checks itself against: one [`Row`] per printed
//! instruction count or `(reg, mem, dev)` triple, keyed by the table, the
//! measured [`Block`], the endpoint and the feature (`None` on either axis
//! is the table's Total). Nothing here is computed from the closed forms
//! of [`crate::analytic`], so comparing the model or a measurement with
//! these rows never checks a formula against itself.
//!
//! A check reads its cell off a [`ProtocolCost`] with [`Row::of`] and
//! compares it with [`Row::value`]:
//!
//! ```
//! use timego_cost::analytic::{cmam_finite, MsgShape};
//! use timego_cost::paper::{self, Block};
//!
//! let model = cmam_finite(MsgShape::paper(1024).unwrap());
//! for row in paper::block(Block::Finite1024) {
//!     assert_eq!(row.of(&model), row.value, "{row:?}");
//! }
//! ```
//!
//! Two places in the source text needed reconstruction (DESIGN.md §3);
//! the rows they touch carry a note:
//!
//! * Table 2's finite-sequence 16-word block is missing from the source
//!   text. Its cells are rebuilt from Table 3 and the 1024-word block, and
//!   its source and destination totals (173/224) are Table 3's printed
//!   column totals.
//! * Table 3's indefinite-sequence 16-word block omits the in-order `mem`
//!   entry (12) that its own Total row counts. Table 2's in-order source
//!   cell (20) includes it; no indefinite-16 Table 3 row is kept here.

use crate::analytic::ProtocolCost;
use crate::axes::{Endpoint, Feature, Fine};
use crate::vector::FeatureCost;

/// The paper artefact a row is printed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Table {
    /// Table 1: single-packet delivery.
    Table1,
    /// Table 2: multi-packet costs by feature.
    Table2,
    /// Table 3 (Appendix A): Table 2's blocks split into reg/mem/dev.
    Table3,
    /// Figure 6: CMAM versus high-level-network bars.
    Figure6,
}

/// The protocol execution a row describes: one block of a table, always
/// with the paper's 4-word packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Block {
    /// One `CMAM_4` active message.
    SinglePacket,
    /// CMAM finite sequence (`CMAM_xfer`), 16 words.
    Finite16,
    /// CMAM finite sequence, 1024 words.
    Finite1024,
    /// CMAM indefinite sequence (stream), 16 words, half the packets out
    /// of order, one acknowledgement per packet.
    Indefinite16,
    /// CMAM indefinite sequence, 1024 words.
    Indefinite1024,
    /// Indefinite sequence on the high-level network, 16 words.
    HlIndefinite16,
    /// Indefinite sequence on the high-level network, 1024 words.
    HlIndefinite1024,
}

/// A printed number: an instruction count, or a `(reg, mem, dev)` triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Printed {
    /// Instructions of every class.
    Instr(u64),
    /// Instructions split by class (a Table 3 cell group).
    Classes(FeatureCost),
}

impl Printed {
    /// The instruction count, whichever the shape.
    pub const fn count(self) -> u64 {
        match self {
            Printed::Instr(n) => n,
            Printed::Classes(c) => c.total(),
        }
    }
}

/// One printed cell of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Where it is printed.
    pub table: Table,
    /// Which execution it describes.
    pub block: Block,
    /// `None`: both endpoints summed.
    pub endpoint: Option<Endpoint>,
    /// `None`: every feature summed (a Total row).
    pub feature: Option<Feature>,
    /// The printed number.
    pub value: Printed,
    /// How the number was reconstructed, if the source text lost it;
    /// empty otherwise.
    pub note: &'static str,
}

impl Row {
    /// This row's cell read off `cost`, in the same shape as
    /// [`value`](Row::value).
    pub fn of(&self, cost: &ProtocolCost) -> Printed {
        let mut sum = FeatureCost::ZERO;
        for e in Endpoint::ALL.into_iter().filter(|e| self.endpoint.is_none_or(|x| x == *e)) {
            for f in Feature::ALL.into_iter().filter(|f| self.feature.is_none_or(|x| x == *f)) {
                sum += cost.get(e, f);
            }
        }
        match self.value {
            Printed::Instr(_) => Printed::Instr(sum.total()),
            Printed::Classes(_) => Printed::Classes(sum),
        }
    }

    const fn noted(self, note: &'static str) -> Row {
        Row { note, ..self }
    }
}

/// The rows describing one execution, in table order.
pub fn block(block: Block) -> impl Iterator<Item = &'static Row> {
    ROWS.iter().filter(move |r| r.block == block)
}

/// The rows one table prints for one execution, in table order.
pub fn rows(table: Table, block: Block) -> impl Iterator<Item = &'static Row> {
    ROWS.iter().filter(move |r| r.table == table && r.block == block)
}

/// The one row `table` prints for `block` at `endpoint` and `feature`.
pub fn find(
    table: Table,
    block: Block,
    endpoint: Option<Endpoint>,
    feature: Option<Feature>,
) -> Option<&'static Row> {
    rows(table, block).find(|r| (r.endpoint, r.feature) == (endpoint, feature))
}

const fn instr(
    table: Table,
    block: Block,
    endpoint: Option<Endpoint>,
    feature: Option<Feature>,
    n: u64,
) -> Row {
    Row { table, block, endpoint, feature, value: Printed::Instr(n), note: "" }
}

const fn classes(
    block: Block,
    endpoint: Option<Endpoint>,
    feature: Option<Feature>,
    (reg, mem, dev): (u64, u64, u64),
) -> Row {
    let value = Printed::Classes(FeatureCost::new(reg, mem, dev));
    Row { table: Table::Table3, block, endpoint, feature, value, note: "" }
}

const SRC: Option<Endpoint> = Some(Endpoint::Source);
const DST: Option<Endpoint> = Some(Endpoint::Destination);
const BOTH: Option<Endpoint> = None;
const BASE: Option<Feature> = Some(Feature::Base);
const BUF: Option<Feature> = Some(Feature::BufferMgmt);
const ORDER: Option<Feature> = Some(Feature::InOrder);
const FAULT: Option<Feature> = Some(Feature::FaultTol);
const TOTAL: Option<Feature> = None;

const FINITE_16_REBUILT: &str = "Table 2's finite 16-word block is missing from the source text: \
     rebuilt from Table 3 and the 1024-word block (DESIGN.md §3)";
const FINITE_16_TOTAL: &str = "rebuilt (DESIGN.md §3); the conclusion's \"between 285 and 481 \
     instructions\" cannot be reconciled with Table 3, whose base and buffer management alone is 329";
const INDEFINITE_16_ORDER: &str = "includes the mem 12 that Table 3 omits from this cell but counts \
     in its own Total row (DESIGN.md §3)";

use Block::{Finite1024, Finite16, Indefinite1024, Indefinite16};
use Table::{Table1, Table2};

/// Every printed cell the reproduction checks, by table then block.
#[rustfmt::skip] // one cell per line: the table is read as a table
pub const ROWS: &[Row] = &[
    instr(Table1, Block::SinglePacket, SRC, TOTAL, 20),
    instr(Table1, Block::SinglePacket, DST, TOTAL, 27),
    instr(Table1, Block::SinglePacket, BOTH, TOTAL, 47),

    instr(Table2, Finite16, SRC, BASE, 91).noted(FINITE_16_REBUILT),
    instr(Table2, Finite16, DST, BASE, 90).noted(FINITE_16_REBUILT),
    instr(Table2, Finite16, SRC, BUF, 47).noted(FINITE_16_REBUILT),
    instr(Table2, Finite16, DST, BUF, 101).noted(FINITE_16_REBUILT),
    instr(Table2, Finite16, SRC, ORDER, 8).noted(FINITE_16_REBUILT),
    instr(Table2, Finite16, DST, ORDER, 13).noted(FINITE_16_REBUILT),
    instr(Table2, Finite16, SRC, FAULT, 27).noted(FINITE_16_REBUILT),
    instr(Table2, Finite16, DST, FAULT, 20).noted(FINITE_16_REBUILT),
    instr(Table2, Finite16, SRC, TOTAL, 173).noted(FINITE_16_REBUILT),
    instr(Table2, Finite16, DST, TOTAL, 224).noted(FINITE_16_REBUILT),
    instr(Table2, Finite16, BOTH, TOTAL, 397).noted(FINITE_16_TOTAL),

    instr(Table2, Indefinite16, SRC, BASE, 80),
    instr(Table2, Indefinite16, DST, BASE, 69),
    instr(Table2, Indefinite16, SRC, BUF, 0),
    instr(Table2, Indefinite16, DST, BUF, 0),
    instr(Table2, Indefinite16, SRC, ORDER, 20).noted(INDEFINITE_16_ORDER),
    instr(Table2, Indefinite16, DST, ORDER, 116),
    instr(Table2, Indefinite16, SRC, FAULT, 116),
    instr(Table2, Indefinite16, DST, FAULT, 80),
    instr(Table2, Indefinite16, SRC, TOTAL, 216),
    instr(Table2, Indefinite16, DST, TOTAL, 265),
    instr(Table2, Indefinite16, BOTH, TOTAL, 481),

    instr(Table2, Finite1024, SRC, BASE, 5635),
    instr(Table2, Finite1024, DST, BASE, 4626),
    instr(Table2, Finite1024, BOTH, BASE, 10261),
    instr(Table2, Finite1024, SRC, BUF, 47),
    instr(Table2, Finite1024, DST, BUF, 101),
    instr(Table2, Finite1024, BOTH, BUF, 148),
    instr(Table2, Finite1024, SRC, ORDER, 512),
    instr(Table2, Finite1024, DST, ORDER, 769),
    instr(Table2, Finite1024, SRC, FAULT, 27),
    instr(Table2, Finite1024, DST, FAULT, 20),
    instr(Table2, Finite1024, BOTH, FAULT, 47),
    instr(Table2, Finite1024, SRC, TOTAL, 6221),
    instr(Table2, Finite1024, DST, TOTAL, 5516),
    instr(Table2, Finite1024, BOTH, TOTAL, 11737),

    instr(Table2, Indefinite1024, SRC, BASE, 5120),
    instr(Table2, Indefinite1024, DST, BASE, 3597),
    instr(Table2, Indefinite1024, SRC, ORDER, 1280),
    instr(Table2, Indefinite1024, DST, ORDER, 7424),
    instr(Table2, Indefinite1024, SRC, FAULT, 7424),
    instr(Table2, Indefinite1024, DST, FAULT, 5120),
    instr(Table2, Indefinite1024, SRC, TOTAL, 13824),
    instr(Table2, Indefinite1024, DST, TOTAL, 16141),
    instr(Table2, Indefinite1024, BOTH, TOTAL, 29965),

    classes(Finite16, SRC, BASE, (62, 9, 20)),
    classes(Finite16, DST, BASE, (62, 11, 17)),
    classes(Finite16, SRC, BUF, (36, 1, 10)),
    classes(Finite16, DST, BUF, (79, 12, 10)),
    classes(Finite16, SRC, TOTAL, (128, 10, 35)),
    classes(Finite16, DST, TOTAL, (168, 24, 32)),

    classes(Finite1024, SRC, BASE, (3842, 513, 1280)),
    classes(Finite1024, DST, BASE, (3086, 515, 1025)),
    classes(Finite1024, SRC, BUF, (36, 1, 10)),
    classes(Finite1024, DST, BUF, (79, 12, 10)),
    classes(Finite1024, SRC, ORDER, (512, 0, 0)),
    classes(Finite1024, DST, ORDER, (769, 0, 0)),
    classes(Finite1024, SRC, FAULT, (22, 0, 5)),
    classes(Finite1024, DST, FAULT, (14, 1, 5)),
    classes(Finite1024, SRC, TOTAL, (4412, 514, 1295)),
    classes(Finite1024, DST, TOTAL, (3948, 528, 1040)),

    classes(Indefinite1024, SRC, BASE, (3584, 256, 1280)),
    classes(Indefinite1024, DST, BASE, (2572, 0, 1025)),
    classes(Indefinite1024, SRC, ORDER, (512, 768, 0)),
    classes(Indefinite1024, DST, ORDER, (4480, 2944, 0)),
    classes(Indefinite1024, SRC, FAULT, (5632, 512, 1280)),
    classes(Indefinite1024, DST, FAULT, (3584, 256, 1280)),
    classes(Indefinite1024, SRC, TOTAL, (9728, 1536, 2560)),
    classes(Indefinite1024, DST, TOTAL, (10636, 3200, 2305)),

    instr(Table::Figure6, Block::HlIndefinite16, BOTH, TOTAL, 149),
    instr(Table::Figure6, Block::HlIndefinite1024, BOTH, TOTAL, 8717),
];

/// Table 1's fine split of one endpoint's single-packet cost, as
/// `(category, instructions)` cells in the order the table prints them:
/// call/return 3, NI setup 5, write to NI 2, check status 7, control
/// flow 3 at the source (20); call/return 10, read from NI 3, check
/// status 12, control flow 2 at the destination (27).
pub const fn table1_fine(endpoint: Endpoint) -> &'static [(Fine, u64)] {
    match endpoint {
        Endpoint::Source => &[
            (Fine::CallReturn, 3),
            (Fine::NiSetup, 5),
            (Fine::WriteNi, 2),
            (Fine::CheckStatus, 7),
            (Fine::ControlFlow, 3),
        ],
        Endpoint::Destination => &[
            (Fine::CallReturn, 10),
            (Fine::ReadNi, 3),
            (Fine::CheckStatus, 12),
            (Fine::ControlFlow, 2),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_fine_cells_sum_to_the_printed_totals() {
        for e in Endpoint::ALL {
            let fine: u64 = table1_fine(e).iter().map(|(_, n)| n).sum();
            assert_eq!(Some(fine), count(Block::SinglePacket, Some(e), None), "{e}");
        }
    }

    #[test]
    fn no_key_appears_twice() {
        let mut seen = std::collections::HashSet::new();
        for r in ROWS {
            assert!(seen.insert((r.table, r.block, r.endpoint, r.feature)), "{r:?} is listed twice");
        }
    }

    /// The count every table prints for one cell of a block, if any does;
    /// where two tables print it (Table 2's count, Table 3's triple) they
    /// must agree.
    fn count(block: Block, endpoint: Option<Endpoint>, feature: Option<Feature>) -> Option<u64> {
        let mut found = ROWS
            .iter()
            .filter(|r| (r.block, r.endpoint, r.feature) == (block, endpoint, feature))
            .map(|r| r.value.count());
        let first = found.next()?;
        for other in found {
            assert_eq!(other, first, "{block:?} {endpoint:?} {feature:?}: tables disagree");
        }
        Some(first)
    }

    /// The triple Table 3 prints for one cell of a block, if it does.
    fn triple(block: Block, endpoint: Option<Endpoint>, feature: Option<Feature>) -> Option<FeatureCost> {
        ROWS.iter()
            .filter(|r| (r.block, r.endpoint, r.feature) == (block, endpoint, feature))
            .find_map(|r| match r.value {
                Printed::Classes(c) => Some(c),
                Printed::Instr(_) => None,
            })
    }

    /// Every printed total equals the sum of its printed parts, wherever
    /// all the parts are rows too (in the same table or another one of the
    /// same block): a triple against triples, and always as instruction
    /// counts. DESIGN.md §3's one documented inconsistency inside a table,
    /// the indefinite-16 in-order `mem` 12 that Table 3 drops from its cell
    /// but keeps in its Total, is no exception here: the only row for that
    /// cell is Table 2's 20, which includes it, so nothing is excused.
    #[test]
    fn printed_totals_equal_the_sum_of_their_printed_parts() {
        let mut checked = 0;
        for total in ROWS.iter().filter(|r| r.endpoint.is_none() || r.feature.is_none()) {
            let by_feature: Vec<_> = Feature::ALL.map(|f| (total.endpoint, Some(f))).to_vec();
            let by_endpoint: Vec<_> = Endpoint::ALL.map(|e| (Some(e), total.feature)).to_vec();
            let splits = match (total.endpoint, total.feature) {
                (Some(_), None) => vec![by_feature],
                (None, Some(_)) => vec![by_endpoint],
                _ => vec![by_feature, by_endpoint],
            };
            for parts in splits {
                let counts: Option<Vec<u64>> =
                    parts.iter().map(|&(e, f)| count(total.block, e, f)).collect();
                if let Some(counts) = counts {
                    assert_eq!(counts.iter().sum::<u64>(), total.value.count(), "{total:?}");
                    checked += 1;
                }
                let triples: Option<Vec<FeatureCost>> =
                    parts.iter().map(|&(e, f)| triple(total.block, e, f)).collect();
                if let (Printed::Classes(want), Some(triples)) = (total.value, triples) {
                    let sum = triples.into_iter().fold(FeatureCost::ZERO, |a, b| a + b);
                    assert_eq!(sum, want, "{total:?}");
                    checked += 1;
                }
            }
        }
        // As counts: five grand totals split by endpoint, the ten endpoint
        // totals whose four feature cells are all printed, and three feature
        // totals; as triples: Table 3's two finite-1024 column totals.
        assert_eq!(checked, 20);
    }
}
