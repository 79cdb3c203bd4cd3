//! End-to-end assertions that the measured protocol executions
//! reproduce every table and figure of the paper (experiment index
//! E1–E7 in DESIGN.md).

use timego_am::{
    measure_hl_stream, measure_hl_xfer, measure_single_packet, measure_stream, measure_xfer,
};
use timego_cost::analytic::{self, IndefiniteOpts, MsgShape, ProtocolCost};
use timego_cost::paper::{self, Block, Table};
use timego_cost::{Endpoint, Feature};

/// Every cell `table` prints for `block` equals the one read off `cost`.
fn assert_printed(table: Table, block: Block, cost: &ProtocolCost) {
    let rows: Vec<_> = paper::rows(table, block).collect();
    assert!(!rows.is_empty(), "{table:?} prints nothing for {block:?}");
    for row in rows {
        assert_eq!(row.of(cost), row.value, "{row:?}");
    }
}

/// The end-to-end total `table` prints for `block`.
fn printed_total(table: Table, block: Block) -> u64 {
    paper::find(table, block, None, None).expect("a printed total").value.count()
}

#[test]
fn e1_table1_single_packet() {
    let c = measure_single_packet();
    assert_printed(Table::Table1, Block::SinglePacket, &c);
    // "34 instructions are dedicated to accessing the NI": for us that
    // is NI setup + write/read + status/latch accesses; the paper's
    // boundary counts NI setup and check-status rows plus FIFO accesses
    // (5 + 2 + 7 at the source, 3 + 12 at the destination).
    let ni = |e| -> u64 {
        use timego_cost::Fine::*;
        let fine = paper::table1_fine(e);
        fine.iter().filter(|(f, _)| matches!(f, NiSetup | WriteNi | ReadNi | CheckStatus)).map(|(_, n)| n).sum()
    };
    assert_eq!(ni(Endpoint::Source) + ni(Endpoint::Destination), 29);
}

#[test]
fn e2_table2_finite_sequence() {
    // 16 words: reconstructed block (DESIGN.md §3).
    let (c, out) = measure_xfer(16, 4);
    assert_eq!(out.packets, 4);
    assert_printed(Table::Table2, Block::Finite16, &c);

    // 1024 words: the paper's printed block, cell by cell.
    let (c, out) = measure_xfer(1024, 4);
    assert_eq!(out.packets, 256);
    assert_printed(Table::Table2, Block::Finite1024, &c);
}

#[test]
fn e2_table2_indefinite_sequence() {
    let (c, _) = measure_stream(16, 4, 1);
    assert_printed(Table::Table2, Block::Indefinite16, &c);
    let (c, _) = measure_stream(1024, 4, 1);
    assert_printed(Table::Table2, Block::Indefinite1024, &c);
}

#[test]
fn e3_table3_class_breakdown() {
    // The (feature × class) matrix of the 1024-word blocks, with the
    // printed column totals.
    let (c, _) = measure_xfer(1024, 4);
    assert_printed(Table::Table3, Block::Finite1024, &c);
    let (c, _) = measure_stream(1024, 4, 1);
    assert_printed(Table::Table3, Block::Indefinite1024, &c);
}

#[test]
fn e4_figure6_cmam_vs_hl() {
    // HL costs equal the CMAM base costs; the indefinite-sequence
    // reduction is ~70% at both message sizes.
    for words in [16usize, 1024] {
        let (cmam, _) = measure_stream(words, 4, 1);
        let hl = measure_hl_stream(words, 4);
        assert_eq!(hl.feature_total(Feature::Base), cmam.feature_total(Feature::Base));
        assert_eq!(hl.overhead_total(), 0);
        let reduction = 1.0 - hl.total() as f64 / cmam.total() as f64;
        assert!((0.65..0.75).contains(&reduction), "indefinite {words}w: {reduction}");
    }
    // Finite sequence: big win for small messages, ~12% for large.
    let (cmam16, _) = measure_xfer(16, 4);
    let (hl16, _) = measure_hl_xfer(16, 4);
    let r16 = 1.0 - hl16.total() as f64 / cmam16.total() as f64;
    assert!(r16 > 0.3, "16w finite reduction {r16}");
    let (cmam1024, _) = measure_xfer(1024, 4);
    let (hl1024, _) = measure_hl_xfer(1024, 4);
    let r1024 = 1.0 - hl1024.total() as f64 / cmam1024.total() as f64;
    assert!((0.08..0.2).contains(&r1024), "1024w finite reduction {r1024}");
    assert_printed(Table::Figure6, Block::HlIndefinite16, &measure_hl_stream(16, 4));
    assert_printed(Table::Figure6, Block::HlIndefinite1024, &measure_hl_stream(1024, 4));
}

#[test]
fn e5_figure8_left_simulation_matches_closed_forms() {
    for n in [4u64, 8, 16, 32, 64, 128] {
        let shape = MsgShape::for_message(1024, n).unwrap();
        let (fin, _) = measure_xfer(1024, n as usize);
        assert_eq!(fin, analytic::cmam_finite(shape), "finite n={n}");
        let (ind, _) = measure_stream(1024, n as usize, 1);
        assert_eq!(
            ind,
            analytic::cmam_indefinite(shape, IndefiniteOpts::paper(shape)),
            "indefinite n={n}"
        );
    }
}

#[test]
fn e6_figure8_right_overhead_vs_packet_size() {
    let mut prev_ind = f64::INFINITY;
    for n in [4usize, 8, 16, 32, 64, 128] {
        let (fin, _) = measure_xfer(1024, n);
        assert!(
            (0.08..0.14).contains(&fin.overhead_fraction()),
            "finite n={n}: {}",
            fin.overhead_fraction()
        );
        let (ind, _) = measure_stream(1024, n, 1);
        let frac = ind.overhead_fraction();
        assert!(frac > 0.5, "indefinite n={n}: {frac}");
        assert!(frac <= prev_ind);
        prev_ind = frac;
    }
}

#[test]
fn e7_group_acks_keep_overhead_significant() {
    let (per_packet, _) = measure_stream(1024, 4, 1);
    let mut prev = per_packet.overhead_fraction();
    assert!((0.65..0.75).contains(&prev));
    for g in [2u64, 4, 8, 16, 64] {
        let (c, out) = measure_stream(1024, 4, g);
        let frac = c.overhead_fraction();
        assert!(frac <= prev, "overhead must fall with ack period");
        assert!(frac > 0.4, "…but remains significant (g={g}: {frac})");
        assert_eq!(out.acks, 256u64.div_ceil(g));
        prev = frac;
    }
}

#[test]
fn prose_claim_50_to_70_percent_overhead() {
    // §3.3: overhead is 50–70% of total cost "in all situations except
    // large finite-sequence multi-packet transfers".
    let (fin16, _) = measure_xfer(16, 4);
    assert!(fin16.overhead_fraction() > 0.5);
    let (ind16, _) = measure_stream(16, 4, 1);
    assert!((0.5..0.75).contains(&ind16.overhead_fraction()));
    let (ind1024, _) = measure_stream(1024, 4, 1);
    assert!((0.5..0.75).contains(&ind1024.overhead_fraction()));
    // The exception:
    let (fin1024, _) = measure_xfer(1024, 4);
    assert!(fin1024.overhead_fraction() < 0.2);
}

#[test]
fn conclusion_quote_16_word_cost_range() {
    // "the cost of delivering a 16-word message is between 285 and 481
    // instructions" — the upper end matches our indefinite measurement
    // exactly; the lower end conflicts with the paper's own Table 3
    // (see EXPERIMENTS.md), which our finite measurement reproduces.
    let (ind, _) = measure_stream(16, 4, 1);
    assert_eq!(ind.total(), printed_total(Table::Table2, Block::Indefinite16));
    let (fin, _) = measure_xfer(16, 4);
    assert_eq!(fin.total(), printed_total(Table::Table2, Block::Finite16));
    assert!(fin.total() > 285 && fin.total() < ind.total());
}
