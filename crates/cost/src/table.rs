//! Plain-text rendering of the paper's tables and bar charts.
//!
//! The bench harness uses these helpers so that `cargo run -p timego-bench
//! -- table2` prints blocks in the same layout as the paper.

use crate::analytic::ProtocolCost;
use crate::axes::{Class, Endpoint, Feature, Fine};

fn hline(widths: &[usize]) -> String {
    let total: usize = widths.iter().sum::<usize>() + 3 * (widths.len() - 1);
    "-".repeat(total)
}

fn row_left_first<S: AsRef<str>>(cells: &[S], widths: &[usize]) -> String {
    cells
        .iter()
        .map(AsRef::as_ref)
        .zip(widths)
        .enumerate()
        .map(|(i, (c, w))| {
            if i == 0 {
                format!("{c:<w$}", w = *w)
            } else {
                format!("{c:>w$}", w = *w)
            }
        })
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Render a Table 1-style fine-category breakdown for both endpoints.
///
/// Categories appearing at neither endpoint are omitted; a category
/// present at only one endpoint shows `-` at the other, as in the paper.
pub fn render_fine_table(title: &str, source: &[(Fine, u64)], dest: &[(Fine, u64)]) -> String {
    let categories = Fine::ALL.into_iter().filter(|f| source.iter().chain(dest).any(|(g, _)| g == f));
    let lookup = |rows: &[(Fine, u64)], f: Fine| rows.iter().find(|(g, _)| *g == f).map(|(_, n)| *n);

    let widths = [17usize, 8, 12];
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&row_left_first(&["Description", "Source", "Destination"], &widths));
    out.push('\n');
    out.push_str(&hline(&widths));
    out.push('\n');
    let fmt_cell = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |n| n.to_string());
    let mut src_total = 0;
    let mut dst_total = 0;
    for f in categories {
        let s = lookup(source, f);
        let d = lookup(dest, f);
        src_total += s.unwrap_or(0);
        dst_total += d.unwrap_or(0);
        out.push_str(&row_left_first(
            &[f.label().to_string(), fmt_cell(s), fmt_cell(d)],
            &widths,
        ));
        out.push('\n');
    }
    out.push_str(&hline(&widths));
    out.push('\n');
    out.push_str(&row_left_first(
        &["Total".to_string(), src_total.to_string(), dst_total.to_string()],
        &widths,
    ));
    out.push('\n');
    out
}

/// Render a Table 2-style block: features × (source, destination, total)
/// in unit-cost instructions.
pub fn render_feature_table(title: &str, cost: &ProtocolCost) -> String {
    let widths = [14usize, 8, 12, 8];
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&row_left_first(&["Feature", "Source", "Destination", "Total"], &widths));
    out.push('\n');
    out.push_str(&hline(&widths));
    out.push('\n');
    let fmt = |n: u64| if n == 0 { "-".to_string() } else { n.to_string() };
    for f in Feature::ALL {
        let s = cost.get(Endpoint::Source, f).total();
        let d = cost.get(Endpoint::Destination, f).total();
        out.push_str(&row_left_first(
            &[f.label().to_string(), fmt(s), fmt(d), fmt(s + d)],
            &widths,
        ));
        out.push('\n');
    }
    out.push_str(&hline(&widths));
    out.push('\n');
    out.push_str(&row_left_first(
        &[
            "Total".to_string(),
            cost.endpoint_total(Endpoint::Source).to_string(),
            cost.endpoint_total(Endpoint::Destination).to_string(),
            cost.total().to_string(),
        ],
        &widths,
    ));
    out.push('\n');
    out
}

/// Render a Table 3-style block: features × endpoints × (reg, mem, dev).
pub fn render_class_table(title: &str, cost: &ProtocolCost) -> String {
    let widths = [14usize, 7, 7, 7, 7, 7, 7];
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&row_left_first(&["", "Source", "", "", "Dest", "", ""], &widths));
    out.push('\n');
    let mut header = vec!["Feature"];
    for _ in 0..2 {
        header.extend(Class::ALL.map(Class::label));
    }
    out.push_str(&row_left_first(&header, &widths));
    out.push('\n');
    out.push_str(&hline(&widths));
    out.push('\n');
    let fmt = |n: u64| if n == 0 { "-".to_string() } else { n.to_string() };
    for f in Feature::ALL {
        let s = cost.get(Endpoint::Source, f);
        let d = cost.get(Endpoint::Destination, f);
        out.push_str(&row_left_first(
            &[
                f.label().to_string(),
                fmt(s.reg),
                fmt(s.mem),
                fmt(s.dev),
                fmt(d.reg),
                fmt(d.mem),
                fmt(d.dev),
            ],
            &widths,
        ));
        out.push('\n');
    }
    out.push_str(&hline(&widths));
    out.push('\n');
    let s = cost.endpoint_classes(Endpoint::Source);
    let d = cost.endpoint_classes(Endpoint::Destination);
    out.push_str(&row_left_first(
        &[
            "Total".to_string(),
            s.reg.to_string(),
            s.mem.to_string(),
            s.dev.to_string(),
            d.reg.to_string(),
            d.mem.to_string(),
            d.dev.to_string(),
        ],
        &widths,
    ));
    out.push('\n');
    out
}

/// Render a Figure 6-style comparison: labelled horizontal bars scaled to
/// the largest value.
pub fn render_bars(title: &str, entries: &[(String, u64)], width: usize) -> String {
    let max = entries.iter().map(|(_, v)| *v).max().unwrap_or(1).max(1);
    let label_w = entries.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for (label, value) in entries {
        let bar_len = ((*value as f64 / max as f64) * width as f64).round() as usize;
        out.push_str(&format!(
            "{label:<label_w$} | {} {value}\n",
            "#".repeat(bar_len)
        ));
    }
    out
}

/// Render a two-column numeric series (e.g. Figure 8 right: packet size
/// versus overhead fraction) with an inline spark-bar.
pub fn render_series(title: &str, x_label: &str, y_label: &str, points: &[(u64, f64)]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("{x_label:>10} | {y_label}\n"));
    out.push_str(&"-".repeat(48));
    out.push('\n');
    for (x, y) in points {
        let bar = "#".repeat((y * 30.0).round().max(0.0) as usize);
        out.push_str(&format!("{x:>10} | {:>6.1}% {bar}\n", y * 100.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{self, MsgShape};
    use crate::paper::{self, Block, Printed, Table};

    #[test]
    fn fine_table_includes_totals_and_dashes() {
        let t = render_fine_table(
            "Table 1",
            paper::table1_fine(Endpoint::Source),
            paper::table1_fine(Endpoint::Destination),
        );
        assert!(t.contains("Table 1"));
        assert!(t.contains("Write to NI"));
        for row in paper::rows(Table::Table1, Block::SinglePacket).filter(|r| r.endpoint.is_some()) {
            assert!(t.contains(&row.value.count().to_string()), "{row:?}");
        }
        assert!(t.contains('-')); // read-from-NI has no source entry
    }

    #[test]
    fn feature_table_matches_protocol_totals() {
        let c = analytic::cmam_finite(MsgShape::paper(1024).unwrap());
        let t = render_feature_table("Finite sequence", &c);
        for row in paper::rows(Table::Table2, Block::Finite1024).filter(|r| r.feature.is_none()) {
            assert!(t.contains(&row.value.count().to_string()), "{row:?}");
        }
        assert!(t.contains("Buffer Mgmt."));
    }

    #[test]
    fn class_table_contains_reg_mem_dev() {
        let c = analytic::cmam_finite(MsgShape::paper(16).unwrap());
        let t = render_class_table("Finite 16", &c);
        assert!(t.contains("reg"));
        assert!(t.contains("dev"));
        for row in paper::rows(Table::Table3, Block::Finite16).filter(|r| r.feature.is_none()) {
            let Printed::Classes(total) = row.value else { panic!("{row:?}") };
            for n in [total.reg, total.mem, total.dev] {
                assert!(t.contains(&n.to_string()), "{row:?}");
            }
        }
    }

    #[test]
    fn bars_scale_to_max() {
        let t = render_bars(
            "demo",
            &[("a".to_string(), 10), ("b".to_string(), 5)],
            20,
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        let hashes = |s: &str| s.matches('#').count();
        assert_eq!(hashes(lines[1]), 20);
        assert_eq!(hashes(lines[2]), 10);
    }

    #[test]
    fn series_renders_percentages() {
        let t = render_series("fig8", "n", "overhead", &[(4, 0.7), (128, 0.34)]);
        assert!(t.contains("70.0%"));
        assert!(t.contains("34.0%"));
    }
}
