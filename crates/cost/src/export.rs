//! CSV export of cost tables and series, for plotting outside the
//! terminal (the bench binaries accept `--csv`).

use std::fmt::Write as _;

use crate::analytic::ProtocolCost;
use crate::axes::{Endpoint, Feature};

/// A Table 2/3 block as CSV: one row per feature with per-endpoint
/// reg/mem/dev columns and totals, plus a `Total` row.
pub fn protocol_cost_csv(cost: &ProtocolCost) -> String {
    let mut out = String::from(
        "feature,src_reg,src_mem,src_dev,src_total,dst_reg,dst_mem,dst_dev,dst_total,total\n",
    );
    for f in Feature::ALL {
        let s = cost.get(Endpoint::Source, f);
        let d = cost.get(Endpoint::Destination, f);
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{}",
            f.label(),
            s.reg,
            s.mem,
            s.dev,
            s.total(),
            d.reg,
            d.mem,
            d.dev,
            d.total(),
            s.total() + d.total()
        )
        .expect("writing to String cannot fail");
    }
    let s = cost.endpoint_classes(Endpoint::Source);
    let d = cost.endpoint_classes(Endpoint::Destination);
    writeln!(
        out,
        "Total,{},{},{},{},{},{},{},{},{}",
        s.reg,
        s.mem,
        s.dev,
        s.total(),
        d.reg,
        d.mem,
        d.dev,
        d.total(),
        cost.total()
    )
    .expect("writing to String cannot fail");
    out
}

/// A numeric series as two-column CSV.
pub fn series_csv(x_label: &str, y_label: &str, points: &[(u64, f64)]) -> String {
    let mut out = format!("{x_label},{y_label}\n");
    for (x, y) in points {
        writeln!(out, "{x},{y}").expect("writing to String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{self, MsgShape};
    use crate::paper::{self, Block, Printed, Table};

    #[test]
    fn protocol_cost_csv_round_numbers() {
        let c = analytic::cmam_finite(MsgShape::paper(1024).unwrap());
        let csv = protocol_cost_csv(&c);
        assert!(csv.starts_with("feature,src_reg"));
        // Each Table 3 triple, with its total, sits in its feature's line
        // under its endpoint's four columns.
        for row in paper::rows(Table::Table3, Block::Finite1024) {
            let (Printed::Classes(t), Some(e)) = (row.value, row.endpoint) else { continue };
            let label = row.feature.map_or("Total", Feature::label);
            let line = csv.lines().find(|l| l.starts_with(&format!("{label},"))).unwrap();
            let fields: Vec<&str> = line.split(',').skip(1 + 4 * e.index()).take(4).collect();
            assert_eq!(fields.join(","), format!("{},{},{},{}", t.reg, t.mem, t.dev, t.total()));
        }
        let grand = paper::rows(Table::Table2, Block::Finite1024).last().unwrap();
        assert!(csv.lines().last().unwrap().ends_with(&format!(",{}", grand.value.count())));
        assert_eq!(csv.lines().count(), 6);
    }

    #[test]
    fn series_csv_format() {
        let csv = series_csv("n", "overhead", &[(4, 0.709), (8, 0.7)]);
        assert_eq!(csv, "n,overhead\n4,0.709\n8,0.7\n");
    }
}
