//! Parameter sweeps behind the paper's tables and figures.

/// The two message sizes every Table 2/3 block reports.
pub const TABLE_MESSAGE_SIZES: [u64; 2] = [16, 1024];

/// The packet-size axis of Figure 8 (right): 4–128 words.
pub const FIGURE8_PACKET_SIZES: [u64; 6] = [4, 8, 16, 32, 64, 128];

/// The message size Figure 8 (right) holds fixed.
pub const FIGURE8_MESSAGE_WORDS: u64 = 1024;

/// Acknowledgement periods for the group-acknowledgement ablation
/// (§3.2's closing remark); `1` is the paper's per-packet default.
pub const GROUP_ACK_PERIODS: [u64; 6] = [1, 2, 4, 8, 16, 64];

/// Concurrent-transfer counts for the engine concurrency study: how
/// aggregate throughput and per-feature cost scale with the number of
/// transfers interleaved through one engine run.
pub const CONCURRENCY_KS: [usize; 5] = [1, 2, 4, 8, 16];

/// Injection intervals (cycles between submissions) swept by the
/// congestion study, highest load last. The grid straddles the
/// CM-5-like substrate's saturation knee: at 16-word operations the
/// offered load runs from 1/16 word/cycle (far below saturation) to 16
/// words/cycle (an order of magnitude past it).
pub const CONGESTION_INTERVALS: [u64; 7] = [256, 64, 16, 8, 4, 2, 1];

/// The reduced interval grid for CI smoke runs of the congestion
/// sweep; still straddles the CM-5-like knee (between intervals 8 and
/// 4) so the saturation signal stays visible.
pub const CONGESTION_QUICK_INTERVALS: [u64; 3] = [64, 8, 4];

/// Node count the congestion study runs every pattern over.
pub const CONGESTION_NODES: usize = 16;

/// Payload words per operation in the congestion study.
pub const CONGESTION_WORDS: usize = 16;

/// Operations offered per load point in the congestion study.
pub const CONGESTION_OPS: usize = 48;

/// Node counts for the collectives scaling study (engine-native
/// dependency DAGs vs phase-serial rounds). Power-of-two so recursive
/// doubling applies at every point.
pub const COLLECTIVE_NODES: [usize; 3] = [16, 64, 256];

/// Reduced collectives grid for CI and debug builds.
pub const COLLECTIVE_NODES_QUICK: [usize; 2] = [16, 64];

/// Crash-window lengths (cycles) swept by the crash-recovery study;
/// `0` is the no-crash baseline. The window opens at cycle 50, well
/// inside a 256-word transfer, so every non-zero point kills at least
/// the first session outright.
pub const RECOVERY_CRASH_WINDOWS: [u64; 4] = [0, 1500, 3000, 6000];

/// Reduced crash-window grid for CI smoke runs; keeps the baseline and
/// one mid-transfer crash point.
pub const RECOVERY_CRASH_WINDOWS_QUICK: [u64; 2] = [0, 3000];

/// Seeds per crash-recovery cell on the full grid.
pub const RECOVERY_SEEDS: u64 = 6;

/// Seeds per crash-recovery cell on the CI-quick grid.
pub const RECOVERY_SEEDS_QUICK: u64 = 2;

/// Node count of the crash-recovery study's fat tree.
pub const RECOVERY_NODES: usize = 16;

/// Payload words per transfer in the crash-recovery study.
pub const RECOVERY_WORDS: usize = 256;

/// A geometric message-size sweep from `lo` to `hi` (both inclusive if
/// on the ×2 grid).
pub fn message_sizes(lo: u64, hi: u64) -> Vec<u64> {
    assert!(lo >= 1 && lo <= hi, "need 1 <= lo <= hi");
    let mut v = Vec::new();
    let mut w = lo;
    while w <= hi {
        v.push(w);
        if w > hi / 2 {
            break;
        }
        w *= 2;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_sweep() {
        assert_eq!(message_sizes(16, 128), vec![16, 32, 64, 128]);
        assert_eq!(message_sizes(5, 5), vec![5]);
    }

    #[test]
    fn figure8_axis_is_the_papers() {
        assert_eq!(FIGURE8_PACKET_SIZES[0], 4);
        assert_eq!(*FIGURE8_PACKET_SIZES.last().unwrap(), 128);
        assert_eq!(FIGURE8_MESSAGE_WORDS, 1024);
    }
}
