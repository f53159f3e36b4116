//! Packet-to-host steering.
//!
//! Vanilla Stubby uses hardware RSS: a hash of the flow id picks the
//! destination, blind to load. The fleet frontdoor's `Hash` balancer
//! steers requests to hosts this way.

/// Receive-side scaling: the destination in `0..hosts` for `flow`, the
/// Toeplitz-flavoured mix RSS hardware applies (simplified to the
/// splitmix64 finalizer; distribution quality is what matters here).
pub fn rss(flow: u64, hosts: u32) -> u32 {
    let mut z = flow.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) % hosts as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_is_deterministic_per_flow() {
        assert_eq!(
            rss(7, 16),
            rss(7, 16),
            "same flow must hash to the same core"
        );
    }

    #[test]
    fn rss_spreads_flows() {
        let mut counts = [0u32; 16];
        for flow in 0..16_000 {
            counts[rss(flow, 16) as usize] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(min > 800 && max < 1_200, "min {min} max {max}");
    }
}
