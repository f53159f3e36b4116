//! Page-table-entry types for host mappings of SmartNIC memory (§5.3.1).
//!
//! Wave's first latency lever is choosing the right PTE type for each
//! MMIO mapping. The paper's Figure 3 summarizes the menu; this module
//! encodes it as a type.

/// How the host CPU maps a region of SmartNIC memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PteType {
    /// No caching at all; every 64-bit load is a blocking PCIe round trip
    /// (750 ns) and every store a posted write (50 ns). This is the
    /// unoptimized baseline of Table 3.
    Uncacheable,
    /// Stores accumulate in the CPU's write-combining buffer and drain
    /// to the device as whole cache lines (on `sfence` or when a line
    /// fills). Loads are *not* cached. Wave maps the host→NIC message
    /// queue WC so a batch of messages costs one PCIe transaction.
    WriteCombining,
    /// Loads are cached at cache-line granularity (one 750 ns miss pulls
    /// 64 B; subsequent loads hit), stores go straight to memory. Wave
    /// maps the per-core decision slots WT, together with the software
    /// coherence protocol of §5.3.2 (`clflush` on MSI-X receipt) because
    /// PCIe provides no hardware coherence.
    WriteThrough,
    /// Full write-back caching with hardware coherence. Illegal over
    /// PCIe; available only on coherent interconnects (the §7.3.3 UPI
    /// emulation), where it removes the need for software coherence.
    WriteBack,
}

impl PteType {
    /// Whether loads through this PTE type can hit a CPU cache.
    pub fn caches_loads(self) -> bool {
        matches!(self, PteType::WriteThrough | PteType::WriteBack)
    }

    /// Whether this PTE type requires a hardware-coherent interconnect.
    pub fn requires_coherence(self) -> bool {
        matches!(self, PteType::WriteBack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(!PteType::Uncacheable.caches_loads());
        assert!(!PteType::WriteCombining.caches_loads());
        assert!(PteType::WriteThrough.caches_loads());
        assert!(PteType::WriteBack.caches_loads());

        assert!(PteType::WriteBack.requires_coherence());
        assert!(!PteType::WriteThrough.requires_coherence());
    }
}
