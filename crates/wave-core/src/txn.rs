//! Transactions: atomic commits of agent decisions (§3.2).
//!
//! A Wave agent never mutates host kernel state directly — it stages a
//! decision carrying a [`ResourceRef`] that names the target resource
//! *and the generation it observed*. The host kernel enforces the
//! decision only if the generation still matches; otherwise the
//! transaction fails cleanly with a [`TxnOutcome`] and nothing is
//! mutated. This is the ghOSt guarantee that prevents
//! time-of-check-to-time-of-use corruption across the high-latency PCIe
//! path.

use rustc_hash::FxHashMap;

/// A reference to a host-kernel resource at an observed generation.
///
/// Resources are identified by an opaque `u64` (a TID for the scheduler,
/// a page-batch index for the memory manager, an RPC flow for the RPC
/// stack). The generation increments whenever the kernel-side state
/// changes in a way that invalidates outstanding decisions (thread died,
/// mapping changed, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceRef {
    /// Opaque resource identifier.
    pub resource: u64,
    /// Generation the agent observed when it made the decision.
    pub generation: u64,
}

/// Result of attempting to commit a transaction on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// The decision was enforced.
    Committed,
    /// The target resource changed since the agent observed it; nothing
    /// was mutated.
    StaleGeneration {
        /// Generation the agent observed.
        observed: u64,
        /// Generation the kernel holds now.
        current: u64,
    },
    /// The target resource no longer exists; nothing was mutated.
    TargetGone,
}

impl TxnOutcome {
    /// Whether the transaction was enforced.
    pub fn is_committed(self) -> bool {
        matches!(self, TxnOutcome::Committed)
    }
}

/// Host-kernel table of resource generations — "the host kernel is the
/// source of truth for non-policy state" (§6).
///
/// # Examples
///
/// ```
/// use wave_core::txn::{GenerationTable, ResourceRef};
///
/// let mut table = GenerationTable::new();
/// table.insert(7);
/// let observed = table.snapshot(7).unwrap();
/// // The resource changes before the agent's decision arrives...
/// table.bump(7);
/// assert!(!table.validate(observed).is_committed());
/// ```
#[derive(Debug, Clone, Default)]
pub struct GenerationTable {
    // Fx-hashed: tids/batch indices are trusted small integers and this
    // table sits on the commit path of every transaction.
    generations: FxHashMap<u64, u64>,
}

impl GenerationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new resource at generation 0. Re-inserting an
    /// existing resource is a no-op.
    pub fn insert(&mut self, resource: u64) {
        self.generations.entry(resource).or_insert(0);
    }

    /// Removes a resource (e.g. thread exit).
    pub fn remove(&mut self, resource: u64) {
        self.generations.remove(&resource);
    }

    /// Increments a resource's generation, invalidating outstanding
    /// decisions against it. No-op if the resource is gone.
    pub fn bump(&mut self, resource: u64) {
        if let Some(g) = self.generations.get_mut(&resource) {
            *g += 1;
        }
    }

    /// Captures a [`ResourceRef`] for the agent's view, or `None` if the
    /// resource does not exist.
    pub fn snapshot(&self, resource: u64) -> Option<ResourceRef> {
        self.generations
            .get(&resource)
            .map(|&generation| ResourceRef {
                resource,
                generation,
            })
    }

    /// Validates an observed reference against current state: the atomic
    /// commit check.
    pub fn validate(&self, observed: ResourceRef) -> TxnOutcome {
        match self.generations.get(&observed.resource) {
            None => TxnOutcome::TargetGone,
            Some(&current) if current == observed.generation => TxnOutcome::Committed,
            Some(&current) => TxnOutcome::StaleGeneration {
                observed: observed.generation,
                current,
            },
        }
    }

    /// Number of live resources.
    pub fn len(&self) -> usize {
        self.generations.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.generations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_succeeds_on_matching_generation() {
        let mut t = GenerationTable::new();
        t.insert(1);
        let r = t.snapshot(1).unwrap();
        assert_eq!(t.validate(r), TxnOutcome::Committed);
        assert!(t.validate(r).is_committed());
    }

    #[test]
    fn commit_fails_cleanly_on_bump() {
        let mut t = GenerationTable::new();
        t.insert(1);
        let r = t.snapshot(1).unwrap();
        t.bump(1);
        assert_eq!(
            t.validate(r),
            TxnOutcome::StaleGeneration {
                observed: 0,
                current: 1
            }
        );
    }

    #[test]
    fn commit_fails_cleanly_on_exit() {
        // The paper's example: the application exits while the agent's
        // decision is in flight.
        let mut t = GenerationTable::new();
        t.insert(42);
        let r = t.snapshot(42).unwrap();
        t.remove(42);
        assert_eq!(t.validate(r), TxnOutcome::TargetGone);
    }

    #[test]
    fn reinsert_is_noop() {
        let mut t = GenerationTable::new();
        t.insert(5);
        t.bump(5);
        t.insert(5);
        assert_eq!(t.snapshot(5).unwrap().generation, 1);
    }

    #[test]
    fn snapshot_of_missing_resource() {
        let t = GenerationTable::new();
        assert!(t.snapshot(9).is_none());
        assert!(t.is_empty());
    }
}
