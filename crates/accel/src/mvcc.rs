//! Multi-version concurrency control for the accelerator.
//!
//! Netezza executed IDAA queries under snapshot isolation; the paper's AOT
//! extension additionally requires the accelerator to be *aware of the DB2
//! transaction context*: a transaction must see its own uncommitted
//! changes, and concurrent statements of the same transaction must behave
//! consistently. This module implements exactly that visibility rule:
//!
//! > a row version is visible to snapshot S of transaction T iff
//! >   (created by T) or (creator committed with sequence ≤ S)
//! > and not
//! >   (deleted by T) or (deleter committed with sequence ≤ S)
//!
//! Transaction ids are the *host's* ids — the accelerator enrolls in DB2
//! transactions rather than running its own, which is what makes one-system
//! semantics (and the 2PC in `idaa-core`) possible.

use parking_lot::RwLock;
use std::collections::HashMap;

/// Host transaction id (0 is reserved for "never").
pub type TxnId = u64;

/// Monotonic commit sequence number.
pub type CommitSeq = u64;

/// Lifecycle of a transaction as known to the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    Active,
    /// Voted YES in 2PC; changes still invisible to others.
    Prepared,
    Committed(CommitSeq),
    Aborted,
}

/// A consistent read point.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// Commit sequences `<= seq` are visible.
    pub seq: CommitSeq,
    /// The observing transaction (sees its own writes).
    pub me: TxnId,
}

/// Registry of transaction states, shared by all accelerator tables.
#[derive(Debug, Default)]
pub struct TxnRegistry {
    states: RwLock<HashMap<TxnId, TxnStatus>>,
    next_seq: RwLock<CommitSeq>,
}

impl TxnRegistry {
    /// Register a (host) transaction as active on the accelerator.
    pub fn begin(&self, txn: TxnId) {
        self.states.write().insert(txn, TxnStatus::Active);
    }

    /// 2PC vote: mark prepared. Errors are impossible here — an unknown txn
    /// id is registered on the fly (idempotent replays are normal in 2PC).
    pub fn prepare(&self, txn: TxnId) {
        self.states.write().insert(txn, TxnStatus::Prepared);
    }

    /// Commit, assigning the next commit sequence. Returns the sequence.
    ///
    /// Idempotent: committing an already-committed transaction returns its
    /// existing sequence without advancing the watermark — a redelivered
    /// phase-2 COMMIT (normal after coordinator retries or a crash–restart
    /// of the accelerator) must never re-order history.
    pub fn commit(&self, txn: TxnId) -> CommitSeq {
        let mut seq = self.next_seq.write();
        let mut states = self.states.write();
        if let Some(TxnStatus::Committed(existing)) = states.get(&txn) {
            return *existing;
        }
        *seq += 1;
        states.insert(txn, TxnStatus::Committed(*seq));
        *seq
    }

    /// Recovery replay: mark `txn` committed with the *original* sequence
    /// from its log record, advancing the watermark as needed. Restoring
    /// exact sequences reproduces snapshot visibility bit-for-bit.
    pub fn commit_at(&self, txn: TxnId, at: CommitSeq) {
        let mut seq = self.next_seq.write();
        *seq = (*seq).max(at);
        self.states.write().insert(txn, TxnStatus::Committed(at));
    }

    /// Abort.
    pub fn abort(&self, txn: TxnId) {
        self.states.write().insert(txn, TxnStatus::Aborted);
    }

    /// Current status (unknown ids are treated as aborted — conservative).
    pub fn status(&self, txn: TxnId) -> TxnStatus {
        self.states.read().get(&txn).copied().unwrap_or(TxnStatus::Aborted)
    }

    /// A snapshot at the current commit watermark for `me`.
    pub fn snapshot(&self, me: TxnId) -> Snapshot {
        Snapshot { seq: *self.next_seq.read(), me }
    }

    /// Highest commit sequence assigned.
    pub fn high_water(&self) -> CommitSeq {
        *self.next_seq.read()
    }

    /// Is `txn` definitely finished (committed or aborted)? Used by groom
    /// to decide which versions are reclaimable.
    pub fn is_finished(&self, txn: TxnId) -> bool {
        matches!(self.status(txn), TxnStatus::Committed(_) | TxnStatus::Aborted)
    }

    /// Transactions currently in the given status, sorted by id. Recovery
    /// uses this to enumerate in-doubt (`Prepared`) and in-flight
    /// (`Active`) transactions after log replay.
    pub fn with_status(&self, wanted: TxnStatus) -> Vec<TxnId> {
        let mut v: Vec<TxnId> = self
            .states
            .read()
            .iter()
            .filter(|(_, s)| **s == wanted)
            .map(|(t, _)| *t)
            .collect();
        v.sort_unstable();
        v
    }

    /// Full status map sorted by transaction id (checkpointing and state
    /// fingerprints need a canonical order).
    pub fn all_states(&self) -> Vec<(TxnId, TxnStatus)> {
        let mut v: Vec<(TxnId, TxnStatus)> = self.states.read().iter().map(|(t, s)| (*t, *s)).collect();
        v.sort_unstable_by_key(|(t, _)| *t);
        v
    }

    /// Drop all volatile state (a crash lost it).
    pub fn reset(&self) {
        self.states.write().clear();
        *self.next_seq.write() = 0;
    }

    /// Restore a checkpointed status map and commit watermark.
    pub fn restore(&self, states: &[(TxnId, TxnStatus)], next_seq: CommitSeq) {
        let mut map = self.states.write();
        map.clear();
        map.extend(states.iter().copied());
        *self.next_seq.write() = next_seq;
    }

    /// Visibility of a creation event to `snap`.
    #[inline]
    pub fn created_visible(&self, created: TxnId, snap: &Snapshot) -> bool {
        if created == snap.me {
            return true;
        }
        matches!(self.status(created), TxnStatus::Committed(seq) if seq <= snap.seq)
    }

    /// Visibility of a deletion event to `snap` (0 = not deleted).
    #[inline]
    pub fn delete_visible(&self, deleted: TxnId, snap: &Snapshot) -> bool {
        if deleted == 0 {
            return false;
        }
        if deleted == snap.me {
            return true;
        }
        matches!(self.status(deleted), TxnStatus::Committed(seq) if seq <= snap.seq)
    }

    /// Full row-version visibility rule.
    #[inline]
    pub fn version_visible(&self, created: TxnId, deleted: TxnId, snap: &Snapshot) -> bool {
        self.created_visible(created, snap) && !self.delete_visible(deleted, snap)
    }

    /// A scan-local visibility checker for `snap` (see [`RunVisibility`]).
    pub fn run_visibility(&self, snap: Snapshot) -> RunVisibility<'_> {
        RunVisibility {
            txns: self,
            created: 0,
            created_visible: self.created_visible(0, &snap),
            deleted: 0,
            deleted_visible: false,
            snap,
        }
    }
}

/// [`TxnRegistry::version_visible`] for one snapshot, resolving each run of
/// equal transaction ids once. A bulk load or an `INSERT` batch writes long
/// runs of rows under one creating transaction, so a scan pays the
/// registry's lock and map lookup per run instead of per row; delete marks
/// are looked up only when set (`deleted != 0`).
///
/// Exact: a transaction's visibility to a *fixed* snapshot cannot change
/// while the snapshot is in use. Its own writes stay visible; a commit that
/// happens mid-scan takes a sequence above the snapshot's watermark and so
/// stays invisible, as do active, prepared and aborted transactions.
pub struct RunVisibility<'a> {
    txns: &'a TxnRegistry,
    snap: Snapshot,
    created: TxnId,
    created_visible: bool,
    deleted: TxnId,
    deleted_visible: bool,
}

impl RunVisibility<'_> {
    /// Is the row version `(created, deleted)` visible to the snapshot?
    #[inline]
    pub fn visible(&mut self, created: TxnId, deleted: TxnId) -> bool {
        if created != self.created {
            self.created = created;
            self.created_visible = self.txns.created_visible(created, &self.snap);
        }
        if !self.created_visible {
            return false;
        }
        if deleted == 0 {
            return true;
        }
        if deleted != self.deleted {
            self.deleted = deleted;
            self.deleted_visible = self.txns.delete_visible(deleted, &self.snap);
        }
        !self.deleted_visible
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_uncommitted_writes_visible() {
        let reg = TxnRegistry::default();
        reg.begin(7);
        let snap = reg.snapshot(7);
        assert!(reg.version_visible(7, 0, &snap));
        // Another transaction does not see them.
        let other = reg.snapshot(8);
        assert!(!reg.version_visible(7, 0, &other));
    }

    #[test]
    fn own_deletes_hide_rows() {
        let reg = TxnRegistry::default();
        reg.begin(1);
        let c = reg.commit(1); // row created by committed txn 1
        reg.begin(2);
        let snap2 = reg.snapshot(2);
        assert!(reg.version_visible(1, 0, &snap2));
        // Txn 2 deletes it: immediately invisible to itself…
        assert!(!reg.version_visible(1, 2, &snap2));
        // …but still visible to a concurrent txn 3.
        reg.begin(3);
        let snap3 = reg.snapshot(3);
        assert!(reg.version_visible(1, 2, &snap3));
        let _ = c;
    }

    #[test]
    fn snapshot_isolation_ignores_later_commits() {
        let reg = TxnRegistry::default();
        reg.begin(1);
        reg.begin(2);
        let snap2 = reg.snapshot(2); // taken before txn 1 commits
        reg.commit(1);
        assert!(!reg.version_visible(1, 0, &snap2), "commit after snapshot is invisible");
        let fresh = reg.snapshot(3);
        assert!(reg.version_visible(1, 0, &fresh));
    }

    #[test]
    fn prepared_is_not_visible() {
        let reg = TxnRegistry::default();
        reg.begin(1);
        reg.prepare(1);
        let snap = reg.snapshot(2);
        assert!(!reg.version_visible(1, 0, &snap));
        reg.commit(1);
        let snap = reg.snapshot(2);
        assert!(reg.version_visible(1, 0, &snap));
    }

    #[test]
    fn aborted_never_visible() {
        let reg = TxnRegistry::default();
        reg.begin(1);
        reg.abort(1);
        let snap = reg.snapshot(2);
        assert!(!reg.version_visible(1, 0, &snap));
        // A delete by an aborted txn does not hide the row.
        reg.begin(3);
        reg.commit(3);
        let snap = reg.snapshot(4);
        assert!(reg.version_visible(3, 1, &snap));
    }

    #[test]
    fn unknown_txns_treated_as_aborted() {
        let reg = TxnRegistry::default();
        let snap = reg.snapshot(1);
        assert!(!reg.version_visible(999, 0, &snap));
    }

    #[test]
    fn commit_is_idempotent_and_replay_restores_sequences() {
        let reg = TxnRegistry::default();
        reg.begin(1);
        let s1 = reg.commit(1);
        assert_eq!(reg.commit(1), s1, "re-commit returns the original sequence");
        assert_eq!(reg.high_water(), s1, "watermark did not advance twice");
        // Replay restores exact sequences and the watermark follows.
        let reg2 = TxnRegistry::default();
        reg2.commit_at(9, 4);
        reg2.commit_at(3, 2);
        assert_eq!(reg2.high_water(), 4);
        assert_eq!(reg2.status(9), TxnStatus::Committed(4));
        assert_eq!(reg2.status(3), TxnStatus::Committed(2));
        // Restore from a checkpointed map.
        let reg3 = TxnRegistry::default();
        reg3.restore(&reg2.all_states(), reg2.high_water());
        assert_eq!(reg3.all_states(), reg2.all_states());
        assert_eq!(reg3.high_water(), 4);
        reg3.reset();
        assert_eq!(reg3.high_water(), 0);
        assert!(reg3.all_states().is_empty());
    }

    #[test]
    fn with_status_enumerates_sorted() {
        let reg = TxnRegistry::default();
        reg.begin(5);
        reg.begin(2);
        reg.begin(8);
        reg.prepare(8);
        reg.abort(5);
        assert_eq!(reg.with_status(TxnStatus::Active), vec![2]);
        assert_eq!(reg.with_status(TxnStatus::Prepared), vec![8]);
        assert_eq!(reg.with_status(TxnStatus::Aborted), vec![5]);
    }

    #[test]
    fn commit_sequences_monotonic() {
        let reg = TxnRegistry::default();
        reg.begin(1);
        reg.begin(2);
        let s1 = reg.commit(1);
        let s2 = reg.commit(2);
        assert!(s2 > s1);
        assert_eq!(reg.high_water(), s2);
        assert!(reg.is_finished(1) && reg.is_finished(2));
        reg.begin(3);
        assert!(!reg.is_finished(3));
    }
}
