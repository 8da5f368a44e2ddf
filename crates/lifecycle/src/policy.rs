//! Retention policies over a dataset's dump history.
//!
//! A simulation that checkpoints every few iterations accumulates dump
//! files forever unless something thins the history. The policy here is
//! the classic backup-rotation shape (proxmox-backup's `prune.rs` is the
//! reference mold): `keep_last` protects the N newest dumps outright and
//! `keep_daily` keeps the newest dump of each of the N most recent
//! virtual days. Everything not covered by a keep window is marked for
//! removal; the engine then deletes the files and drops their catalog
//! rows.
//!
//! The planner is *order-independent*: it sorts the dump list internally
//! (newest first, by iteration — the unique per-dataset key), so callers
//! can hand it dumps in any order and two plans over permutations of the
//! same history are identical. The newest dump is never marked for
//! removal, whatever the policy says — pruning must not be able to erase
//! the only restartable state.

use msr_meta::DumpRec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Why a dump survives the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepReason {
    /// Inside the `keep_last` window.
    KeepLast,
    /// Newest dump of one of the `keep_daily` most recent virtual days.
    KeepDaily,
    /// The newest dump overall: always kept, whatever the policy says.
    Newest,
    /// The policy has no keep field set — everything is kept.
    NoPolicy,
}

/// The planner's verdict on one dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// Retained, with the (first) rule that protected it.
    Keep(KeepReason),
    /// Covered by no keep window: prune the file and its catalog row.
    Remove,
}

impl Mark {
    /// Whether this verdict retains the dump.
    pub fn keeps(self) -> bool {
        matches!(self, Mark::Keep(_))
    }
}

/// A serde-typed retention policy over dump timestamps.
///
/// With neither field set the policy keeps everything (retention is
/// opt-in). `day_secs` is the length of one *virtual* day — bucketing for
/// `keep_daily` uses the simulated clock, so the default 86 400 s only
/// makes sense for workloads that actually span days of virtual time;
/// tests and quick-scale benches shrink it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetentionPolicy {
    /// Keep the N newest dumps unconditionally.
    #[serde(default)]
    pub keep_last: Option<u32>,
    /// Keep the newest dump of each of the N most recent virtual days
    /// that contain one.
    #[serde(default)]
    pub keep_daily: Option<u32>,
    /// Length of one virtual day, seconds (the `keep_daily` bucket).
    #[serde(default = "default_day_secs")]
    pub day_secs: f64,
}

fn default_day_secs() -> f64 {
    86_400.0
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        RetentionPolicy::keep_all()
    }
}

impl RetentionPolicy {
    /// The no-op policy: nothing is ever pruned.
    pub fn keep_all() -> RetentionPolicy {
        RetentionPolicy {
            keep_last: None,
            keep_daily: None,
            day_secs: default_day_secs(),
        }
    }

    /// Keep the `n` newest dumps.
    pub fn with_keep_last(mut self, n: u32) -> Self {
        self.keep_last = Some(n);
        self
    }

    /// Keep the newest dump of each of the `n` most recent virtual days.
    pub fn with_keep_daily(mut self, n: u32) -> Self {
        self.keep_daily = Some(n);
        self
    }

    /// Override the virtual-day length, seconds.
    pub fn with_day_secs(mut self, secs: f64) -> Self {
        self.day_secs = secs;
        self
    }

    /// Whether any keep field is set (i.e. pruning can happen at all).
    pub fn is_active(&self) -> bool {
        self.keep_last.is_some() || self.keep_daily.is_some()
    }

    /// Plan the whole history: one `(iter, Mark)` per dump, sorted by
    /// iteration ascending. Input order does not matter.
    pub fn plan(&self, dumps: &[DumpRec]) -> Vec<(u32, Mark)> {
        let mut newest_first: Vec<&DumpRec> = dumps.iter().collect();
        newest_first.sort_by_key(|d| std::cmp::Reverse(d.iter));

        let mut marks: BTreeMap<u32, Mark> = BTreeMap::new();
        if !self.is_active() {
            for d in &newest_first {
                marks.insert(d.iter, Mark::Keep(KeepReason::NoPolicy));
            }
            return marks.into_iter().collect();
        }
        if let Some(n) = self.keep_last {
            for d in newest_first.iter().take(n as usize) {
                marks
                    .entry(d.iter)
                    .or_insert(Mark::Keep(KeepReason::KeepLast));
            }
        }
        if let Some(n) = self.keep_daily {
            let day = self.day_secs.max(f64::MIN_POSITIVE);
            let mut days_seen: Vec<i64> = Vec::new();
            for d in &newest_first {
                let bucket = (d.written_secs / day).floor() as i64;
                if days_seen.contains(&bucket) {
                    continue;
                }
                if days_seen.len() >= n as usize {
                    break;
                }
                days_seen.push(bucket);
                marks
                    .entry(d.iter)
                    .or_insert(Mark::Keep(KeepReason::KeepDaily));
            }
        }
        if let Some(d) = newest_first.first() {
            marks
                .entry(d.iter)
                .or_insert(Mark::Keep(KeepReason::Newest));
        }
        for d in &newest_first {
            marks.entry(d.iter).or_insert(Mark::Remove);
        }
        marks.into_iter().collect()
    }

    /// Just the iterations the plan removes, ascending.
    pub fn prune_list(&self, dumps: &[DumpRec]) -> Vec<u32> {
        self.plan(dumps)
            .into_iter()
            .filter(|&(_, m)| m == Mark::Remove)
            .map(|(iter, _)| iter)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msr_meta::{DatasetId, DumpState};

    fn dump(iter: u32, written_secs: f64) -> DumpRec {
        DumpRec {
            dataset: DatasetId(0),
            iter,
            written_secs,
            bytes: 1024,
            state: DumpState::Resident,
        }
    }

    #[test]
    fn no_policy_keeps_everything() {
        let dumps: Vec<DumpRec> = (0..5).map(|i| dump(i * 6, f64::from(i))).collect();
        let plan = RetentionPolicy::keep_all().plan(&dumps);
        assert!(plan.iter().all(|&(_, m)| m.keeps()));
    }

    #[test]
    fn keep_last_protects_the_newest_window() {
        let dumps: Vec<DumpRec> = (0..6).map(|i| dump(i * 6, f64::from(i) * 10.0)).collect();
        let policy = RetentionPolicy::keep_all().with_keep_last(2);
        let pruned = policy.prune_list(&dumps);
        assert_eq!(pruned, vec![0, 6, 12, 18]);
    }

    #[test]
    fn keep_daily_keeps_the_newest_dump_per_day() {
        // Two dumps per 100 s "day", four days of history.
        let dumps: Vec<DumpRec> = (0..8).map(|i| dump(i, f64::from(i) * 50.0)).collect();
        let policy = RetentionPolicy::keep_all()
            .with_keep_daily(2)
            .with_day_secs(100.0);
        let plan: BTreeMap<u32, Mark> = policy.plan(&dumps).into_iter().collect();
        // Days (newest first): bucket 3 holds iters 6,7; bucket 2 holds 4,5.
        assert_eq!(plan[&7], Mark::Keep(KeepReason::KeepDaily));
        assert_eq!(plan[&5], Mark::Keep(KeepReason::KeepDaily));
        for iter in [0, 1, 2, 3, 4, 6] {
            assert_eq!(plan[&iter], Mark::Remove, "iter {iter}");
        }
    }

    #[test]
    fn keep_last_zero_still_keeps_the_newest_dump() {
        let dumps: Vec<DumpRec> = (0..3).map(|i| dump(i, f64::from(i))).collect();
        let policy = RetentionPolicy::keep_all().with_keep_last(0);
        let plan: BTreeMap<u32, Mark> = policy.plan(&dumps).into_iter().collect();
        assert_eq!(plan[&2], Mark::Keep(KeepReason::Newest));
        assert_eq!(plan[&0], Mark::Remove);
        assert_eq!(plan[&1], Mark::Remove);
    }

    #[test]
    fn plan_is_order_independent() {
        let mut dumps: Vec<DumpRec> = (0..10).map(|i| dump(i * 3, f64::from(i) * 40.0)).collect();
        let policy = RetentionPolicy::keep_all()
            .with_keep_last(2)
            .with_keep_daily(3)
            .with_day_secs(100.0);
        let reference = policy.plan(&dumps);
        // Deterministic pseudo-shuffles.
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..16 {
            for i in (1..dumps.len()).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                dumps.swap(i, j);
            }
            assert_eq!(policy.plan(&dumps), reference);
        }
    }
}
