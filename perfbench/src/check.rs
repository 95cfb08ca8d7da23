//! Output checks: every completed-operation log goes through the
//! repository's history oracle (`wv_chaos::oracle::check_log`).

use std::collections::HashSet;

use wv_chaos::oracle;
use wv_core::client::{CompletedOp, OpSuccess};
use wv_core::{OpError, OpKind};
use wv_sim::SimDuration;
use wv_storage::ObjectId;

/// Splits the log by suite for the oracle: versions are per-suite
/// counters. A committed transaction becomes one write per suite it
/// installed; an in-doubt one, an in-doubt write in both suites it
/// touched (its primary and the next suite, as the generator pairs them).
fn suite_log(log: &[CompletedOp], suite: ObjectId, suites: &[ObjectId]) -> Vec<CompletedOp> {
    let partner = |s: ObjectId| {
        let i = suites.iter().position(|&x| x == s).expect("known suite");
        suites[(i + 1) % suites.len()]
    };
    let mut out = Vec::new();
    for o in log {
        if o.kind != OpKind::Transaction {
            if o.suite == suite {
                out.push(o.clone());
            }
            continue;
        }
        let touched = o.suite == suite || partner(o.suite) == suite;
        match &o.outcome {
            Ok(ok) => {
                if let Some(&(_, v)) = ok.multi.iter().find(|(s, _)| *s == suite) {
                    let mut w = o.clone();
                    w.kind = OpKind::Write;
                    w.suite = suite;
                    w.outcome = Ok(OpSuccess {
                        version: v,
                        value: None,
                        multi: Vec::new(),
                    });
                    out.push(w);
                }
            }
            Err(OpError::Indeterminate) if touched => {
                let mut w = o.clone();
                w.kind = OpKind::Write;
                w.suite = suite;
                out.push(w);
            }
            Err(_) => {}
        }
    }
    out
}

/// Judges a whole run's log, suite by suite; returns every violation.
///
/// `strict` is for runs where no message is lost (completion order must
/// follow version order); `cached` adds the weak-rep staleness bound,
/// which is zero in validated mode.
pub fn oracle(
    log: &[CompletedOp],
    sent: &HashSet<Vec<u8>>,
    suites: &[ObjectId],
    strict: bool,
    cached: bool,
) -> Vec<String> {
    let mut violations = Vec::new();
    for &suite in suites {
        let slog = suite_log(log, suite, suites);
        let mut v = oracle::check_log(&slog, Some(sent), strict);
        if cached {
            v.extend(oracle::check_staleness_bound(&slog, SimDuration::ZERO));
        }
        violations.extend(v.into_iter().map(|v| format!("suite {}: {v}", suite.0)));
    }
    for o in log.iter().filter(|o| o.kind == OpKind::Transaction) {
        if let Ok(ok) = &o.outcome {
            if ok.multi.len() != 2 {
                violations.push(format!("transaction {:?} committed partially", o.req));
            }
        }
    }
    violations
}
