//! Environment-driven fault injection for exercising fault-tolerance paths.
//!
//! Long-running sweeps survive cell panics and process kills (see
//! `d2m_sim::sweep` / `d2m_sim::checkpoint`) — but those
//! recovery paths are only trustworthy if CI can *provoke* the faults they
//! recover from. This module provides named **fault points**: call sites in
//! production code invoke [`fire`], which does nothing unless a matching
//! fault rule is armed via the `D2M_FAULT` environment variable (or, in
//! tests, via [`arm`]).
//!
//! # Rule grammar
//!
//! `D2M_FAULT` holds a comma-separated list of rules:
//!
//! ```text
//! site[@scope]:key:action
//! ```
//!
//! * `site` — the fault-point name, e.g. `cell` (sweep cell execution),
//!   `checkpoint` (after a journal append), `build` (system construction).
//! * `scope` — optional filter on the call site's scope string (the sweep
//!   name for `cell`/`checkpoint`, the system name for `build`). Omitted =
//!   any scope. Scoping keeps concurrently running tests from tripping each
//!   other's faults.
//! * `key` — a `u64` (the cell index, checkpoint sequence number, …) or `*`
//!   for any.
//! * `action` — `panic`, or `exit` (immediate
//!   `std::process::exit(`[`EXIT_CODE`]`)`, simulating a kill).
//!
//! A rule fires every time its fault point is reached.
//!
//! Examples:
//!
//! ```text
//! D2M_FAULT=cell:17:panic              # panic while running sweep cell 17
//! D2M_FAULT=checkpoint:3:exit          # die right after the 3rd journal append
//! D2M_FAULT=cell:2:panic,checkpoint:2:exit
//! D2M_FAULT=cell@smoke:*:panic         # every cell of sweep "smoke" panics
//! ```
//!
//! Panic messages are deterministic functions of `(site, key)`, so a sweep
//! that converts an injected panic into a `CellResult` error string stays
//! byte-identical across reruns and kill/resume cycles.
//!
//! An unparseable `D2M_FAULT` is reported once on stderr and ignored —
//! injection is a testing aid and must never take down a production run.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Exit code used by the `exit` action, distinct from panic aborts (101)
/// and conventional error exits, so tests can assert the death was the
/// injected one.
pub const EXIT_CODE: i32 = 43;

/// What an armed rule does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Action {
    /// Panic with a deterministic message.
    Panic,
    /// `std::process::exit(EXIT_CODE)` — simulates a kill.
    Exit,
}

#[derive(Clone, Debug)]
struct Rule {
    site: String,
    /// `None` = any scope.
    scope: Option<String>,
    /// `None` = any key (`*`).
    key: Option<u64>,
    action: Action,
}

/// Armed rules. `None` = not yet initialized from the environment.
static RULES: Mutex<Option<Vec<Rule>>> = Mutex::new(None);

/// Serializes tests that arm rules programmatically (see [`arm`]).
static ARM_LOCK: Mutex<()> = Mutex::new(());

fn unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn parse_rules(spec: &str) -> Result<Vec<Rule>, String> {
    let mut rules = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let fields: Vec<&str> = part.split(':').collect();
        let [site_scope, key, action] = fields[..] else {
            return Err(format!("rule {part:?}: expected site[@scope]:key:action"));
        };
        let (site, scope) = match site_scope.split_once('@') {
            Some((s, sc)) => (s, Some(sc.to_string())),
            None => (site_scope, None),
        };
        if site.is_empty() {
            return Err(format!("rule {part:?}: empty site"));
        }
        let key = match key {
            "*" => None,
            k => Some(
                k.parse::<u64>()
                    .map_err(|_| format!("rule {part:?}: key must be a u64 or '*'"))?,
            ),
        };
        let action = match action {
            "panic" => Action::Panic,
            "exit" => Action::Exit,
            other => return Err(format!("rule {part:?}: unknown action {other:?}")),
        };
        rules.push(Rule {
            site: site.to_string(),
            scope,
            key,
            action,
        });
    }
    Ok(rules)
}

fn rules_from_env() -> Vec<Rule> {
    match std::env::var("D2M_FAULT") {
        Ok(spec) => parse_rules(&spec).unwrap_or_else(|e| {
            eprintln!("warning: ignoring D2M_FAULT: {e}");
            Vec::new()
        }),
        Err(_) => Vec::new(),
    }
}

/// A fault point. Does nothing unless a matching rule is armed; see the
/// module docs for the rule grammar.
///
/// `panic` rules panic here with a deterministic message; `exit` rules
/// terminate the process with [`EXIT_CODE`].
///
/// # Panics
///
/// Deliberately, when a matching `panic` rule is armed.
pub fn fire(site: &str, scope: &str, key: u64) {
    let action = {
        let mut guard = unpoisoned(&RULES);
        let rules = guard.get_or_insert_with(rules_from_env);
        let hit = rules.iter().find(|r| {
            r.site == site
                && r.scope.as_deref().is_none_or(|s| s == scope)
                && r.key.is_none_or(|k| k == key)
        });
        match hit {
            None => return,
            Some(rule) => rule.action,
        }
        // The mutex guard drops here, *before* any panic/exit below.
    };
    match action {
        Action::Panic => panic!("injected fault at {site}:{key} (D2M_FAULT)"),
        Action::Exit => {
            eprintln!("injected fault at {site}:{key}: exiting with code {EXIT_CODE} (D2M_FAULT)");
            std::process::exit(EXIT_CODE);
        }
    }
}

/// Disarms rules when dropped; holding it also serializes every other
/// [`arm`] caller in the process, so concurrent tests cannot interleave
/// conflicting rule sets.
pub struct FaultGuard {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        *unpoisoned(&RULES) = Some(Vec::new());
    }
}

/// Arms fault rules programmatically (tests; production uses `D2M_FAULT`).
/// Replaces any currently armed rules; the returned guard disarms everything
/// when dropped.
///
/// Scope your rules (`cell@my-sweep-name:…`) — other tests in the same
/// process may be running sweeps concurrently, and an unscoped rule would
/// fire on their fault points too.
///
/// # Errors
///
/// Returns a message describing the first malformed rule.
pub fn arm(spec: &str) -> Result<FaultGuard, String> {
    let rules = parse_rules(spec)?;
    let serial = ARM_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    *unpoisoned(&RULES) = Some(rules);
    Ok(FaultGuard { _serial: serial })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    /// Whether `fire(site, scope, key)` panics under the armed rules.
    fn fires(site: &str, scope: &str, key: u64) -> bool {
        catch_unwind(|| fire(site, scope, key)).is_err()
    }

    #[test]
    fn unarmed_fire_is_inert() {
        // Arm an empty set so the env (if any) cannot leak into this test.
        let _g = arm("").unwrap();
        assert!(!fires("cell", "any", 0));
        assert!(!fires("checkpoint", "any", 7));
    }

    #[test]
    fn parse_accepts_full_grammar() {
        let rules = parse_rules("cell:17:panic, checkpoint@smoke:3:exit ,build:*:panic").unwrap();
        assert_eq!(rules.len(), 3);
        assert_eq!(rules[0].site, "cell");
        assert_eq!(rules[0].key, Some(17));
        assert_eq!(rules[0].action, Action::Panic);
        assert_eq!(rules[0].scope, None);
        assert_eq!(rules[1].scope.as_deref(), Some("smoke"));
        assert_eq!(rules[1].action, Action::Exit);
        assert_eq!(rules[2].key, None);
    }

    #[test]
    fn parse_rejects_malformed_rules() {
        for bad in [
            "cell",
            "cell:1",
            "cell:x:panic",
            "cell:1:explode",
            "cell:1:error",
            "cell:1:panic:2",
            "cell:1:panic:many",
            ":1:panic",
            "a:1:panic:2:3",
        ] {
            assert!(parse_rules(bad).is_err(), "{bad:?}");
        }
        // Empty segments and whitespace are tolerated (trailing commas).
        assert!(parse_rules("").unwrap().is_empty());
        assert!(parse_rules(" , ").unwrap().is_empty());
    }

    #[test]
    fn error_rules_match_scope_key_and_count() {
        let _g = arm("cell@mine:3:panic").unwrap();
        assert!(!fires("cell", "mine", 2), "key mismatch");
        assert!(!fires("cell", "other", 3), "scope mismatch");
        assert!(!fires("checkpoint", "mine", 3), "site mismatch");
        assert!(fires("cell", "mine", 3), "first firing");
        assert!(fires("cell", "mine", 3), "a rule fires every time");
    }

    #[test]
    fn wildcard_key_matches_everything_and_guard_disarms() {
        {
            let _g = arm("cell:*:panic").unwrap();
            assert!(fires("cell", "any", 0));
            assert!(fires("cell", "other", u64::MAX));
        }
        // Holding the arm lock with no guard alive: nothing may be armed.
        let _serial = unpoisoned(&ARM_LOCK);
        assert!(!fires("cell", "any", 0), "guard drop must disarm");
    }

    #[test]
    fn panic_action_panics_with_deterministic_message() {
        let _g = arm("cell:5:panic").unwrap();
        let p = catch_unwind(|| fire("cell", "any", 5)).expect_err("must panic");
        let msg = p.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "injected fault at cell:5 (D2M_FAULT)");
        // A caught injected panic must not wedge the fault machinery.
        assert!(!fires("cell", "any", 6));
    }
}
