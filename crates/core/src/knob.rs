//! One-time diagnostics for `DSU_*` environment knobs.
//!
//! A runtime knob in this crate degrades gracefully: an unrecognized
//! `DSU_KEY_SHARDS` value falls back to a documented default rather than
//! aborting the host process. Graceful degradation must not be *silent*
//! degradation, though — an operator who typo'd `DSU_KEY_SHARDS=four`
//! would otherwise run a different configuration than the one they asked
//! for, with nothing in any log to say so. This module provides the loud
//! part: a once-per-variable stderr warning, emitted by the env reader
//! (never by the parser, which only reports that a value is unrecognized).
//!
//! Once-per-variable (not once-per-call) because knobs are read at
//! structure construction: a benchmark building thousands of structures
//! must not emit thousands of identical lines.

use std::collections::BTreeSet;

/// Variables that have already warned this process. A `Mutex<BTreeSet>`
/// rather than per-knob `Once` statics so new knobs need no new state, and
/// so tests can exercise the gate with synthetic variable names.
// The lock is taken only at construction, and only for an unrecognized value.
#[allow(clippy::disallowed_types)]
static WARNED: std::sync::Mutex<BTreeSet<&'static str>> = std::sync::Mutex::new(BTreeSet::new());

/// The exact text [`warn_unrecognized`] prints — split out so tests can
/// pin the message without capturing stderr.
pub fn unrecognized_message(var: &str, value: &str, expected: &str, fallback: &str) -> String {
    format!(
        "warning: unrecognized {var}={value:?}; expected {expected} — \
         falling back to `{fallback}` (this warning prints once per variable)"
    )
}

/// Prints [`unrecognized_message`] to stderr the *first* time it is called
/// for `var` in this process; later calls for the same variable are silent
/// no-ops. Returns whether this call printed.
pub fn warn_unrecognized(var: &'static str, value: &str, expected: &str, fallback: &str) -> bool {
    let mut warned = WARNED.lock().unwrap_or_else(|e| e.into_inner());
    if !warned.insert(var) {
        return false;
    }
    eprintln!("{}", unrecognized_message(var, value, expected, fallback));
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_names_variable_value_grammar_and_fallback() {
        let msg = unrecognized_message(
            "DSU_KEY_SHARDS",
            "shards=2",
            "a positive integer shard count",
            "available_parallelism",
        );
        assert!(msg.contains("DSU_KEY_SHARDS"), "{msg}");
        assert!(msg.contains("shards=2"), "{msg}");
        assert!(msg.contains("positive integer"), "{msg}");
        assert!(msg.contains("`available_parallelism`"), "{msg}");
        assert!(msg.contains("once per variable"), "{msg}");
    }

    #[test]
    fn warns_once_per_variable() {
        // Synthetic names: the registry is process-global, and other tests
        // in this binary may legitimately warn for the real knobs.
        assert!(warn_unrecognized("DSU_TEST_KNOB_A", "bogus", "off|auto", "auto"));
        assert!(!warn_unrecognized("DSU_TEST_KNOB_A", "bogus", "off|auto", "auto"));
        assert!(!warn_unrecognized("DSU_TEST_KNOB_A", "other-bogus", "off|auto", "auto"));
        // A different variable gets its own first warning.
        assert!(warn_unrecognized("DSU_TEST_KNOB_B", "bogus", "off|auto", "auto"));
    }
}
