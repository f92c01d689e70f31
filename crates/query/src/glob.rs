//! Wildcard matching for tenant/dataset selectors.
//!
//! Patterns are matched against the *whole* id (anchored at both ends) with
//! two metacharacters:
//!
//! * `*` — any run of characters, including the empty run;
//! * `?` — exactly one character.
//!
//! Matching is per `char`, not per byte, so `?` consumes one Unicode scalar
//! (a tenant named `café` matches `caf?`) and a `*` can never split a
//! multi-byte scalar in half.  There is no escape syntax: a tenant whose
//! *name* contains `*` or `?` is not addressable through a textual pattern —
//! address it through a typed [`crate::Selector::Exact`] instead.

use std::str::Chars;

/// Whether `pattern` matches all of `text` (anchored, `*`/`?` wildcards).
///
/// Iterative two-pointer matcher with star backtracking: linear in
/// `pattern.len() * text.len()` worst case, no recursion and no allocation
/// (the pointers are `Chars` iterators, cloned to remember a position).
pub fn glob_match(pattern: &str, text: &str) -> bool {
    let (mut p, mut t) = (pattern.chars(), text.chars());
    // The pattern just past the most recent `*`, and the text position its
    // current (shortest-so-far) expansion ends at.
    let mut star: Option<(Chars, Chars)> = None;
    while let Some(tc) = t.clone().next() {
        let mut rest = p.clone();
        match rest.next() {
            Some('*') => {
                // Tentatively match the empty run; remember where to widen.
                p = rest;
                star = Some((p.clone(), t.clone()));
            }
            Some(pc) if pc == '?' || pc == tc => {
                p = rest;
                t.next();
            }
            _ => match &mut star {
                // Widen the last `*` by one more character and retry.
                Some((sp, st)) => {
                    st.next();
                    p = sp.clone();
                    t = st.clone();
                }
                None => return false,
            },
        }
    }
    // Text exhausted: the rest of the pattern must be all `*`.
    p.all(|c| c == '*')
}

/// Whether `pattern` contains no wildcard characters — i.e. it selects at
/// most one id, by literal equality.  The plan compiler uses this to lower
/// literal selectors to direct catalog lookups.
pub fn is_literal(pattern: &str) -> bool {
    !pattern.contains(['*', '?'])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_patterns_are_anchored_equality() {
        assert!(glob_match("acme", "acme"));
        assert!(!glob_match("acme", "acme2"));
        assert!(!glob_match("acme", "ACME"));
        assert!(!glob_match("cme", "acme"));
        assert!(glob_match("", ""));
        assert!(!glob_match("", "a"));
    }

    #[test]
    fn star_matches_any_run_including_empty() {
        assert!(glob_match("*", ""));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("tenant-*", "tenant-0"));
        assert!(glob_match("tenant-*", "tenant-"));
        assert!(!glob_match("tenant-*", "tenant"));
        assert!(glob_match("*-events", "prod-events"));
        assert!(glob_match("a*b*c", "a__b__c"));
        assert!(glob_match("a*b*c", "abc"));
        assert!(!glob_match("a*b*c", "acb"));
    }

    #[test]
    fn question_mark_consumes_exactly_one_char() {
        assert!(glob_match("t?", "t0"));
        assert!(!glob_match("t?", "t"));
        assert!(!glob_match("t?", "t00"));
        assert!(glob_match("??", "ab"));
    }

    #[test]
    fn unicode_ids_match_per_scalar() {
        assert!(glob_match("caf?", "café"));
        assert!(glob_match("caf*", "café au lait"));
        assert!(glob_match("?afé", "café"));
        assert!(!glob_match("caf??", "café"));
        assert!(glob_match("*é*", "café"));
    }

    #[test]
    fn star_backtracking_widens_past_false_matches() {
        // The first candidate stop for `*` is wrong; the matcher must widen.
        assert!(glob_match("*ab", "aab"));
        assert!(glob_match("*aab", "aaab"));
        assert!(glob_match("a*a", "aa"));
        assert!(!glob_match("a*a", "a"));
        assert!(glob_match("**a", "a"));
    }

    #[test]
    fn literal_detection() {
        assert!(is_literal("tenant-0"));
        assert!(is_literal(""));
        assert!(!is_literal("tenant-*"));
        assert!(!is_literal("t?"));
    }
}
