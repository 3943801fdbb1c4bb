//! Text normalization and approximate matching.
//!
//! Output-agreement games hinge on deciding whether two freely-typed strings
//! "agree". The deployed systems normalize aggressively (case, whitespace,
//! punctuation, trivial plurals) and reCAPTCHA additionally tolerates small
//! typos when comparing a user's transcription against the control word.
//! This module centralizes those rules so every template, game and the
//! captcha crate agree on what agreement means.

/// Normalizes a raw player string into canonical label form:
/// lowercase, trimmed, punctuation stripped, internal whitespace collapsed
/// to single spaces, and a trivial English plural reduction (`dogs` → `dog`,
/// `boxes` → `box`, but `glass` stays `glass`).
///
/// Normalization is **idempotent**: `normalize_label(normalize_label(s)) ==
/// normalize_label(s)` (property-tested).
///
/// # Examples
///
/// ```
/// use hc_core::text::normalize_label;
/// assert_eq!(normalize_label("  Dogs!! "), "dog");
/// assert_eq!(normalize_label("Hot   Dog"), "hot dog");
/// assert_eq!(normalize_label("GLASS"), "glass");
/// ```
#[must_use]
pub fn normalize_label(raw: &str) -> String {
    let mut cleaned = String::with_capacity(raw.len());
    for c in raw.chars() {
        if c.is_alphanumeric() {
            // Full Unicode lowercasing (may expand, e.g. 'İ' → "i\u{307}");
            // expansion products that are not themselves alphanumeric
            // (combining marks) are dropped to keep normalization
            // idempotent.
            cleaned.extend(c.to_lowercase().filter(|lc| lc.is_alphanumeric()));
        } else {
            cleaned.push(' ');
        }
    }
    cleaned
        .split_whitespace()
        .map(singularize)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Reduces a trivial English plural. Deliberately conservative: only the
/// unambiguous `-ies`→`-y`, `-xes/-ses/-shes/-ches`→ drop `es`, and a
/// trailing `-s` (not `-ss`, not `-us`, not `-is`) → drop `s`.
#[must_use]
pub fn singularize(word: &str) -> String {
    match plural_suffix(word) {
        Some((strip, append)) => {
            let mut singular = word[..word.len() - strip].to_string(); // hc-analyze: allow(P1): plural_suffix only matches an ASCII suffix at least `strip` bytes long
            singular.push_str(append);
            singular
        }
        None => word.to_string(),
    }
}

/// The plural rule [`singularize`] applies to `word`: how many trailing
/// bytes it strips and what it appends, or `None` when it leaves the
/// word alone.
fn plural_suffix(w: &str) -> Option<(usize, &'static str)> {
    if w.len() > 3 && w.ends_with("ies") {
        Some((3, "y"))
    } else if w.len() > 3
        && (w.ends_with("xes") || w.ends_with("ses") || w.ends_with("shes") || w.ends_with("ches"))
    {
        Some((2, ""))
    } else if w.len() > 2
        && w.ends_with('s')
        && !w.ends_with("ss")
        && !w.ends_with("us")
        && !w.ends_with("is")
    {
        Some((1, ""))
    } else {
        None
    }
}

/// `true` when `s` is plain ASCII that [`normalize_label`] returns
/// unchanged: lowercase letters and digits in words separated by single
/// spaces, none of which [`singularize`] would change. A check that never
/// allocates, for hot paths that receive already-normalized text; `false`
/// only means "normalize to be sure" (non-ASCII text always says `false`).
#[must_use]
pub(crate) fn is_normalized(s: &str) -> bool {
    // One pass over the bytes; only a word ending in `s` can be a plural,
    // so the per-word rule runs just when one does.
    let mut prev = b' ';
    let mut ends_in_s = false;
    for &b in s.as_bytes() {
        match b {
            b'a'..=b'z' | b'0'..=b'9' => {}
            b' ' if prev != b' ' => ends_in_s |= prev == b's',
            // Anything else, or a leading or repeated space.
            _ => return false,
        }
        prev = b;
    }
    s.is_empty()
        || prev != b' '
            && (!(ends_in_s || prev == b's')
                || s.split(' ').all(|word| plural_suffix(word).is_none()))
}

/// Classic dynamic-programming Levenshtein edit distance (two-row variant,
/// `O(|a|·|b|)` time, `O(min)` space). Operates on Unicode scalar values.
///
/// # Examples
///
/// ```
/// use hc_core::text::levenshtein;
/// assert_eq!(levenshtein("kitten", "sitting"), 3);
/// assert_eq!(levenshtein("", "abc"), 3);
/// assert_eq!(levenshtein("same", "same"), 0);
/// ```
#[must_use]
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    // Ensure b is the shorter side to bound memory.
    let (long, short) = if a.len() >= b.len() {
        (&a, &b)
    } else {
        (&b, &a)
    };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut curr = vec![0usize; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let sub_cost = if lc == sc { 0 } else { 1 };
            // hc-analyze: allow(P1): j + 1 <= short.len(), the row width
            curr[j + 1] = (prev[j] + sub_cost).min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[short.len()]
}

/// Normalized similarity in `[0, 1]`: `1 - distance / max_len`, with two
/// empty strings defined as identical (1.0).
///
/// # Examples
///
/// ```
/// use hc_core::text::similarity;
/// assert_eq!(similarity("abc", "abc"), 1.0);
/// assert_eq!(similarity("", ""), 1.0);
/// assert!(similarity("cat", "car") > 0.6);
/// assert_eq!(similarity("abc", "xyz"), 0.0);
/// ```
#[must_use]
pub fn similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Whether two raw strings agree after normalization, tolerating up to
/// `max_edits` edit operations between the normalized forms. `max_edits = 0`
/// is exact normalized equality; reCAPTCHA-style matching uses 1.
#[must_use]
pub fn fuzzy_agree(a: &str, b: &str, max_edits: usize) -> bool {
    let na = normalize_label(a);
    let nb = normalize_label(b);
    if na == nb {
        return true;
    }
    if max_edits == 0 {
        return false;
    }
    levenshtein(&na, &nb) <= max_edits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_handles_case_space_punct() {
        assert_eq!(normalize_label("  HELLO,   World! "), "hello world");
        assert_eq!(normalize_label("sky-scraper"), "sky scraper");
        assert_eq!(normalize_label(""), "");
        assert_eq!(normalize_label("!!!"), "");
    }

    #[test]
    fn plural_reduction_is_conservative() {
        assert_eq!(singularize("dogs"), "dog");
        assert_eq!(singularize("boxes"), "box");
        assert_eq!(singularize("churches"), "church");
        assert_eq!(singularize("dishes"), "dish");
        assert_eq!(singularize("cities"), "city");
        assert_eq!(singularize("glass"), "glass");
        assert_eq!(singularize("bus"), "bus");
        assert_eq!(singularize("tennis"), "tennis");
        assert_eq!(singularize("is"), "is");
        assert_eq!(singularize("as"), "as");
    }

    #[test]
    fn fast_check_accepts_only_fixed_points() {
        for s in [
            "",
            "cat",
            "hot dog",
            "glass",
            "bus",
            "tennis",
            "w42",
            "kindof w7",
        ] {
            assert!(is_normalized(s), "{s:?}");
            assert_eq!(normalize_label(s), s);
        }
        // Plurals, case, punctuation, stray spaces, non-ASCII, and "ros"
        // (which `singularize` still shortens to "ro").
        for s in [
            "cats", "Cat", "cat!", " cat", "cat ", "hot  dog", "café", "ros",
        ] {
            assert!(!is_normalized(s), "{s:?}");
        }
    }

    proptest::proptest! {
        #[test]
        fn is_normalized_implies_normalize_is_identity(
            s in "([a-z0-9]{0,3}[esixhcuy]{0,3} ?){0,3}[-a-zA-Z0-9 !.]{0,4}",
        ) {
            if is_normalized(&s) {
                proptest::prop_assert_eq!(normalize_label(&s), s);
            }
        }

        #[test]
        fn plain_words_pass_the_fast_check_unless_singularize_moves_them(
            words in proptest::collection::vec("[a-z0-9]{1,8}", 1..4),
        ) {
            let s = words.join(" ");
            let fixed = words.iter().all(|w| singularize(w) == *w);
            proptest::prop_assert_eq!(is_normalized(&s), fixed);
        }
    }

    #[test]
    fn normalization_is_idempotent_on_samples() {
        for s in ["Dogs!!", "hot  DOGS", "churches", "a-b-c", "", "ﬁsh"] {
            let once = normalize_label(s);
            assert_eq!(normalize_label(&once), once, "not idempotent on {s:?}");
        }
    }

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("gumbo", "gambol"), 2);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("a", ""), 1);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("abcdef", "azced"), 3);
    }

    #[test]
    fn levenshtein_is_symmetric() {
        let pairs = [("kitten", "sitting"), ("abc", ""), ("xy", "yx")];
        for (a, b) in pairs {
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
        }
    }

    #[test]
    fn levenshtein_unicode_is_per_scalar() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("日本語", "日本"), 1);
    }

    #[test]
    fn similarity_bounds() {
        assert!((similarity("kitten", "sitting") - (1.0 - 3.0 / 7.0)).abs() < 1e-12);
        assert_eq!(similarity("", "abcd"), 0.0);
    }

    #[test]
    fn fuzzy_agree_tolerance() {
        assert!(fuzzy_agree("Dogs", "dog", 0)); // normalization alone
        assert!(!fuzzy_agree("dog", "fog", 0));
        assert!(fuzzy_agree("dog", "fog", 1));
        assert!(fuzzy_agree("overlooked", "overlook", 2));
        assert!(!fuzzy_agree("completely", "different", 2));
    }
}
