//! A small deterministic tokenizer used for token accounting.
//!
//! The simulator does not need a real BPE vocabulary; it needs token counts
//! that scale the way real tokenizers do (roughly one token per short word or
//! punctuation mark, long words split into sub-word chunks) so that the cost
//! and latency models produce realistic relative numbers.

/// Maximum characters per sub-word chunk; real BPE pieces average ~4 chars.
const CHUNK: usize = 4;

/// Number of tokens in a text: one per punctuation character, and one per
/// started 4 characters of each alphanumeric run. Whitespace only
/// separates runs.
pub fn count_tokens(text: &str) -> usize {
    let mut tokens = 0;
    // Characters of the alphanumeric run the scan is in.
    let mut run = 0;
    for c in text.chars() {
        if c.is_whitespace() {
            run = 0;
        } else if c.is_alphanumeric() {
            if run % CHUNK == 0 {
                tokens += 1;
            }
            run += 1;
        } else {
            run = 0;
            tokens += 1;
        }
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The piecewise tokenizer `count_tokens` replaced, kept as its
    /// reference: the pieces a text splits into, each alphanumeric word
    /// chunked by [`CHUNK`] characters and each punctuation character a
    /// piece of its own.
    fn reference_pieces(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut word = String::new();
        let flush = |word: &mut String, out: &mut Vec<String>| {
            let chars: Vec<char> = word.chars().collect();
            out.extend(chars.chunks(CHUNK).map(|chunk| chunk.iter().collect()));
            word.clear();
        };
        for c in text.chars() {
            if c.is_whitespace() {
                flush(&mut word, &mut out);
            } else if c.is_alphanumeric() {
                word.push(c);
            } else {
                flush(&mut word, &mut out);
                out.push(c.to_string());
            }
        }
        flush(&mut word, &mut out);
        out
    }

    #[test]
    fn short_words_are_single_tokens() {
        assert_eq!(count_tokens("the cat sat"), 3);
    }

    #[test]
    fn long_words_split_into_chunks() {
        // "supersymmetrization" = 19 chars -> 5 chunks of <=4
        assert_eq!(count_tokens("supersymmetrization"), 5);
    }

    #[test]
    fn punctuation_counts() {
        assert_eq!(count_tokens("a,b"), 3);
        assert_eq!(count_tokens("SELECT * FROM t;"), 6);
    }

    #[test]
    fn empty_text() {
        assert_eq!(count_tokens(""), 0);
        assert_eq!(count_tokens("   "), 0);
    }

    #[test]
    fn counts_scale_with_length() {
        let short = count_tokens("a b c");
        let long = count_tokens(&"a b c ".repeat(50));
        assert!(long > short * 40);
    }

    /// Text from the alphabets a prompt or an answer can hold: ASCII
    /// punctuation, Unicode whitespace, letters and digits outside ASCII,
    /// combining marks, emoji, and the prompt format's own lines.
    fn arb_text() -> impl Strategy<Value = String> {
        let piece = prop_oneof![
            "[!-/:-@\\[-`{-~]{1,3}",
            "[a-zA-Z0-9]{1,9}",
            "[ \r\t\n\u{a0}\u{2003}\u{3000}\u{85}\u{2028}]{1,2}",
            "[éßΩдж日本語٣५〇]{1,6}",
            "[e\u{301}\u{308}\u{94d}\u{5b0}]{1,3}",
            "[😀🎉👍🏽\u{200d}❤\u{fe0f}]{1,3}",
            Just("### ".to_string()),
            Just("### TASK\n".to_string()),
            Just("key: São Tomé\n".to_string()),
            Just("columns: name | capital\n".to_string()),
        ];
        proptest::collection::vec(piece, 0..12).prop_map(|pieces| pieces.concat())
    }

    proptest! {
        #[test]
        fn counts_the_reference_pieces(text in arb_text()) {
            prop_assert_eq!(count_tokens(&text), reference_pieces(&text).len());
        }
    }
}
