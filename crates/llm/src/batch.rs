//! Tuple batching: packing several per-tuple task prompts into one physical
//! LLM call and splitting the structured answer back per tuple.
//!
//! Packing is purely a transport optimization: the member prompts are the
//! exact prompts the scan planned (so logical call accounting and the
//! per-tuple parsers are untouched), but a request states what they share
//! once. Consecutive members of one [`PromptTemplate`] form one section —
//! the template's fixed text once, one `key:` line per member in order, and
//! instructions that name each entity and ask for one answer section per
//! entity; a template change starts a new section after a separator line
//! ([`pack_keys`]). A model that understands
//! the format ([`crate::SimLlm`] does) recovers the members
//! ([`split_prompt`]), answers each independently and packs the answers
//! with separator lines ([`pack_prompts`]); [`split_sections`] cuts the
//! combined completion back into one answer per member, borrowed from the
//! completion's text.
//!
//! The recovery rule: cut the request at its separator lines; a section
//! with two or more `key:` lines stands for one prompt per key —
//! `render_key` of that key, rebuilt from the section's text alone — and any
//! other section is one prompt as it stands (so prompts joined whole by
//! [`pack_prompts`] split back too).
//!
//! A separator counts only as a whole line: it starts the text or follows a
//! newline, and ends the text or precedes one. No prompt line is untrusted
//! text alone (`crate::prompt` escapes every line break such text holds), so
//! a packed prompt splits into exactly the members packed, whatever they say.
//! Rows and logical call counts are byte-identical at any
//! `batch_rows_per_call`: only the number of physical calls and the prompt
//! tokens change.

use crate::model::CompletionResponse;
use crate::prompt::{KeyedSection, PromptTemplate};

/// The separator line between the sections of a packed prompt (one per run
/// of a template) and of a packed completion (one per member).
pub const BATCH_SEPARATOR: &str = "=====LLMSQL-BATCH-MEMBER=====";

/// The pieces of `text` between its separator lines, each without the line
/// breaks around it.
fn sections(text: &str) -> impl Iterator<Item = &str> {
    let mut from = 0;
    text.match_indices(BATCH_SEPARATOR)
        .map(|(at, _)| at)
        .filter(move |&at| {
            let end = at + BATCH_SEPARATOR.len();
            matches!(text[..at].bytes().last(), None | Some(b'\n'))
                && matches!(text[end..].bytes().next(), None | Some(b'\n'))
        })
        .chain([text.len()])
        .map(move |at| {
            let section = &text[from..at];
            from = at + BATCH_SEPARATOR.len();
            section.trim_matches('\n')
        })
}

/// True when `prompt` carries two or more member prompts.
pub fn is_packed(prompt: &str) -> bool {
    let mut sections = sections(prompt);
    let first = sections.next().unwrap_or_default();
    sections.next().is_some() || KeyedSection::parse(first).is_some()
}

/// Join `texts` with separator lines: the answer sections of a packed
/// completion. With fewer than two members this is the identity (a single
/// answer is sent unwrapped).
pub fn pack_prompts(texts: &[String]) -> String {
    if texts.len() == 1 {
        return texts[0].clone();
    }
    texts.join(&format!("\n{BATCH_SEPARATOR}\n"))
}

/// The prompt of one request carrying `template.render_key(key)` for each
/// member, in order: each run of consecutive members of one template (the
/// same value, by address) is one section, and sections are divided by
/// separator lines. One member alone is its prompt unwrapped.
pub fn pack_keys<'a>(members: impl IntoIterator<Item = (&'a PromptTemplate, &'a str)>) -> String {
    let mut out = String::new();
    let mut run: Option<&PromptTemplate> = None;
    let mut keys: Vec<&str> = Vec::new();
    for (template, key) in members {
        if let Some(done) = run.filter(|done| !std::ptr::eq(*done, template)) {
            done.write_keys(&mut out, &keys);
            out.push('\n');
            out.push_str(BATCH_SEPARATOR);
            out.push('\n');
            keys.clear();
        }
        run = Some(template);
        keys.push(key);
    }
    if let Some(last) = run {
        last.write_keys(&mut out, &keys);
    }
    out
}

/// The member prompts of a request, in order (see the module docs for the
/// recovery rule).
pub fn split_prompt(prompt: &str) -> Vec<String> {
    let mut members = Vec::new();
    for section in sections(prompt) {
        match KeyedSection::parse(section) {
            Some(keyed) => members.extend(keyed.members()),
            None => members.push(section.to_string()),
        }
    }
    members
}

/// The answer text of each of the `members` prompts one physical completion
/// replied to, in member order, borrowed from `text`. An unpacked completion
/// (`members` ≤ 1) is its one member's answer whole. Sections map to members
/// in order; a completion with fewer sections than members yields empty text
/// for the tail (the per-tuple parsers treat empty text as "no answer",
/// mirroring what a truncated unpacked completion would produce), and
/// sections past the last member are ignored.
pub fn split_sections(text: &str, members: usize) -> impl Iterator<Item = &str> {
    // One member's answer is never cut, separator or not, and is not
    // searched for one.
    let whole = (members <= 1).then_some(text);
    let cut = (members > 1).then(|| sections(text));
    whole
        .into_iter()
        .chain(cut.into_iter().flatten())
        .chain(std::iter::repeat(""))
        .take(members.max(1))
}

/// [`split_sections`] as one owned response per member, the physical token
/// and dollar cost divided evenly. No engine path reads a per-member share
/// (a scan hands its plans the borrowed sections); the benchmark's
/// `llm.batch.pack_split_ns` probe calls this.
pub fn split_response(response: &CompletionResponse, members: usize) -> Vec<CompletionResponse> {
    let shares = members.max(1);
    split_sections(&response.text, members)
        .map(|text| CompletionResponse {
            text: text.to_string(),
            prompt_tokens: response.prompt_tokens / shares,
            completion_tokens: response.completion_tokens / shares,
            latency_ms: response.latency_ms,
            cost_usd: response.cost_usd / shares as f64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_separator_counts_only_as_a_whole_line() {
        let s = BATCH_SEPARATOR;
        let inside = format!("x{s}y");
        for text in [inside.clone(), format!("a\n{s}b"), format!("a\n {s}\nb")] {
            assert!(!is_packed(&text), "{text:?}");
            assert_eq!(
                split_sections(&text, 2).collect::<Vec<_>>(),
                [&text[..], ""]
            );
        }
        for (text, sections) in [
            (s.to_string(), ["", ""]),
            (format!("a|1\n{s}"), ["a|1", ""]),
            (format!("{s}\nb|2"), ["", "b|2"]),
            (format!("a|1\n{s}\n{inside}"), ["a|1", &inside]),
        ] {
            assert!(is_packed(&text), "{text:?}");
            assert_eq!(split_sections(&text, 2).collect::<Vec<_>>(), sections);
        }
        // Cut mid-separator: one section, as the text reads.
        let cut = format!("a|1\n{}", &s[..10]);
        assert_eq!(split_sections(&cut, 2).collect::<Vec<_>>(), [&cut[..], ""]);
    }

    #[test]
    fn response_split_preserves_member_order_and_divides_cost() {
        let response = CompletionResponse {
            text: format!("a|1\n{BATCH_SEPARATOR}\nb|2\n{BATCH_SEPARATOR}\nc|3"),
            prompt_tokens: 30,
            completion_tokens: 9,
            latency_ms: 5.0,
            cost_usd: 0.3,
        };
        let parts = split_response(&response, 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].text, "a|1");
        assert_eq!(parts[1].text, "b|2");
        assert_eq!(parts[2].text, "c|3");
        assert!((parts[0].cost_usd - 0.1).abs() < 1e-12);
        assert_eq!(parts[0].prompt_tokens, 10);
    }

    #[test]
    fn sections_are_slices_of_the_answer_and_an_unpacked_answer_is_whole() {
        let text = format!("a|1\n{BATCH_SEPARATOR}\nb|2\n{BATCH_SEPARATOR}\nc|3");
        let sections: Vec<&str> = split_sections(&text, 2).collect();
        // Sections past the last member are ignored.
        assert_eq!(sections, ["a|1", "b|2"]);
        let within = text.as_bytes().as_ptr_range();
        for section in sections {
            assert!(within.contains(&section.as_ptr()));
        }
        // One member: never cut, whatever the text holds.
        assert_eq!(
            split_sections(&text, 1).collect::<Vec<_>>(),
            [text.as_str()]
        );
        assert_eq!(
            split_sections("\nyes\n", 0).collect::<Vec<_>>(),
            ["\nyes\n"]
        );
    }

    #[test]
    fn short_completions_pad_with_empty_sections() {
        let response = CompletionResponse {
            text: format!("a|1\n{BATCH_SEPARATOR}\nb|2"),
            prompt_tokens: 4,
            completion_tokens: 4,
            latency_ms: 0.0,
            cost_usd: 0.0,
        };
        let parts = split_response(&response, 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[2].text, "");
        assert_eq!(parts[3].text, "");
    }
}
