//! Tuple batching: packing several per-tuple task prompts into one physical
//! LLM call and splitting the structured answer back per tuple.
//!
//! Packing is purely a transport optimization: the member prompts are the
//! exact prompts the scan planned (so logical call accounting and the
//! per-tuple parsers are untouched), joined by an unambiguous separator
//! line. A model that understands the separator ([`crate::SimLlm`] does)
//! answers each member section independently and joins the answers with the
//! same separator; [`split_sections`] cuts the combined completion back into
//! one answer per member, borrowed from the completion's text.
//!
//! Rows and logical call counts are byte-identical at any
//! `batch_rows_per_call`: only the number of physical calls changes.

use crate::model::CompletionResponse;

/// The separator line between member sections of a packed prompt (and of a
/// packed completion). Chosen to never occur in task prompts or pipe-format
/// completions.
pub const BATCH_SEPARATOR: &str = "=====LLMSQL-BATCH-MEMBER=====";

/// True when `prompt` is a packed composite (contains the separator line).
pub fn is_packed(prompt: &str) -> bool {
    prompt.contains(BATCH_SEPARATOR)
}

/// Pack `prompts` into one composite prompt. With fewer than two members
/// this is the identity (a single prompt is sent unwrapped).
pub fn pack_prompts(prompts: &[String]) -> String {
    if prompts.len() == 1 {
        return prompts[0].clone();
    }
    prompts.join(&format!("\n{BATCH_SEPARATOR}\n"))
}

/// Split a packed prompt back into its member prompts.
pub fn split_prompt(prompt: &str) -> Vec<&str> {
    prompt
        .split(BATCH_SEPARATOR)
        .map(|part| part.trim_matches('\n'))
        .collect()
}

/// The answer text of each of the `members` prompts one physical completion
/// replied to, in member order, borrowed from `text`. An unpacked completion
/// (`members` ≤ 1) is its one member's answer whole. Sections map to members
/// in order; a completion with fewer sections than members yields empty text
/// for the tail (the per-tuple parsers treat empty text as "no answer",
/// mirroring what a truncated unpacked completion would produce), and
/// sections past the last member are ignored.
pub fn split_sections(text: &str, members: usize) -> impl Iterator<Item = &str> {
    let packed = members > 1;
    // `splitn(1, ..)` yields the text uncut, separator or not.
    text.splitn(if packed { usize::MAX } else { 1 }, BATCH_SEPARATOR)
        .map(move |part| {
            if packed {
                part.trim_matches('\n')
            } else {
                part
            }
        })
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
    fn pack_and_split_round_trip() {
        let prompts = vec!["alpha\nline".to_string(), "beta".to_string(), "g".into()];
        let packed = pack_prompts(&prompts);
        assert!(is_packed(&packed));
        let members = split_prompt(&packed);
        assert_eq!(members, vec!["alpha\nline", "beta", "g"]);
    }

    #[test]
    fn single_prompt_is_identity() {
        let prompts = vec!["only".to_string()];
        assert_eq!(pack_prompts(&prompts), "only");
        assert!(!is_packed("only"));
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
