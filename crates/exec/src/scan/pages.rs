//! The page plan: a relation read `row_batch` page by page.

use std::collections::VecDeque;

use llmsql_llm::{prompt::PromptTemplate, scan_pipe_rows};
use llmsql_plan::estimate_scan_rows;
use llmsql_types::{DataType, Result, Row, Value};

use super::{unasked, Accepted, Asks, PromptPlan, ScanSpec};

/// Page through the relation with `row_batch` prompts at precomputed
/// offsets.
///
/// Pagination is speculative: a page is asked for on the assumption that
/// every page before it comes back full, and once a short page is consumed
/// the pages still in flight are cancelled. So the window is sized by what
/// is known about the relation's end:
///
/// * **Where it starts.** With a cardinality hint, `W₀` is the page count
///   the planner expects the scan to take — `llmsql_plan::estimate_scan_rows`
///   (hint, pushed filter's selectivity, row budget), the very number EXPLAIN
///   prints as the scan's rows, over the page size. With no hint nothing is
///   known before the first answer: `W₀` is one page.
/// * **How it grows.** With a hint, by one per full page consumed — evidence
///   that the relation goes on — while fewer than `W₀` are:
///   `W(c) = min(fanout, W₀ + c)` for `c < W₀`. At `c = W₀` the filtered
///   relation has reached the planner's estimate, which then bounds nothing:
///   from there `W` = the fanout, and the hint alone bounds speculation. So
///   an estimate that is too low costs at most one round trip more than an
///   exact one. Without a hint the window is slow start, one page more per
///   full page consumed, `W(c) = min(fanout, 1 + c)`: the pages in flight
///   double each round trip, 1, 2, 4, 8, …
/// * **What it can waste.** A scan that a filter ends on its `k`-th page
///   (`k` full pages served) has issued `min(W(k), hint pages − k) − 1`
///   calls past the end. Without a hint that is at most `min(fanout − 1, k)`,
///   and an empty relation costs one call as in a sequential run. With a
///   hint it is `min(fanout, W₀ + k) − 1` at most while `k < W₀` — an
///   estimate that is too high costs at most the estimated pages − 1 over
///   an exact one — and `min(fanout, hint pages − k) − 1` once `k ≥ W₀`.
///   Pages past the hint are never planned, so an unfiltered hinted scan
///   wastes nothing, and a budget-capped scan (`LIMIT` or `max_scan_rows`
///   reached before exhaustion) issues exactly the sequential call count.
///
/// A page's prompt is the plan's one template with the page's limit and
/// offset rendered in.
pub(super) struct Pages<'a> {
    spec: ScanSpec<'a>,
    columns: Vec<usize>,
    types: Vec<DataType>,
    /// Everything a page's prompt says but its limit and offset — table,
    /// column list, filter, the schema's description — rendered once.
    template: PromptTemplate,
    budget: usize,
    page: usize,
    /// Relation-cardinality hint: how many lines an unfiltered enumeration
    /// would produce. Pages at offsets past it can only come back empty, so
    /// they are never planned — no tail overshoot, and an empty relation
    /// costs zero calls. Under a pushed filter it is still a sound upper
    /// bound, and the short-page check still detects the filtered
    /// relation's earlier end.
    hint: Option<usize>,
    /// `W₀`: the pages the planner expects the scan to take (1 without a
    /// hint).
    first_window: usize,
    /// Full pages consumed.
    full_consumed: usize,
    /// Where the next unplanned page starts.
    offset: usize,
    /// The `limit` of each page in flight, oldest first.
    in_flight: VecDeque<usize>,
    pub(super) rows: Vec<Row>,
}

impl<'a> Pages<'a> {
    /// The plan of `spec` in pages of `page` rows (at least one), with
    /// `filter` in each prompt, under `max_scan_rows` and the relation's
    /// cardinality `hint`.
    pub(super) fn new(
        spec: ScanSpec<'a>,
        filter: Option<&str>,
        page: usize,
        max_scan_rows: usize,
        hint: Option<u64>,
    ) -> Self {
        let columns = spec.needed_columns();
        let column = |&i: &usize| &spec.table_schema.columns[i];
        let names: Vec<&str> = columns.iter().map(|i| column(i).name.as_str()).collect();
        let page = page.max(1);
        let first_window = hint.map_or(1, |n| {
            let rows = estimate_scan_rows(n, max_scan_rows, spec.pushed_filter, spec.pushed_limit);
            (rows / page as f64).ceil() as usize
        });
        Pages {
            spec,
            types: columns.iter().map(|i| column(i).data_type).collect(),
            template: PromptTemplate::row_batch(
                spec.table,
                &names,
                filter,
                Some(spec.table_schema),
            ),
            columns,
            budget: spec.row_budget(max_scan_rows),
            page,
            hint: hint.map(|n| n as usize),
            first_window,
            full_consumed: 0,
            offset: 0,
            in_flight: VecDeque::new(),
            rows: Vec::new(),
        }
    }
}

impl PromptPlan for Pages<'_> {
    const KIND: &'static str = "row_batch";

    fn window(&self) -> usize {
        // The answers have passed the planner's estimate: only the hint
        // still bounds what may be asked.
        if self.hint.is_some() && self.full_consumed >= self.first_window {
            return usize::MAX;
        }
        self.first_window + self.full_consumed
    }

    fn next(&mut self, cap: usize) -> Result<Option<Asks<'_>>> {
        // Only *full* pages (`limit` = `page`) fly together: their prompts
        // depend on nothing but the page offset, which advances by exactly
        // `page` while pages come back full, so they can be fetched
        // concurrently and still match a sequential run prompt-for-prompt —
        // as long as the row budget has room for every one of them coming
        // back full. A budget-clamped final page is different — its `limit`
        // is `budget - rows.len()`, which depends on how many rows the
        // earlier pages actually *parsed* (fidelity noise drops lines) — so
        // it is issued alone, planned from the true row count.
        let reserved: usize = self.in_flight.iter().sum();
        let limit = (self.budget.saturating_sub(self.rows.len() + reserved)).min(self.page);
        let clamped_in_company = limit < self.page && !self.in_flight.is_empty();
        let past_the_hint = self.hint.is_some_and(|end| self.offset >= end);
        if cap == 0 || limit == 0 || clamped_in_company || past_the_hint {
            return Ok(None);
        }
        let prompt = self.template.render_page(limit, self.offset);
        self.offset += limit;
        self.in_flight.push_back(limit);
        Ok(Some(Asks::Prompt(prompt)))
    }

    fn accept(&mut self, answer: &str) -> Result<Accepted> {
        let want = self.in_flight.pop_front().ok_or_else(unasked)?;
        // A backend that emits *more* lines than requested is clamped to the
        // page size — later pages are dispatched at offsets assuming at most
        // `want` lines per page, so consuming overshoot would duplicate rows.
        let keep = want.min(self.budget - self.rows.len());
        let arity = self.spec.table_schema.arity();
        let (columns, rows) = (&self.columns, &mut self.rows);
        let mut parsed = 0;
        // Each kept line's cells go straight to their columns of a row of
        // the base arity, NULL elsewhere.
        let dropped = scan_pipe_rows(answer, &self.types, |cells| {
            if parsed < keep {
                let mut full = vec![Value::Null; arity];
                for (cell, &column) in cells.iter_mut().zip(columns) {
                    full[column] = std::mem::take(cell);
                }
                rows.push(Row::new(full));
            }
            parsed += 1;
        });
        // Lines the model produced for this page, parsed or not: the
        // relation is exhausted when the model had fewer rows to say than
        // asked for, not when some lines were malformed. A short page is the
        // end of the relation: the pages still in flight were speculative
        // fetches past the end.
        let done = parsed + dropped < want || self.rows.len() >= self.budget;
        self.full_consumed += usize::from(!done);
        Ok(Accepted {
            done,
            dropped_lines: dropped as u64,
            cells_filled: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{
        between_filter, field, gt_filter, in_europe, lt_filter, numbered_rows, page_prompt,
        pages_of, parts, replay, world_rows, Replay,
    };
    use super::*;
    use llmsql_llm::prompt::TaskSpec;

    /// How many prompts each round trip of `run` planned: the first round is
    /// what was planned before any answer, and a prompt planned after
    /// consuming the answer to prompt `j` goes one round after `j`'s.
    fn rounds(run: &Replay) -> Vec<usize> {
        let mut round_of: Vec<usize> = Vec::new();
        let mut sizes: Vec<usize> = Vec::new();
        for &after in &run.planned_after {
            let round = after.checked_sub(1).map_or(0, |j| round_of[j] + 1);
            round_of.push(round);
            sizes.resize(sizes.len().max(round + 1), 0);
            sizes[round] += 1;
        }
        sizes
    }

    #[test]
    fn batched_scan_pages_through_table() {
        // Page size 2 over five rows, no hint: two full pages, then the
        // short one that ends the relation.
        let p = parts(None, None);
        let spec = p.spec();
        for fanout in [1, 4] {
            let mut pages = Pages::new(spec, None, 2, usize::MAX, None);
            let run = replay(
                &mut pages,
                fanout,
                1,
                usize::MAX,
                pages_of(world_rows(), vec![0, 1, 2]),
            );
            let consumed: Vec<String> = (0..3).map(|i| page_prompt(&p, 2, i)).collect();
            assert_eq!(run.prompts[..3], consumed, "fanout {fanout}");
            assert_eq!(run.consumed, 3);
            assert_eq!(pages.rows, world_rows());
        }
    }

    #[test]
    fn batched_scan_with_filter_and_pruning() {
        // The filter and the pruned column list are in every page's prompt;
        // the model's rows land in their own columns and the pruned column
        // (region) is NULL.
        let p = parts(Some(gt_filter(60)), Some(vec![0, 2]));
        let spec = p.spec();
        let filter = spec.prompt_filter().unwrap();
        let mut pages = Pages::new(spec, filter.as_deref(), 2, usize::MAX, None);
        let kept: Vec<Row> = world_rows()
            .into_iter()
            .filter(|row| row.get(2).as_int().unwrap() > 60)
            .collect();
        let run = replay(&mut pages, 1, 1, usize::MAX, pages_of(kept, vec![0, 2]));
        assert_eq!(run.prompts, [page_prompt(&p, 2, 0), page_prompt(&p, 2, 1)]);
        assert_eq!(pages.rows.len(), 3);
        for r in &pages.rows {
            assert!(r.get(1).is_null());
            assert!(r.get(2).as_int().unwrap() > 60);
        }
    }

    #[test]
    fn a_page_row_is_null_outside_the_asked_columns() {
        // Asked for in an order that is not the table's: each cell lands at
        // its own column of a full-width row, and the column nobody asked
        // for is NULL.
        let p = parts(None, Some(vec![2, 0]));
        let spec = p.spec();
        let mut pages = Pages::new(spec, None, 2, usize::MAX, Some(5));
        let run = replay(
            &mut pages,
            4,
            1,
            usize::MAX,
            pages_of(world_rows(), vec![2, 0]),
        );
        assert_eq!(run.prompts[0], page_prompt(&p, 2, 0));
        let world = world_rows();
        assert_eq!(pages.rows.len(), world.len());
        for (row, truth) in pages.rows.iter().zip(&world) {
            assert_eq!(row.arity(), 3);
            assert_eq!(row.get(0), truth.get(0));
            assert!(row.get(1).is_null());
            assert_eq!(row.get(2), truth.get(2));
        }
    }

    #[test]
    fn pushed_limit_caps_rows_and_calls() {
        let mut p = parts(None, None);
        p.pushed_limit = Some(2);
        let spec = p.spec();
        for (fanout, hint) in [(1, None), (8, None), (8, Some(5))] {
            let mut pages = Pages::new(spec, None, 2, usize::MAX, hint);
            let run = replay(
                &mut pages,
                fanout,
                1,
                usize::MAX,
                pages_of(world_rows(), vec![0, 1, 2]),
            );
            assert_eq!(run.prompts, [page_prompt(&p, 2, 0)], "fanout {fanout}");
            assert_eq!(pages.rows, world_rows()[..2]);
        }
    }

    #[test]
    fn max_scan_rows_is_respected() {
        // A cap of 3 in pages of 2: a full page, then one clamped to the
        // row the cap has left.
        let p = parts(None, None);
        let spec = p.spec();
        let mut pages = Pages::new(spec, None, 2, 3, None);
        let run = replay(
            &mut pages,
            4,
            1,
            usize::MAX,
            pages_of(world_rows(), vec![0, 1, 2]),
        );
        let clamped = TaskSpec::RowBatch {
            table: "countries".into(),
            columns: vec!["name".into(), "region".into(), "population".into()],
            filter: None,
            limit: 1,
            offset: 2,
        };
        assert_eq!(
            run.prompts,
            [page_prompt(&p, 2, 0), clamped.to_prompt(Some(&p.schema))]
        );
        assert_eq!(pages.rows, world_rows()[..3]);
    }

    #[test]
    fn budget_clamped_scan_under_noise_matches_sequential() {
        // Regression: a row budget close to the table size makes the final
        // page's `limit` depend on how many rows earlier pages *parsed*.
        // With a noisy model garbling lines, an optimistic planner would
        // issue that page with a speculated limit (a different prompt than
        // sequential), changing both results and call counts. Only full
        // pages may therefore fly together; a clamped page is issued alone.
        let rows: Vec<Row> = (0..60)
            .map(|i| {
                Row::new(vec![
                    Value::Text(format!("Country {i:04}")),
                    Value::Text("Europe".into()),
                    Value::Int(1000 + i64::from(i)),
                ])
            })
            .collect();
        let truth = pages_of(rows, vec![0, 1, 2]);
        // Every third line the model writes is garbled past parsing.
        let noisy = |i: usize, prompt: &str| {
            let lines = truth(i, prompt);
            let lines =
                lines.lines().enumerate().map(
                    |(j, line)| {
                        if (i + j) % 3 == 1 {
                            "garbled"
                        } else {
                            line
                        }
                    },
                );
            lines.collect::<Vec<_>>().join("\n")
        };
        let p = parts(None, None);
        let spec = p.spec();
        for hint in [Some(60), None] {
            let run = |fanout: usize| {
                let mut pages = Pages::new(spec, None, 5, 12, hint);
                let run = replay(&mut pages, fanout, 1, usize::MAX, noisy);
                (run, pages.rows)
            };
            let (sequential, expected) = run(1);
            assert_eq!(expected.len(), 12, "hint {hint:?}");
            for fanout in [4, 8] {
                let (got, rows) = run(fanout);
                assert_eq!(expected, rows, "rows diverged at fanout {fanout}");
                assert_eq!(sequential.prompts, got.prompts, "fanout {fanout}");
                // Each clamped page waited for every answer before it.
                let clamped: Vec<usize> = (0..got.prompts.len())
                    .filter(|&i| field(&got.prompts[i], "limit") != "5")
                    .collect();
                assert!(!clamped.is_empty(), "fanout {fanout}");
                for i in clamped {
                    assert_eq!(got.planned_after[i], i, "fanout {fanout}");
                }
            }
        }
    }

    #[test]
    fn cardinality_hint_eliminates_tail_overshoot() {
        // 20 rows at page size 5 is an exact multiple: without a hint the
        // scan must probe past the end (a sequential run pays 1 extra empty
        // page; a speculating window can pay more). With the hint planning
        // stops at page 4 exactly — same rows, minimal calls, at any window.
        let p = parts(None, None);
        let spec = p.spec();
        let model = || pages_of(numbered_rows(20), vec![0, 1, 2]);
        let mut unhinted = Pages::new(spec, None, 5, usize::MAX, None);
        assert_eq!(
            replay(&mut unhinted, 1, 1, usize::MAX, model())
                .prompts
                .len(),
            5
        );
        for fanout in [1, 4, 8] {
            let mut pages = Pages::new(spec, None, 5, usize::MAX, Some(20));
            let run = replay(&mut pages, fanout, 1, usize::MAX, model());
            let expected: Vec<String> = (0..4).map(|i| page_prompt(&p, 5, i)).collect();
            assert_eq!(
                run.prompts, expected,
                "the window overshot at fanout {fanout}"
            );
            assert_eq!(pages.rows, numbered_rows(20));
        }
    }

    #[test]
    fn cardinality_hint_makes_empty_relations_free() {
        let p = parts(None, None);
        let spec = p.spec();
        let mut pages = Pages::new(spec, None, 5, usize::MAX, Some(0));
        let run = replay(&mut pages, 8, 1, usize::MAX, |_, _| unreachable!());
        assert!(run.prompts.is_empty());
        assert!(pages.rows.is_empty());
    }

    #[test]
    fn a_hinted_scan_past_its_estimate_opens_the_window_to_the_fanout() {
        // 200 rows in pages of 10 at fanout 16, every row passing the pushed
        // filter. The planner expects `BETWEEN` to keep a quarter of them
        // (`W₀` = 5 pages) and `=` a tenth (`W₀` = 2). Once the first `W₀`
        // pages have come back full they have refuted the estimate, and
        // every page the fanout allows is planned — `W₀ + 16` before any
        // later answer. For `BETWEEN` that is all 20 pages, two round trips
        // where slow growth took three (5 + 10 + 5); for `=` it is 18 — 16 in
        // flight behind the 2 consumed — three where slow growth took four
        // (2 + 4 + 8 + 6).
        const PAGE: usize = 10;
        const FANOUT: usize = 16;
        for (filter, first_window, trips) in [
            (between_filter(0, 199), 5, vec![5, 15]),
            (in_europe(), 2, vec![2, 16, 2]),
        ] {
            let expected_rows = estimate_scan_rows(200, usize::MAX, Some(&filter), None);
            assert_eq!(
                (expected_rows / PAGE as f64).ceil() as usize,
                first_window,
                "{filter}"
            );
            let p = parts(Some(filter), None);
            let spec = p.spec();
            let text = spec.prompt_filter().unwrap();
            let mut pages = Pages::new(spec, text.as_deref(), PAGE, usize::MAX, Some(200));
            let model = pages_of(numbered_rows(200), vec![0, 1, 2]);
            let run = replay(&mut pages, FANOUT, 1, usize::MAX, model);
            let expected: Vec<String> = (0..20).map(|i| page_prompt(&p, PAGE, i)).collect();
            assert_eq!(run.prompts, expected);
            assert_eq!(pages.rows.len(), 200);
            let before_a_late_answer = run
                .planned_after
                .iter()
                .filter(|&&after| after <= first_window)
                .count();
            let second_round_ends = (first_window + FANOUT).min(20);
            assert_eq!(
                before_a_late_answer, second_round_ends,
                "W₀ = {first_window}"
            );
            assert_eq!(rounds(&run), trips, "W₀ = {first_window}");
        }
    }

    #[test]
    fn an_unhinted_scan_opens_at_one_page_and_doubles_each_round_trip() {
        // 200 rows in pages of 10 at fanout 16, no cardinality hint, capped
        // at 200 rows. Slow start opens at one page and consumes each full
        // page into two more — 1, 2, 4, 8, then the 5 the budget leaves.
        let mut p = parts(None, None);
        p.pushed_limit = Some(200);
        let spec = p.spec();
        let mut pages = Pages::new(spec, None, 10, usize::MAX, None);
        let model = pages_of(numbered_rows(200), vec![0, 1, 2]);
        let run = replay(&mut pages, 16, 1, usize::MAX, model);
        assert_eq!(pages.rows.len(), 200);
        assert_eq!(rounds(&run), [1, 2, 4, 8, 5]);
    }

    /// The answer lines of the numbered rows in `rows`.
    fn lines(rows: std::ops::Range<usize>) -> String {
        let answer = pages_of(numbered_rows(rows.end), vec![0, 1, 2]);
        answer(0, &format!("limit: {}\noffset: {}", rows.len(), rows.start))
    }

    #[test]
    fn the_window_opens_at_the_estimate_and_to_the_fanout_once_answers_pass_it() {
        // 200 rows hinted, pages of 10, `population < 100` pushed: the
        // planner expects a third of the rows, so `W₀` = 7 pages. The window
        // grows by one per full page consumed until the answers have passed
        // that estimate; from there only the fanout and the hint bound it.
        // Without a hint it opens at one page and grows the same way, and
        // nothing ever refutes an estimate.
        let filter = lt_filter(100);
        let p = parts(Some(filter), None);
        let spec = p.spec();
        for (hint, windows) in [
            (
                Some(200),
                vec![7, 8, 9, 10, 11, 12, 13, usize::MAX, usize::MAX],
            ),
            (None, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]),
        ] {
            let mut pages = Pages::new(spec, None, 10, usize::MAX, hint);
            let mut seen = Vec::new();
            for consumed in 0..windows.len() {
                seen.push(pages.window());
                assert!(pages.next(1).unwrap().is_some());
                let answer = pages
                    .accept(&lines(10 * consumed..10 * consumed + 10))
                    .unwrap();
                assert!(!answer.done);
            }
            assert_eq!(seen, windows, "hint {hint:?}");
        }
    }

    #[test]
    fn a_short_page_ends_the_plan_and_an_overlong_one_is_clamped_to_its_page() {
        // Pages of 3. The first answer says five rows: the two past the page
        // are not taken, since the next page starts at row 3. The second
        // says two rows and a line that does not parse: three lines, so the
        // page is full, and the garbled line is accounted. The third says
        // one row: the relation has ended.
        let p = parts(None, None);
        let spec = p.spec();
        let mut pages = Pages::new(spec, None, 3, usize::MAX, None);
        let answers = [
            lines(0..5),
            format!("{}\ngarbled", lines(3..5)),
            lines(6..7),
        ];
        let run = replay(&mut pages, 1, 1, usize::MAX, |i, _| answers[i].clone());
        let asked: Vec<String> = (0..3).map(|i| page_prompt(&p, 3, i)).collect();
        assert_eq!(run.prompts, asked);
        assert_eq!(run.consumed, 3);
        assert_eq!(run.dropped_lines, 1);
        let rows = numbered_rows(7);
        assert_eq!(pages.rows, [&rows[..3], &rows[3..5], &rows[6..7]].concat());
    }

    #[test]
    fn no_page_past_the_hint_is_planned_whatever_the_answers_say() {
        // The hint says 7 rows; the model knows 40 and answers every page in
        // full. Pages at offsets 0, 2, 4 and 6 are all the plan asks, at
        // any window, and it keeps the rows they brought.
        let p = parts(None, None);
        let spec = p.spec();
        for fanout in [1, 3, 16] {
            let mut pages = Pages::new(spec, None, 2, usize::MAX, Some(7));
            let model = pages_of(numbered_rows(40), vec![0, 1, 2]);
            let run = replay(&mut pages, fanout, 1, usize::MAX, model);
            let asked: Vec<String> = (0..4).map(|i| page_prompt(&p, 2, i)).collect();
            assert_eq!(run.prompts, asked, "fanout {fanout}");
            assert_eq!(pages.rows, numbered_rows(8));
        }
    }
}
