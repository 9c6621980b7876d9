//! The plans whose answers are rows: a relation read `row_batch` page by
//! page, and a whole query answered by one `full_query` prompt.

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use llmsql_llm::prompt::PromptTemplate;
use llmsql_llm::{Answer, RequestKey};
use llmsql_plan::estimate_scan_rows;
use llmsql_types::{DataType, Error, RelSchema, Result, Row, Schema, Value};

use super::{unasked, Accepted, Asks, KeptPrompt, PromptPlan, Render, Reply, ScanOutput, ScanSpec};

/// What every run of one paged scan shares, derived once from the scan's
/// plan node, the configuration and the relation's cardinality hint: the
/// columns asked for and their types, the prompt template, the row budget,
/// the page size, the hint and the first window — and the request key of
/// each full page, once a run through a client with a request table has
/// asked it.
pub(crate) struct PageScan {
    /// The base table's arity: every row is this wide.
    arity: usize,
    columns: Vec<usize>,
    types: Arc<[DataType]>,
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
    /// The request key of full page `i` — `limit` = `page`, at offset
    /// `i × page` — one per page the hint allows (none without a hint, which
    /// bounds nothing). A page with a smaller limit, the budget-clamped last
    /// one, depends on how many rows earlier answers parsed and is rendered
    /// afresh.
    keys: Box<[OnceLock<RequestKey>]>,
}

impl PageScan {
    /// The paged scan of `spec` in pages of `page` rows (at least one), with
    /// `filter` in each prompt, under `max_scan_rows` and the relation's
    /// cardinality `hint`.
    pub(super) fn new(
        spec: ScanSpec<'_>,
        filter: Option<&str>,
        page: usize,
        max_scan_rows: usize,
        hint: Option<u64>,
    ) -> Self {
        let columns = spec.needed_columns();
        let column = |&i: &usize| &spec.table_schema.columns[i];
        let names: Vec<&str> = columns.iter().map(|i| column(i).name.as_str()).collect();
        let page = page.max(1);
        let budget = spec.row_budget(max_scan_rows);
        let first_window = hint.map_or(1, |n| {
            let rows = estimate_scan_rows(n, max_scan_rows, spec.pushed_filter, spec.pushed_limit);
            (rows / page as f64).ceil() as usize
        });
        let hint = hint.map(|n| n as usize);
        let pages = hint.map_or(0, |n| n.min(budget).div_ceil(page));
        PageScan {
            arity: spec.table_schema.arity(),
            types: columns.iter().map(|i| column(i).data_type).collect(),
            template: PromptTemplate::row_batch(
                spec.table,
                &names,
                filter,
                Some(spec.table_schema),
            ),
            columns,
            budget,
            page,
            hint,
            first_window,
            keys: (0..pages).map(|_| OnceLock::new()).collect(),
        }
    }
}

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
/// A full page's prompt is the scan's template with the page's limit and
/// offset rendered in, and its request key is kept in the [`PageScan`]; a
/// budget-clamped page is rendered for the run.
///
/// A run decodes each page's kept lines into rows as it consumes the page,
/// or, holding, keeps the page's answer and how many of its lines it keeps
/// instead, for an operator that only reads the rows ([`HeldPages`]). Either
/// way every answer is read through its page index as it arrives, so what
/// ends the scan is known at once; a held page's lines are decoded later,
/// when the operator reads them.
pub(super) struct Pages<'c> {
    scan: &'c PageScan,
    /// Full pages consumed.
    full_consumed: usize,
    /// Where the next unplanned page starts.
    offset: usize,
    /// The `limit` of each page in flight, oldest first.
    in_flight: VecDeque<usize>,
    /// Lines kept so far: the scan's rows.
    kept: usize,
    pub(super) rows: Vec<Row>,
    /// Holding: each consumed page's answer and the lines kept of it.
    held: Option<Vec<(Arc<Answer>, usize)>>,
}

impl<'c> Pages<'c> {
    /// A run of `scan` that decodes its rows.
    pub(super) fn new(scan: &'c PageScan) -> Self {
        Pages {
            scan,
            full_consumed: 0,
            offset: 0,
            in_flight: VecDeque::new(),
            kept: 0,
            rows: Vec::new(),
            held: None,
        }
    }

    /// A run of `scan` that holds its pages.
    pub(super) fn holding(scan: &'c PageScan) -> Self {
        Pages {
            held: Some(Vec::new()),
            ..Pages::new(scan)
        }
    }

    /// The run's rows, or its held pages.
    pub(super) fn into_output(self) -> ScanOutput<'c> {
        match self.held {
            Some(pages) => ScanOutput::Pages(HeldPages {
                scan: self.scan,
                pages,
                rows: self.kept,
            }),
            None => ScanOutput::Rows(self.rows),
        }
    }
}

/// The rows of a page scan as the pages that hold them: each consumed page's
/// answer and how many of its lines the scan kept.
pub(crate) struct HeldPages<'c> {
    scan: &'c PageScan,
    pages: Vec<(Arc<Answer>, usize)>,
    rows: usize,
}

impl HeldPages<'_> {
    /// The rows the pages hold.
    pub(super) fn len(&self) -> usize {
        self.rows
    }

    /// Decode each kept line, in order, into one row of the base arity,
    /// NULL outside the asked columns, and hand it to `each`: a text cell is
    /// written into the `String` its column held on the line before.
    pub(super) fn for_each_row(&self, each: &mut dyn FnMut(&Row) -> Result<()>) -> Result<()> {
        let scan = self.scan;
        let mut row = Row::new(vec![Value::Null; scan.arity]);
        for (answer, kept) in &self.pages {
            let page = answer.page(&scan.types)?;
            page.decode_each(*kept, &scan.columns, &mut row, &mut *each)?;
        }
        Ok(())
    }
}

impl PromptPlan for Pages<'_> {
    const KIND: &'static str = "row_batch";

    fn window(&self) -> usize {
        // The answers have passed the planner's estimate: only the hint
        // still bounds what may be asked.
        let first_window = self.scan.first_window;
        if self.scan.hint.is_some() && self.full_consumed >= first_window {
            return usize::MAX;
        }
        first_window + self.full_consumed
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
        let scan = self.scan;
        let reserved: usize = self.in_flight.iter().sum();
        let limit = (scan.budget.saturating_sub(self.kept + reserved)).min(scan.page);
        let clamped_in_company = limit < scan.page && !self.in_flight.is_empty();
        let past_the_hint = scan.hint.is_some_and(|end| self.offset >= end);
        if cap == 0 || limit == 0 || clamped_in_company || past_the_hint {
            return Ok(None);
        }
        let offset = self.offset;
        self.offset += limit;
        self.in_flight.push_back(limit);
        let full = limit == scan.page && offset.is_multiple_of(scan.page);
        let kept = full.then(|| scan.keys.get(offset / scan.page)).flatten();
        Ok(Some(match kept {
            Some(key) => Asks::Kept(key, Render::Page(&scan.template, limit, offset)),
            None => Asks::Prompt(scan.template.render_page(limit, offset)),
        }))
    }

    fn accept(&mut self, reply: Reply<'_>) -> Result<Accepted> {
        let scan = self.scan;
        let want = self.in_flight.pop_front().ok_or_else(unasked)?;
        // A backend that emits *more* lines than requested is clamped to the
        // page size — later pages are dispatched at offsets assuming at most
        // `want` lines per page, so consuming overshoot would duplicate rows.
        let keep = want.min(scan.budget - self.kept);
        // Read through the answer's page index, cold or warm: a cached answer
        // is not scanned again.
        let page = reply.page(&scan.types)?;
        let (parsed, dropped) = (page.lines(), page.dropped_lines());
        let keep = keep.min(parsed);
        self.kept += keep;
        match (&mut self.held, reply.alone) {
            (Some(held), Some(answer)) => {
                if keep > 0 {
                    held.push((Arc::clone(answer), keep));
                }
            }
            // A page travels alone: the driver packs only per-tuple prompts.
            (Some(_), None) => return Err(Error::execution("a page's answer travelled packed")),
            (None, _) => {
                // Each kept line's cells go straight to their columns of a
                // row of the base arity, NULL elsewhere.
                self.rows.reserve(keep);
                for cells in page.rows().take(keep) {
                    let mut full = vec![Value::Null; scan.arity];
                    for (cell, &column) in cells.zip(&scan.columns) {
                        full[column] = cell;
                    }
                    self.rows.push(Row::new(full));
                }
            }
        }
        // Lines the model produced for this page, parsed or not: the
        // relation is exhausted when the model had fewer rows to say than
        // asked for, not when some lines were malformed. A short page is the
        // end of the relation: the pages still in flight were speculative
        // fetches past the end.
        let done = parsed + dropped < want || self.kept >= scan.budget;
        self.full_consumed += usize::from(!done);
        Ok(Accepted {
            done,
            dropped_lines: dropped as u64,
            cells_filled: 0,
        })
    }
}

/// A whole query's one `full_query` prompt, derived once from the
/// statement: the prompt with its kept request key, and the output's types.
pub(crate) struct WholeQuery {
    prompt: KeptPrompt,
    types: Arc<[DataType]>,
}

impl WholeQuery {
    /// The prompt asking for `sql` with the `output` columns, described by
    /// `context`.
    pub(crate) fn new(sql: &str, output: &RelSchema, context: &Schema) -> Self {
        WholeQuery {
            prompt: KeptPrompt::new(PromptTemplate::full_query(
                sql,
                &output.names(),
                Some(context),
            )),
            types: output.fields.iter().map(|f| f.data_type).collect(),
        }
    }
}

/// The whole-query plan: one `full_query` prompt, whose answer is the result
/// table, read as rows of the output's types.
pub(super) struct Whole<'c> {
    query: &'c WholeQuery,
    asked: bool,
    pub(super) rows: Vec<Row>,
}

impl<'c> Whole<'c> {
    /// A run of `query`.
    pub(super) fn new(query: &'c WholeQuery) -> Self {
        Whole {
            query,
            asked: false,
            rows: Vec::new(),
        }
    }
}

impl PromptPlan for Whole<'_> {
    const KIND: &'static str = "full_query";

    fn next(&mut self, cap: usize) -> Result<Option<Asks<'_>>> {
        if self.asked || cap == 0 {
            return Ok(None);
        }
        self.asked = true;
        Ok(Some(self.query.prompt.ask()))
    }

    fn accept(&mut self, reply: Reply<'_>) -> Result<Accepted> {
        let page = reply.page(&self.query.types)?;
        self.rows = page.rows().map(|cells| Row::new(cells.collect())).collect();
        Ok(Accepted {
            done: true,
            dropped_lines: page.dropped_lines() as u64,
            cells_filled: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{
        alone, between_filter, field, given, gt_filter, in_europe, lt_filter, numbered_rows,
        page_prompt, pages_of, parts, replay, world_rows, Replay,
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
            let scan = PageScan::new(spec, None, 2, usize::MAX, None);
            let mut pages = Pages::new(&scan);
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
        let scan = PageScan::new(spec, filter.as_deref(), 2, usize::MAX, None);
        let mut pages = Pages::new(&scan);
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
        let scan = PageScan::new(spec, None, 2, usize::MAX, Some(5));
        let mut pages = Pages::new(&scan);
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
            let scan = PageScan::new(spec, None, 2, usize::MAX, hint);
            let mut pages = Pages::new(&scan);
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
        let scan = PageScan::new(spec, None, 2, 3, None);
        let mut pages = Pages::new(&scan);
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
                let scan = PageScan::new(spec, None, 5, 12, hint);
                let mut pages = Pages::new(&scan);
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
        let scan = PageScan::new(spec, None, 5, usize::MAX, None);
        let mut unhinted = Pages::new(&scan);
        assert_eq!(
            replay(&mut unhinted, 1, 1, usize::MAX, model())
                .prompts
                .len(),
            5
        );
        for fanout in [1, 4, 8] {
            let scan = PageScan::new(spec, None, 5, usize::MAX, Some(20));
            let mut pages = Pages::new(&scan);
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
        let scan = PageScan::new(spec, None, 5, usize::MAX, Some(0));
        let mut pages = Pages::new(&scan);
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
            let scan = PageScan::new(spec, text.as_deref(), PAGE, usize::MAX, Some(200));
            let mut pages = Pages::new(&scan);
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
        let scan = PageScan::new(spec, None, 10, usize::MAX, None);
        let mut pages = Pages::new(&scan);
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
            let scan = PageScan::new(spec, None, 10, usize::MAX, hint);
            let mut pages = Pages::new(&scan);
            let mut seen = Vec::new();
            for consumed in 0..windows.len() {
                seen.push(pages.window());
                assert!(pages.next(1).unwrap().is_some());
                let answer = pages
                    .accept(alone(&given(lines(10 * consumed..10 * consumed + 10))))
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
        let scan = PageScan::new(spec, None, 3, usize::MAX, None);
        let mut pages = Pages::new(&scan);
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
            let scan = PageScan::new(spec, None, 2, usize::MAX, Some(7));
            let mut pages = Pages::new(&scan);
            let model = pages_of(numbered_rows(40), vec![0, 1, 2]);
            let run = replay(&mut pages, fanout, 1, usize::MAX, model);
            let asked: Vec<String> = (0..4).map(|i| page_prompt(&p, 2, i)).collect();
            assert_eq!(run.prompts, asked, "fanout {fanout}");
            assert_eq!(pages.rows, numbered_rows(8));
        }
    }

    #[test]
    fn a_held_run_reads_the_rows_a_decoding_run_keeps() {
        // Whole pages, an overlong one clamped to its page, a garbled line,
        // a budget that ends the scan mid-page, and a page whose cells change
        // kind from line to line: the run that holds its pages asks and
        // accounts what the run that decodes them does, and its pages read,
        // a line at a time into one row, as the decoding run's rows.
        let p = parts(None, None);
        let spec = p.spec();
        let overlong = [
            lines(0..5),
            format!("{}\ngarbled", lines(3..5)),
            lines(6..7),
        ];
        let kinds = [
            "France | Europe | 68\nNULL | Asia | 125\nPeru | unknown | 34".to_string(),
            "São Tomé 日本 |  | 7\nKenya | Africa | n/a\n- Chad | Africa | 17,000".to_string(),
            "Fiji | Oceania".to_string(),
        ];
        let both_read = |page: usize, max_rows: usize, answer: &dyn Fn(usize, &str) -> String| {
            let scan = PageScan::new(spec, None, page, max_rows, None);
            let mut decoding = Pages::new(&scan);
            let decoded = replay(&mut decoding, 4, 1, usize::MAX, answer);
            let mut holding = Pages::holding(&scan);
            let held = replay(&mut holding, 4, 1, usize::MAX, answer);
            assert_eq!(held, decoded);
            let rows = decoding.rows;
            assert!(holding.rows.is_empty());
            let output = holding.into_output();
            assert_eq!(output.len(), rows.len());
            let mut read = Vec::new();
            output
                .for_each_row(|row| {
                    read.push(row.clone());
                    Ok(())
                })
                .unwrap();
            assert_eq!(read, rows);
            assert_eq!(output.into_rows().unwrap(), rows);
        };
        both_read(2, usize::MAX, &pages_of(world_rows(), vec![0, 1, 2]));
        both_read(3, usize::MAX, &|i, _| overlong[i].clone());
        both_read(2, 3, &pages_of(world_rows(), vec![0, 1, 2]));
        both_read(3, usize::MAX, &|i, _| kinds[i].clone());
    }

    #[test]
    fn a_whole_query_asks_one_prompt_and_reads_the_answer_as_the_result_table() {
        use llmsql_types::Field;
        let p = parts(None, None);
        let sql = "SELECT name, population FROM countries WHERE population > 60";
        let output = RelSchema::new(vec![
            Field::new(None, "name", DataType::Text, false),
            Field::new(None, "population", DataType::Int, true),
        ]);
        // A spent call budget asks nothing.
        let query = WholeQuery::new(sql, &output, &p.schema);
        let mut spent = Whole::new(&query);
        let nothing = replay(&mut spent, 4, 1, 0, |_, _| unreachable!());
        assert_eq!(nothing, Replay::default());

        // The one prompt is the `full_query` task's, byte for byte; the answer
        // reads as the parser reads it: commentary skipped, extra cells cut,
        // a line without a separator dropped.
        let answer = "Here are the results:\nJapan | 125\nGermany | 84 | 1\ngarbled\nFrance | 68";
        let mut whole = Whole::new(&query);
        let run = replay(&mut whole, 4, 1, usize::MAX, |_, _| answer.into());
        let task = TaskSpec::FullQuery {
            sql: sql.into(),
            columns: output.names(),
        };
        assert_eq!(run.prompts, [task.to_prompt(Some(&p.schema))]);
        assert_eq!(run.consumed, 1);
        let parsed = llmsql_llm::parse_pipe_rows(answer, &[DataType::Text, DataType::Int]);
        assert_eq!(whole.rows, parsed.rows);
        assert_eq!(whole.rows.len(), 3);
        assert_eq!(run.dropped_lines, parsed.dropped_lines as u64);
        assert_eq!(run.dropped_lines, 1);
    }
}
